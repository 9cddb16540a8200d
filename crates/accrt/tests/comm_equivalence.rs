//! The communication manager's host-parallel, slice-based functional
//! paths must be observationally identical to the serial per-element
//! reference paths: same final arrays, same simulated time breakdown,
//! same structured event stream. `ExecConfig::parallel_comm` toggles
//! between the two, and these tests hold them together — on fixed
//! regressions and on randomized dirty patterns, miss shapes and
//! reduction inputs.

use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, Ty, Value};
use acc_obs::{Event, TraceLevel};
use acc_runtime::{run_program, ExecConfig, RunError, RunReport};
use proptest::prelude::*;

fn run_with(
    src: &str,
    func: &str,
    ngpus: usize,
    parallel: bool,
    scalars: Vec<Value>,
    arrays: Vec<Buffer>,
) -> RunReport {
    let prog = compile_source(src, func, &CompileOptions::proposal()).unwrap();
    let mut m = Machine::supercomputer_node(); // 3 GPUs
    run_program(
        &mut m,
        &ExecConfig::gpus(ngpus)
            .parallel_comm(parallel)
            .tracing(TraceLevel::Spans),
        &prog,
        scalars,
        arrays,
    )
    .unwrap()
}

/// Everything a run exposes must agree between the two comm paths.
fn assert_reports_identical(par: &RunReport, ser: &RunReport, what: &str) {
    for (i, (a, b)) in par.arrays.iter().zip(&ser.arrays).enumerate() {
        assert_eq!(a.bytes(), b.bytes(), "{what}: array {i} contents differ");
    }
    assert_eq!(par.locals, ser.locals, "{what}: host scalars differ");
    assert_eq!(par.profile.time, ser.profile.time, "{what}: time breakdown differs");
    assert_eq!(
        par.trace.counters().p2p_bytes, ser.trace.counters().p2p_bytes,
        "{what}: P2P bytes differ"
    );
    assert_eq!(
        par.trace.events(),
        ser.trace.events(),
        "{what}: event streams differ"
    );
    for (g, (a, b)) in par.mem.iter().zip(&ser.mem).enumerate() {
        assert_eq!(a.user_peak, b.user_peak, "{what}: GPU {g} user peak");
        assert_eq!(a.system_peak, b.system_peak, "{what}: GPU {g} system peak");
    }
}

/// Replicated scatter: every GPU dirties chunks, replica sync reconciles.
const SCATTER: &str = "void scat(int n, int iters, int *idx, int *flags) {\n\
#pragma acc data copyin(idx[0:n]) copy(flags[0:n])\n\
{\n\
int t = 0;\n\
while (t < iters) {\n\
#pragma acc localaccess(idx) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) flags[idx[i]] = flags[idx[i]] + 1;\n\
t = t + 1;\n\
}\n\
}\n\
}";

/// Distributed shifted write: out-of-partition stores buffer miss records.
const SHIFT: &str = "void shift(int n, int off, double *src, double *dst) {\n\
#pragma acc data copyin(src[0:n]) copy(dst[0:n])\n\
{\n\
#pragma acc localaccess(src) stride(1)\n\
#pragma acc localaccess(dst) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
int j = i + off;\n\
if (j >= n) j = j - n;\n\
dst[j] = src[i];\n\
}\n\
}\n\
}";

/// Histogram into a reduction-private array: binary-tree merge on +.
const HIST_ADD: &str = "void hist(int n, int k, int *keys, double *w, double *bins) {\n\
#pragma acc data copyin(keys[0:n], w[0:n]) copy(bins[0:k])\n\
{\n\
#pragma acc localaccess(keys) stride(1)\n\
#pragma acc localaccess(w) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
#pragma acc reductiontoarray(+: bins[k])\n\
bins[keys[i]] += w[i];\n\
}\n\
}\n\
}";

/// Same shape on min, exercising the float compare lanes of the slice merge.
const HIST_MIN: &str = "void hmin(int n, int k, int *keys, double *w, double *bins) {\n\
#pragma acc data copyin(keys[0:n], w[0:n]) copy(bins[0:k])\n\
{\n\
#pragma acc localaccess(keys) stride(1)\n\
#pragma acc localaccess(w) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
#pragma acc reductiontoarray(min: bins[k])\n\
bins[keys[i]] = fmin(bins[keys[i]], w[i]);\n\
}\n\
}\n\
}";

// ---------------------------------------------------------------------
// Fixed regressions.
// ---------------------------------------------------------------------

/// The `CommRound::start` timestamp used to be `pair_start.min(pair_end)`
/// — with `pair_start` initialised to +INFINITY, a round that somehow
/// priced no transfers would get a fabricated start instead of failing
/// loudly. Now every emitted round carries the true start of its first
/// transfer: finite, equal to the earliest matching sync span, and never
/// with zero chunks.
#[test]
fn comm_rounds_report_true_transfer_starts() {
    let n = 30_000usize;
    let idx: Vec<i32> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % n as u64) as i32)
        .collect();
    let r = run_with(
        SCATTER,
        "scat",
        3,
        true,
        vec![Value::I32(n as i32), Value::I32(3)],
        vec![Buffer::from_i32(&idx), Buffer::zeroed(Ty::I32, n)],
    );
    let mut rounds = 0usize;
    for ev in r.trace.events() {
        if let Event::Comm(round) = ev {
            rounds += 1;
            assert!(round.chunks > 0, "round with no chunks was emitted");
            assert!(round.start.is_finite(), "round start is not a real time");
            assert!(round.start <= round.end);
            // The round's start is the start of its earliest sync
            // transfer between the same pair in the same launch.
            let earliest = r
                .trace
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::Transfer(t)
                        if t.why == "sync"
                            && t.src == Some(round.src)
                            && t.dst == Some(round.dst) =>
                    {
                        Some(t.start)
                    }
                    _ => None,
                })
                .filter(|&s| s >= round.start - 1e-12 && s <= round.end)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                round.start, earliest,
                "round {}->{} start is not its first transfer's start",
                round.src, round.dst
            );
        }
    }
    assert!(rounds > 0, "scatter on 3 GPUs must produce comm rounds");
}

/// More GPUs than iterations: trailing GPUs own an empty `(lo, lo)`
/// partition. Routing must skip them — both when they could never own a
/// missed element and when a GPU with zero iterations produces no
/// records at all.
#[test]
fn replay_with_more_gpus_than_iterations() {
    let n = 2i32; // 3 GPUs, 2 iterations: GPU 2 owns nothing
    let src = vec![10.0f64, 20.0];
    let expect = vec![20.0f64, 10.0]; // shift by 1, wrap
    for parallel in [true, false] {
        let r = run_with(
            SHIFT,
            "shift",
            3,
            parallel,
            vec![Value::I32(n), Value::I32(1)],
            vec![Buffer::from_f64(&src), Buffer::zeroed(Ty::F64, 2)],
        );
        assert_eq!(r.arrays[1].to_f64_vec(), expect, "parallel={parallel}");
        assert!(r.trace.counters().miss_records > 0, "cross-partition writes missed");
    }
}

/// A write-miss record whose destination index is outside every GPU's
/// owned range must surface as `MissOutsideCoverage`, on both paths.
#[test]
fn miss_outside_coverage_is_reported() {
    // dst[2*i] for i < n runs past the end of dst for i >= (n+1)/2.
    let src = "void f(int n, double *a, double *dst) {\n\
#pragma acc data copyin(a[0:n]) copy(dst[0:n])\n\
{\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc localaccess(dst) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) dst[2*i] = a[i];\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    for parallel in [true, false] {
        let mut m = Machine::supercomputer_node();
        let err = run_program(
            &mut m,
            &ExecConfig::gpus(2).parallel_comm(parallel),
            &prog,
            vec![Value::I32(8)],
            vec![
                Buffer::from_f64(&[1.0; 8]),
                Buffer::zeroed(Ty::F64, 8),
            ],
        )
        .unwrap_err();
        assert!(
            matches!(err, RunError::MissOutsideCoverage { .. }),
            "parallel={parallel}: got {err}"
        );
    }
}

// ---------------------------------------------------------------------
// Randomized equivalence: parallel/slice comm == serial reference.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replica sync on random scatter patterns: multiple GPUs write
    /// overlapping random index sets (conflicts included), repeatedly.
    #[test]
    fn replica_sync_paths_agree(
        n in 64usize..2048,
        iters in 1i32..4,
        seed in 0u64..u64::MAX,
        ngpus in 2usize..=3,
    ) {
        let idx: Vec<i32> = (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(seed | 1)
                    .wrapping_add(seed >> 7)
                    .wrapping_mul(2654435761);
                (h % n as u64) as i32
            })
            .collect();
        let scalars = vec![Value::I32(n as i32), Value::I32(iters)];
        let arrays = || vec![Buffer::from_i32(&idx), Buffer::zeroed(Ty::I32, n)];
        let par = run_with(SCATTER, "scat", ngpus, true, scalars.clone(), arrays());
        let ser = run_with(SCATTER, "scat", ngpus, false, scalars, arrays());
        assert_reports_identical(&par, &ser, "replica sync");
    }

    /// Miss replay on random shift distances (including 0 and wrap-heavy
    /// shifts that cross several partitions).
    #[test]
    fn miss_replay_paths_agree(
        n in 8i32..1500,
        off in 0i32..1500,
        ngpus in 2usize..=3,
    ) {
        let off = off % n;
        let src: Vec<f64> = (0..n).map(|i| i as f64 * 1.5).collect();
        let scalars = vec![Value::I32(n), Value::I32(off)];
        let arrays = || vec![Buffer::from_f64(&src), Buffer::zeroed(Ty::F64, n as usize)];
        let par = run_with(SHIFT, "shift", ngpus, true, scalars.clone(), arrays());
        let ser = run_with(SHIFT, "shift", ngpus, false, scalars, arrays());
        assert_reports_identical(&par, &ser, "miss replay");
    }

    /// Reduction merge on random keys/weights, for an integer-insensitive
    /// (+) and an order-sensitive comparison (min) operator.
    #[test]
    fn reduction_merge_paths_agree(
        n in 16i32..2000,
        k in 1i32..32,
        seed in 0u64..u64::MAX,
        ngpus in 2usize..=3,
    ) {
        let keys: Vec<i32> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed | 3) % k as u64) as i32)
            .collect();
        let w: Vec<f64> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(seed ^ 0x9e3779b9) % 2001) as f64) - 1000.0)
            .collect();
        let base: Vec<f64> = (0..k).map(|i| 100.0 + i as f64).collect();
        for (src, func) in [(HIST_ADD, "hist"), (HIST_MIN, "hmin")] {
            let scalars = vec![Value::I32(n), Value::I32(k)];
            let arrays = || vec![
                Buffer::from_i32(&keys),
                Buffer::from_f64(&w),
                Buffer::from_f64(&base),
            ];
            let par = run_with(src, func, ngpus, true, scalars.clone(), arrays());
            let ser = run_with(src, func, ngpus, false, scalars, arrays());
            assert_reports_identical(&par, &ser, func);
        }
    }
}
