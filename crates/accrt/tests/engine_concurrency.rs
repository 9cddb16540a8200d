//! The [`Engine`] is the multi-tenant face of the runtime: one shared
//! compilation cache, shared scratch pools, and shared per-kernel
//! mapper history, launched from many threads at once. None of that
//! sharing may be observable in results: every concurrent launch must
//! be bit-identical — arrays, host scalars, simulated time breakdown,
//! memory peaks, and the structured event stream — to the same job run
//! serially through [`run_program`] on a
//! private machine.

use std::sync::Arc;

use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::{Machine, MachineKind};
use acc_kernel_ir::{Buffer, Ty, Value};
use acc_obs::TraceLevel;
use acc_runtime::{run_program, Engine, ExecConfig, RunReport, Schedule};
use proptest::prelude::*;

/// Replicated scatter with a distributed index: misses, replica sync,
/// and write-miss replay all fire.
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

/// Distributed shifted copy: out-of-partition stores and P2P traffic.
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

fn scatter_inputs(n: usize, iters: i32, seed: u64) -> (Vec<Value>, Vec<Buffer>) {
    let idx: Vec<i32> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % n as u64) as i32)
        .collect();
    (
        vec![Value::I32(n as i32), Value::I32(iters)],
        vec![Buffer::from_i32(&idx), Buffer::zeroed(Ty::I32, n)],
    )
}

fn shift_inputs(n: usize, off: i32, seed: u64) -> (Vec<Value>, Vec<Buffer>) {
    let src: Vec<f64> = (0..n).map(|i| (i as u64 ^ seed) as f64 * 0.5).collect();
    (
        vec![Value::I32(n as i32), Value::I32(off)],
        vec![Buffer::from_f64(&src), Buffer::zeroed(Ty::F64, n)],
    )
}

fn inputs_for(func: &str, n: usize, seed: u64) -> (Vec<Value>, Vec<Buffer>) {
    if func == "scat" {
        scatter_inputs(n, 3, seed)
    } else {
        shift_inputs(n, 37, seed)
    }
}

/// Everything a run exposes must agree between the two paths.
fn assert_reports_identical(eng: &RunReport, ser: &RunReport, what: &str) {
    for (i, (a, b)) in eng.arrays.iter().zip(&ser.arrays).enumerate() {
        assert_eq!(a.bytes(), b.bytes(), "{what}: array {i} contents differ");
    }
    assert_eq!(eng.locals, ser.locals, "{what}: host scalars differ");
    assert_eq!(
        eng.profile.time, ser.profile.time,
        "{what}: time breakdown differs"
    );
    assert_eq!(
        eng.trace.counters().p2p_bytes, ser.trace.counters().p2p_bytes,
        "{what}: P2P bytes differ"
    );
    assert_eq!(
        eng.trace.events(),
        ser.trace.events(),
        "{what}: event streams differ"
    );
    for (g, (a, b)) in eng.mem.iter().zip(&ser.mem).enumerate() {
        assert_eq!(a.user_peak, b.user_peak, "{what}: GPU {g} user peak");
        assert_eq!(a.system_peak, b.system_peak, "{what}: GPU {g} system peak");
    }
}

fn spans_cfg(ngpus: usize) -> ExecConfig {
    ExecConfig::gpus(ngpus).tracing(TraceLevel::Spans)
}

/// Serial reference: the pre-Engine path on a private machine with a
/// fresh mapper and a fresh staging pool.
fn serial_reference(src: &str, func: &str, n: usize, ngpus: usize, seed: u64) -> RunReport {
    let prog = compile_source(src, func, &CompileOptions::proposal()).unwrap();
    let (scalars, arrays) = inputs_for(func, n, seed);
    let mut m = Machine::supercomputer_node();
    run_program(&mut m, &spans_cfg(ngpus), &prog, scalars, arrays).unwrap()
}

#[test]
fn concurrent_engine_launches_match_the_serial_exec_path() {
    let engine = Arc::new(Engine::new(
        MachineKind::SupercomputerNode,
        ExecConfig::gpus(1),
    ));
    let cells: Vec<(&str, &str, usize, u64)> = vec![
        (SCATTER, "scat", 1, 1),
        (SCATTER, "scat", 2, 2),
        (SCATTER, "scat", 3, 3),
        (SHIFT, "shift", 2, 4),
        (SHIFT, "shift", 3, 5),
    ];
    let refs: Vec<RunReport> = cells
        .iter()
        .map(|&(src, func, ngpus, seed)| serial_reference(src, func, 4096, ngpus, seed))
        .collect();

    // 8 tenant threads, each replaying every cell twice through the
    // shared engine — warm pools, cache hits, and shared mapper history
    // included.
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let cells = cells.clone();
            std::thread::spawn(move || -> Vec<(usize, RunReport)> {
                let mut out = Vec::new();
                for pass in 0..2 {
                    for (i, &(src, func, ngpus, seed)) in cells.iter().enumerate() {
                        let kernel = engine
                            .compile(src, func, &CompileOptions::proposal())
                            .unwrap();
                        let (scalars, arrays) = inputs_for(func, 4096, seed);
                        let report = engine
                            .launch_with(&kernel, &spans_cfg(ngpus), scalars, arrays)
                            .unwrap();
                        if pass == 1 {
                            out.push((i, report));
                        }
                    }
                }
                out
            })
        })
        .collect();
    for (t, th) in threads.into_iter().enumerate() {
        for (i, report) in th.join().expect("tenant thread panicked") {
            let (_, func, ngpus, _) = cells[i];
            assert_reports_identical(
                &report,
                &refs[i],
                &format!("tenant {t}, {func} x{ngpus}"),
            );
        }
    }
    let stats = engine.stats();
    assert_eq!(
        stats.compiles + stats.cache_hits,
        8 * 2 * cells.len() as u64,
        "every compile call is either a compile or a hit"
    );
    assert!(stats.pool_reuses > 0, "warm launches should reuse pools");
}

#[test]
fn compile_cache_is_shared_across_threads() {
    let engine = Arc::new(Engine::new(
        MachineKind::SupercomputerNode,
        ExecConfig::gpus(1),
    ));
    // First wave: 8 threads race on the same cold request. Racing
    // threads may each run the compiler, but the IR map hands every one
    // of them the same kernel.
    let kernels: Vec<Arc<acc_runtime::CompiledKernel>> = (0..8)
        .map(|_| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                engine
                    .compile(SCATTER, "scat", &CompileOptions::proposal())
                    .unwrap()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    for k in &kernels[1..] {
        assert!(
            Arc::ptr_eq(k, &kernels[0]),
            "racing compiles must converge on one kernel"
        );
        assert_eq!(k.ir_hash(), kernels[0].ir_hash());
    }
    let cold = engine.stats();
    assert_eq!(
        cold.ir_dedups,
        cold.compiles - 1,
        "every redundant racing compile must dedup on IR"
    );
    // Second wave: all warm, all request-cache hits.
    let before_hits = cold.cache_hits;
    for _ in 0..8 {
        let k = engine
            .compile(SCATTER, "scat", &CompileOptions::proposal())
            .unwrap();
        assert!(Arc::ptr_eq(&k, &kernels[0]));
    }
    let warm = engine.stats();
    assert_eq!(warm.cache_hits, before_hits + 8);
    assert_eq!(warm.compiles, cold.compiles, "no recompiles when warm");
}

#[test]
fn mapper_history_sharing_never_changes_equal_results() {
    let engine = Engine::new(MachineKind::SupercomputerNode, ExecConfig::gpus(1));
    let kernel = engine
        .compile(SCATTER, "scat", &CompileOptions::proposal())
        .unwrap();
    let run_equal = || {
        let (scalars, arrays) = scatter_inputs(4096, 3, 11);
        engine
            .launch_with(&kernel, &spans_cfg(3), scalars, arrays)
            .unwrap()
    };
    let reference = run_equal();

    // Feed the shared mapper history through cost-model launches of the
    // same kernel — under `Schedule::Equal` that history must stay
    // invisible.
    for _ in 0..3 {
        let (scalars, arrays) = scatter_inputs(4096, 3, 11);
        engine
            .launch_with(
                &kernel,
                &spans_cfg(3).schedule(Schedule::CostModel),
                scalars,
                arrays,
            )
            .unwrap();
    }
    let after_history = run_equal();
    assert_reports_identical(
        &after_history,
        &reference,
        "Equal schedule after cost-model history",
    );
    // And against the no-engine path.
    let serial = serial_reference(SCATTER, "scat", 4096, 3, 11);
    assert_reports_identical(&reference, &serial, "Equal schedule vs serial path");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential: for random workloads, a launch through a shared
    /// warm engine is bit-identical to the serial `run_program` path.
    #[test]
    fn engine_matches_serial_on_random_workloads(
        n in 64usize..1024,
        seed in 0u64..u64::MAX,
        ngpus in 1usize..=3,
        scatter in 0u8..2,
    ) {
        let (src, func) = if scatter == 1 { (SCATTER, "scat") } else { (SHIFT, "shift") };
        let serial = serial_reference(src, func, n, ngpus, seed);
        // A fresh engine warmed by one throwaway launch, so the checked
        // launch exercises pooled buffers and a primed cache.
        let engine = Engine::new(MachineKind::SupercomputerNode, ExecConfig::gpus(1));
        let kernel = engine.compile(src, func, &CompileOptions::proposal()).unwrap();
        let (scalars, arrays) = inputs_for(func, n, seed);
        engine.launch_with(&kernel, &spans_cfg(ngpus), scalars, arrays).unwrap();
        let (scalars, arrays) = inputs_for(func, n, seed);
        let warm = engine.launch_with(&kernel, &spans_cfg(ngpus), scalars, arrays).unwrap();
        assert_reports_identical(&warm, &serial, "warm engine vs serial");
    }
}
