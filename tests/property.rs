//! Property-based tests (proptest) on the system's core invariants:
//!
//! * the two-level dirty-bit map agrees with a brute-force model;
//! * `RangeSet` agrees with a brute-force element-set model;
//! * constant folding preserves interpreter semantics;
//! * arbitrary affine-access programs produce identical results on 1, 2
//!   and 3 simulated GPUs (the system's headline transparency property),
//!   for any `localaccess` halo parameters;
//! * scattered writes through the write-miss machinery match a sequential
//!   model for arbitrary index patterns;
//! * the broadened §IV-D2 elision prover is sound: whenever it removes a
//!   write-miss check, re-arming the check (the serial reference comm
//!   path) observes zero misses and identical results for randomized
//!   shift/scatter store kernels.

use std::collections::BTreeSet;

use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_kernel_ir::dirty::DirtyMap;
use acc_kernel_ir::fold::fold_expr;
use acc_kernel_ir::interp::{eval_host_expr, ExecCtx};
use acc_kernel_ir::{BinOp, Buffer, Expr, OpCounters, Ty, Value};
use acc_runtime::{run_program, ExecConfig, RangeSet};
use proptest::prelude::*;

// ---------------- DirtyMap vs model ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dirty_map_matches_model(
        n in 1usize..2000,
        chunk_bytes in 1usize..256,
        marks in prop::collection::vec(0usize..2000, 0..200),
    ) {
        let mut dm = DirtyMap::new(n, 4, chunk_bytes);
        let mut model = BTreeSet::new();
        for m in marks {
            let m = m % n;
            dm.mark(m);
            model.insert(m);
        }
        prop_assert_eq!(dm.dirty_count(), model.len());
        for i in 0..n {
            prop_assert_eq!(dm.is_dirty(i), model.contains(&i));
        }
        // Chunk summary bits exactly cover the dirty elements.
        let ce = dm.chunk_elems();
        for c in 0..dm.n_chunks() {
            let has = model.iter().any(|&i| i / ce == c);
            prop_assert_eq!(dm.chunk_dirty(c), has, "chunk {}", c);
        }
        // Runs reconstruct the model exactly.
        let mut rebuilt = BTreeSet::new();
        for c in dm.dirty_chunks() {
            for (lo, hi) in dm.dirty_runs_in_chunk(c) {
                rebuilt.extend(lo..hi);
            }
        }
        prop_assert_eq!(rebuilt, model);
    }

    #[test]
    fn rangeset_matches_model(
        ops in prop::collection::vec((0u8..2, 0i64..300, 0i64..300), 0..40),
    ) {
        let mut rs = RangeSet::new();
        let mut model = BTreeSet::new();
        for (op, a, b) in ops {
            let (lo, hi) = (a.min(b), a.max(b));
            match op {
                0 => {
                    rs.insert(lo, hi);
                    model.extend(lo..hi);
                }
                _ => {
                    rs.remove(lo, hi);
                    model.retain(|x| !(lo..hi).contains(x));
                }
            }
        }
        prop_assert_eq!(rs.len(), model.len() as i64);
        for x in 0..300 {
            prop_assert_eq!(rs.contains(x), model.contains(&x), "element {}", x);
        }
        // Runs are sorted, disjoint, non-adjacent.
        let runs: Vec<_> = rs.iter().collect();
        for w in runs.windows(2) {
            prop_assert!(w[0].1 < w[1].0);
        }
        // missing_in is the complement within any window.
        let missing = rs.missing_in(0, 300);
        for x in 0..300 {
            prop_assert_eq!(missing.contains(x), !model.contains(&x));
        }
    }
}

// ---------------- constant folding ----------------

fn arb_const_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-100i32..100).prop_map(Expr::imm_i32),
        (-100i32..100).prop_map(|v| Expr::Imm(Value::F64(v as f64))),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::sub(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::mul(a, b)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::bin(BinOp::Lt, a, b)),
            inner.clone().prop_map(|a| Expr::Cast {
                ty: Ty::F64,
                a: Box::new(a)
            }),
            inner.prop_map(|a| Expr::Cast {
                ty: Ty::I32,
                a: Box::new(a)
            }),
        ]
    })
}

fn eval_const(e: &Expr) -> Option<Value> {
    let mut ctx = ExecCtx {
        params: vec![],
        bufs: vec![],
        reduction_partials: vec![],
        miss_buf: vec![],
        miss_capacity: usize::MAX,
        counters: OpCounters::default(),
        per_buf_bytes: vec![],
        sanitize: vec![],
        sanitize_log: vec![],
        sanitize_hits: 0,
    };
    eval_host_expr(e, &mut [], &mut ctx).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Folding never changes what an expression evaluates to. (Mixed-type
    /// arithmetic is rejected identically by both paths.)
    #[test]
    fn folding_preserves_semantics(e in arb_const_expr()) {
        let before = eval_const(&e);
        let folded = fold_expr(e);
        let after = eval_const(&folded);
        match (before, after) {
            (Some(Value::F64(a)), Some(Value::F64(b))) => {
                prop_assert!((a == b) || (a.is_nan() && b.is_nan()));
            }
            (a, b) => prop_assert_eq!(a, b),
        }
    }
}

// ---------------- multi-GPU transparency ----------------

/// Program template: strided copy with halo reads and an affine write,
/// parameterised by the localaccess shape.
fn halo_program(stride: i64, left: i64, right: i64) -> String {
    format!(
        "void f(int n, int len, double *a, double *b) {{\n\
#pragma acc data copyin(a[0:len]) copy(b[0:len])\n\
{{\n\
#pragma acc localaccess(a) stride({stride}) left({left}) right({right})\n\
#pragma acc localaccess(b) stride({stride})\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {{\n\
double s = 0.0;\n\
int k = i*{stride} - {left};\n\
while (k <= i*{stride} + {stride} - 1 + {right}) {{\n\
if (k >= 0) {{ if (k < len) s += a[k]; }}\n\
k = k + 1;\n\
}}\n\
b[i*{stride}] = s;\n\
}}\n\
}}\n\
}}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (stride, left, right) localaccess shape gives the same answer
    /// on 1, 2 and 3 GPUs as a sequential model.
    #[test]
    fn multi_gpu_matches_sequential_for_any_halo(
        stride in 1i64..6,
        left in 0i64..8,
        right in 0i64..8,
        n in 1i64..60,
        seed in 0u64..1000,
    ) {
        let len = (n * stride) as usize;
        let src = halo_program(stride, left, right);
        let prog = compile_source(&src, "f", &CompileOptions::proposal())
            .expect("compile");
        // Deterministic pseudo-random input.
        let a: Vec<f64> = (0..len)
            .map(|i| ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed) >> 33) as f64 % 97.0)
            .collect();

        // Sequential model.
        let mut expect = vec![0.0f64; len];
        for i in 0..n {
            let mut s = 0.0;
            for k in (i * stride - left)..=(i * stride + stride - 1 + right) {
                if k >= 0 && (k as usize) < len {
                    s += a[k as usize];
                }
            }
            expect[(i * stride) as usize] = s;
        }

        for ngpus in 1..=3usize {
            let mut m = Machine::supercomputer_node();
            let rep = run_program(
                &mut m,
                &ExecConfig::gpus(ngpus),
                &prog,
                vec![Value::I32(n as i32), Value::I32(len as i32)],
                vec![Buffer::from_f64(&a), Buffer::zeroed(Ty::F64, len)],
            )
            .expect("run");
            let got = rep.arrays[1].to_f64_vec();
            for i in 0..len {
                prop_assert!(
                    (got[i] - expect[i]).abs() < 1e-9,
                    "ngpus={} idx={} got={} want={}",
                    ngpus, i, got[i], expect[i]
                );
            }
        }
    }

    /// Arbitrary scatter patterns through the write-miss machinery match
    /// the sequential model (last-writer may differ on duplicate targets,
    /// so targets are made unique via a permutation).
    #[test]
    fn scatter_writes_match_model(
        n in 1i64..200,
        mult in 1i64..20,
        seed in 0u64..1000,
    ) {
        // A permutation: idx[i] = (i * mult') mod n with mult' coprime to n.
        let mut mult = mult;
        while gcd(mult, n) != 1 {
            mult += 1;
        }
        let idx: Vec<i32> = (0..n).map(|i| ((i * mult + seed as i64) % n) as i32).collect();
        let src = "void f(int n, int *idx, double *out) {\n\
#pragma acc data copyin(idx[0:n]) copy(out[0:n])\n\
{\n\
#pragma acc localaccess(idx) stride(1)\n\
#pragma acc localaccess(out) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) out[idx[i]] = (double)i;\n\
}\n\
}";
        let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
        let mut expect = vec![0.0f64; n as usize];
        for i in 0..n as usize {
            expect[idx[i] as usize] = i as f64;
        }
        for ngpus in [1usize, 3] {
            let mut m = Machine::supercomputer_node();
            let rep = run_program(
                &mut m,
                &ExecConfig::gpus(ngpus),
                &prog,
                vec![Value::I32(n as i32)],
                vec![Buffer::from_i32(&idx), Buffer::zeroed(Ty::F64, n as usize)],
            )
            .expect("run");
            prop_assert_eq!(rep.arrays[1].to_f64_vec(), expect.clone(), "ngpus={}", ngpus);
        }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

// ---------------- §IV-D2 elision-prover soundness ----------------

/// Affine store kernel `out[i*s + off]`, with the store guarded to stay
/// in bounds when the offset can leave the thread's slot.
fn affine_store_program(s: i64, off: i64, guarded: bool) -> String {
    if guarded {
        format!(
            "void f(int n, int len, double *a, double *out) {{\n\
#pragma acc data copyin(a[0:n]) copy(out[0:len])\n\
{{\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc localaccess(out) stride({s})\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {{\n\
int k = i*{s} + {off};\n\
if (k >= 0) {{ if (k < len) out[k] = a[i] * 2.0 + (double)i; }}\n\
}}\n\
}}\n\
}}"
        )
    } else {
        format!(
            "void f(int n, int len, double *a, double *out) {{\n\
#pragma acc data copyin(a[0:n]) copy(out[0:len])\n\
{{\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc localaccess(out) stride({s})\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) out[i*{s} + {off}] = a[i] * 2.0 + (double)i;\n\
}}\n\
}}"
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For randomized shift/affine store kernels: whenever the prover
    /// elides the write-miss check, re-arming it must observe zero misses
    /// and bit-identical arrays on 1–3 GPUs — the proof claimed exactly
    /// that no store ever leaves its owner partition. In-slot offsets
    /// (`0 <= off < s`) must additionally *be* elided: the broadened
    /// prover covers every such shape.
    #[test]
    fn prover_never_elides_a_needed_miss_check(
        s in 1i64..5,
        off in -3i64..8,
        n in 2i64..40,
        seed in 0u64..1000,
    ) {
        let len = (n * s) as usize;
        let in_slot = (0..s).contains(&off);
        let src = affine_store_program(s, off, !in_slot);
        let prog = compile_source(&src, "f", &CompileOptions::proposal()).expect("compile");
        let out_cfg = prog.kernels[0]
            .configs
            .iter()
            .find(|c| c.name == "out")
            .unwrap();
        prop_assert!(out_cfg.mode.writes());
        if in_slot {
            prop_assert!(
                out_cfg.miss_check_elided,
                "in-slot affine store (s={} off={}) must be proven local", s, off
            );
        }
        let elided = out_cfg.miss_check_elided;
        let mut forced = prog.clone();
        acc_compiler::force_miss_checks(&mut forced);

        let a: Vec<f64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 101) as f64)
            .collect();
        let mut expect = vec![0.0f64; len];
        for i in 0..n {
            let k = i * s + off;
            if k >= 0 && (k as usize) < len {
                expect[k as usize] = a[i as usize] * 2.0 + i as f64;
            }
        }

        for ngpus in 1..=3usize {
            let run = |p: &acc_compiler::CompiledProgram| {
                let mut m = Machine::supercomputer_node();
                run_program(
                    &mut m,
                    &ExecConfig::gpus(ngpus),
                    p,
                    vec![Value::I32(n as i32), Value::I32(len as i32)],
                    vec![Buffer::from_f64(&a), Buffer::zeroed(Ty::F64, len)],
                )
                .expect("run")
            };
            let re = run(&prog);
            let rf = run(&forced);
            prop_assert_eq!(re.arrays[1].to_f64_vec(), expect.clone(), "ngpus={}", ngpus);
            prop_assert_eq!(re.arrays[1].to_f64_vec(), rf.arrays[1].to_f64_vec());
            if elided {
                prop_assert_eq!(
                    rf.trace.counters().miss_records, 0,
                    "elided kernel missed under re-armed checks (s={} off={} ngpus={})",
                    s, off, ngpus
                );
            }
        }
    }

    /// The contrapositive: a rotation store `out[(i+c) % n]` genuinely
    /// needs its miss check (some store always leaves the owner partition
    /// on >= 2 GPUs), so the prover must keep it — and the reference comm
    /// path must observe those misses and still produce the right answer.
    #[test]
    fn rotation_stores_keep_their_needed_check(
        n in 4i32..120,
        c_raw in 1i32..1000,
        seed in 0u64..1000,
    ) {
        let c = 1 + c_raw % (n - 1);
        let src = "void f(int n, int c, double *a, double *out) {\n\
#pragma acc data copyin(a[0:n]) copy(out[0:n])\n\
{\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc localaccess(out) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) out[(i + c) % n] = a[i] + 1.0;\n\
}\n\
}";
        let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
        let out_cfg = prog.kernels[0]
            .configs
            .iter()
            .find(|c| c.name == "out")
            .unwrap();
        prop_assert!(!out_cfg.miss_check_elided, "rotation store must keep its check");

        let a: Vec<f64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(40503).wrapping_add(seed) % 89) as f64)
            .collect();
        let mut expect = vec![0.0f64; n as usize];
        for i in 0..n as usize {
            expect[(i + c as usize) % n as usize] = a[i] + 1.0;
        }
        for ngpus in 2..=3usize {
            let mut m = Machine::supercomputer_node();
            let rep = run_program(
                &mut m,
                &ExecConfig::gpus(ngpus),
                &prog,
                vec![Value::I32(n), Value::I32(c)],
                vec![Buffer::from_f64(&a), Buffer::zeroed(Ty::F64, n as usize)],
            )
            .expect("run");
            prop_assert_eq!(rep.arrays[1].to_f64_vec(), expect.clone(), "ngpus={}", ngpus);
            // A nonzero rotation always pushes part of the first
            // partition's writes outside it: the check was needed.
            prop_assert!(
                rep.trace.counters().miss_records > 0,
                "ngpus={} c={} recorded no misses", ngpus, c
            );
        }
    }
}

// ---------------- random-program equivalence ----------------

/// A tiny generator of integer C expressions over `i`, `n`, and `a[i]`.
/// Division/remainder are excluded (divide-by-zero aborts both paths
/// identically but makes shrinking noisy).
fn arb_c_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0i32..50).prop_map(|v| v.to_string()),
        Just("i".to_string()),
        Just("n".to_string()),
        Just("a[i]".to_string()),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} - {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} * {b})")),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("(({a} < {b}) ? {a} : {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} & {b})")),
            (inner.clone(), inner).prop_map(|(a, b)| format!("({a} ^ {b})")),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any generated expression, the OpenMP-mode execution and the
    /// 3-GPU distributed execution compute identical integer results.
    #[test]
    fn random_expression_programs_agree(expr in arb_c_expr(), n in 1i32..80) {
        let src = format!(
            "void f(int n, int *a, int *b) {{\n\
#pragma acc data copyin(a[0:n]) copy(b[0:n])\n\
{{\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc localaccess(b) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) b[i] = {expr};\n\
}}\n\
}}"
        );
        let a: Vec<i32> = (0..n).map(|i| (i * 13 + 5) % 97).collect();

        let omp_prog = compile_source(&src, "f", &CompileOptions::pgi_like()).unwrap();
        let mut m = Machine::supercomputer_node();
        let omp = run_program(
            &mut m,
            &ExecConfig::openmp(),
            &omp_prog,
            vec![Value::I32(n)],
            vec![Buffer::from_i32(&a), Buffer::zeroed(Ty::I32, n as usize)],
        )
        .expect("openmp run");

        let gpu_prog = compile_source(&src, "f", &CompileOptions::proposal()).unwrap();
        let mut m = Machine::supercomputer_node();
        let gpu = run_program(
            &mut m,
            &ExecConfig::gpus(3),
            &gpu_prog,
            vec![Value::I32(n)],
            vec![Buffer::from_i32(&a), Buffer::zeroed(Ty::I32, n as usize)],
        )
        .expect("gpu run");

        prop_assert_eq!(omp.arrays[1].to_i32_vec(), gpu.arrays[1].to_i32_vec());
    }
}
