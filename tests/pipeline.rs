//! Cross-crate integration tests: frontend → translator → runtime →
//! simulated machine, exercised through the public APIs only.

use acc_apps::{run_app, App, Scale, Version};
use acc_compiler::{compile_source, CompileOptions, Placement};
use acc_gpusim::{Machine, MachineKind};
use acc_kernel_ir::{Buffer, Ty, Value};
use acc_runtime::{run_program, ExecConfig};

/// Every app × every legal version × both machines at Small scale
/// produces oracle-correct results.
#[test]
fn all_apps_all_versions_both_machines() {
    for kind in [MachineKind::Desktop, MachineKind::SupercomputerNode] {
        for &app in &App::ALL {
            for v in [
                Version::OpenMP,
                Version::PgiAcc,
                Version::Cuda,
                Version::Proposal(1),
                Version::Proposal(2),
            ]
            .into_iter()
            .chain((kind.max_gpus() >= 3).then_some(Version::Proposal(3)))
            {
                let mut m = Machine::with_kind(kind);
                let r = run_app(app, v, &mut m, Scale::Small, 1234).unwrap_or_else(|e| {
                    panic!("{} {} on {}: {e}", app.name(), v.label(), kind.label())
                });
                assert!(
                    r.correct,
                    "{} {} on {} produced wrong results (err {})",
                    app.name(),
                    v.label(),
                    kind.label(),
                    r.max_err
                );
            }
        }
    }
}

/// The proposal's defining property: the same single-GPU source runs
/// unchanged on any number of GPUs with identical results.
#[test]
fn gpu_count_is_transparent() {
    for &app in &App::ALL {
        let mut outs = Vec::new();
        for n in 1..=3 {
            let mut m = Machine::supercomputer_node();
            let r = run_app(app, Version::Proposal(n), &mut m, Scale::Small, 77).unwrap();
            assert!(r.correct);
            outs.push(r.trace.counters().kernel_launches);
        }
        // Same control flow on every GPU count (same number of launches).
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "{:?}", outs);
    }
}

/// Table II column D comes straight out of the translator.
#[test]
fn translator_reports_paper_placements() {
    let prog = compile_source(
        acc_apps::md::SOURCE,
        "md",
        &CompileOptions::proposal(),
    )
    .unwrap();
    let k = &prog.kernels[0];
    let placement_of = |name: &str| {
        k.configs
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no config for {name}"))
            .placement
            .clone()
    };
    assert_eq!(placement_of("pos"), Placement::Replicated);
    assert_eq!(placement_of("neigh"), Placement::Distributed);
    assert_eq!(placement_of("force"), Placement::Distributed);
    // force writes are provably local → no miss checks.
    assert!(k.configs.iter().find(|c| c.name == "force").unwrap().miss_check_elided);
    // neigh is read-only strided with localaccess → layout transformed.
    assert!(k.configs.iter().find(|c| c.name == "neigh").unwrap().layout_transformed);
}

#[test]
fn kmeans_reduction_arrays_are_private() {
    let prog = compile_source(
        acc_apps::kmeans::SOURCE,
        "kmeans",
        &CompileOptions::proposal(),
    )
    .unwrap();
    assert_eq!(prog.kernels.len(), 2);
    let accum = &prog.kernels[1];
    let nc = accum
        .configs
        .iter()
        .find(|c| c.name == "new_centers")
        .unwrap();
    assert!(matches!(nc.placement, Placement::ReductionPrivate(_)));
    let cnt = accum
        .configs
        .iter()
        .find(|c| c.name == "new_counts")
        .unwrap();
    assert!(matches!(cnt.placement, Placement::ReductionPrivate(_)));
}

/// The same program source gives bit-identical results between the OpenMP
/// execution mode and single-GPU offload for integer-only kernels.
#[test]
fn openmp_and_gpu_agree_exactly_on_integers() {
    let src = "void f(int n, int *a, int *b) {\n\
#pragma acc data copyin(a[0:n]) copy(b[0:n])\n\
{\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc localaccess(b) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) b[i] = a[i] * 3 + b[i] / 2;\n\
}\n\
}";
    let n = 10_000;
    let a: Vec<i32> = (0..n).map(|i| i * 7 % 113).collect();
    let b: Vec<i32> = (0..n).map(|i| i % 31).collect();

    let run = |opts: &CompileOptions, cfg: &ExecConfig| {
        let prog = compile_source(src, "f", opts).unwrap();
        let mut m = Machine::desktop();
        run_program(
            &mut m,
            cfg,
            &prog,
            vec![Value::I32(n)],
            vec![Buffer::from_i32(&a), Buffer::from_i32(&b)],
        )
        .unwrap()
        .arrays[1]
            .to_i32_vec()
    };
    let omp = run(&CompileOptions::pgi_like(), &ExecConfig::openmp());
    let gpu1 = run(&CompileOptions::proposal(), &ExecConfig::gpus(1));
    let gpu2 = run(&CompileOptions::proposal(), &ExecConfig::gpus(2));
    assert_eq!(omp, gpu1);
    assert_eq!(omp, gpu2);
}

/// Halo (left/right) localaccess: a 3-point stencil distributed over
/// multiple GPUs must refresh halos between iterations.
#[test]
fn stencil_halos_refresh_between_launches() {
    let src = "void stencil(int n, int iters, double *a, double *b) {\n\
#pragma acc data copy(a[0:n]) copy(b[0:n])\n\
{\n\
int t = 0;\n\
while (t < iters) {\n\
#pragma acc localaccess(a) stride(1) left(1) right(1)\n\
#pragma acc localaccess(b) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
double l = 0.0;\n\
double r = 0.0;\n\
if (i > 0) l = a[i-1];\n\
if (i < n-1) r = a[i+1];\n\
b[i] = 0.5 * a[i] + 0.25 * (l + r);\n\
}\n\
#pragma acc localaccess(b) stride(1) left(1) right(1)\n\
#pragma acc localaccess(a) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) {\n\
double l = 0.0;\n\
double r = 0.0;\n\
if (i > 0) l = b[i-1];\n\
if (i < n-1) r = b[i+1];\n\
a[i] = 0.5 * b[i] + 0.25 * (l + r);\n\
}\n\
t = t + 1;\n\
}\n\
}\n\
}";
    let n = 1024usize;
    let init: Vec<f64> = (0..n).map(|i| if i == n / 2 { 1000.0 } else { 0.0 }).collect();

    // Reference: sequential stencil.
    let mut ra = init.clone();
    let mut rb = vec![0.0; n];
    for _ in 0..4 {
        for i in 0..n {
            let l = if i > 0 { ra[i - 1] } else { 0.0 };
            let r = if i < n - 1 { ra[i + 1] } else { 0.0 };
            rb[i] = 0.5 * ra[i] + 0.25 * (l + r);
        }
        for i in 0..n {
            let l = if i > 0 { rb[i - 1] } else { 0.0 };
            let r = if i < n - 1 { rb[i + 1] } else { 0.0 };
            ra[i] = 0.5 * rb[i] + 0.25 * (l + r);
        }
    }

    let prog = compile_source(src, "stencil", &CompileOptions::proposal()).unwrap();
    for ngpus in 1..=3 {
        let mut m = Machine::supercomputer_node();
        let rep = run_program(
            &mut m,
            &ExecConfig::gpus(ngpus),
            &prog,
            vec![Value::I32(n as i32), Value::I32(4)],
            vec![Buffer::from_f64(&init), Buffer::zeroed(Ty::F64, n)],
        )
        .unwrap();
        let got = rep.arrays[0].to_f64_vec();
        let err = got
            .iter()
            .zip(&ra)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-12, "ngpus={ngpus} err={err}");
    }
}

/// The harness invariants the figures rely on.
#[test]
fn figure_invariants_small_scale() {
    // Fig. 9 normalisation base: single-GPU runs have zero System memory.
    for &app in &App::ALL {
        let mut m = Machine::desktop();
        let r = run_app(app, Version::Proposal(1), &mut m, Scale::Small, 5).unwrap();
        assert_eq!(
            r.mem.iter().map(|g| g.system_peak).sum::<u64>(),
            0,
            "{}: single-GPU runs must not allocate runtime metadata",
            app.name()
        );
    }
    // Multi-GPU BFS uses System memory (dirty bits) — the Fig. 9 overhead.
    let mut m = Machine::supercomputer_node();
    let r = run_app(App::Bfs, Version::Proposal(3), &mut m, Scale::Small, 5).unwrap();
    assert!(r.mem.iter().map(|g| g.system_peak).sum::<u64>() > 0);
}

/// The whole simulation is deterministic: identical runs produce
/// identical results, identical simulated times, and identical traffic —
/// despite the kernels executing on real concurrent OS threads.
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut m = Machine::supercomputer_node();
        let r = run_app(App::Bfs, Version::Proposal(3), &mut m, Scale::Small, 99).unwrap();
        (r.profile.time, r.trace.counters())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

/// MD with distribution placement keeps per-GPU user memory roughly
/// 1/ngpus of the single-GPU footprint (the Fig. 9 "User" bars barely
/// grow with the GPU count).
#[test]
fn md_memory_scales_down_with_distribution() {
    let mut m1 = Machine::desktop();
    let r1 = run_app(App::Md, Version::Proposal(1), &mut m1, Scale::Small, 5).unwrap();
    let mut m2 = Machine::desktop();
    let r2 = run_app(App::Md, Version::Proposal(2), &mut m2, Scale::Small, 5).unwrap();
    let total1: u64 = r1.mem.iter().map(|g| g.user_peak).sum();
    let total2: u64 = r2.mem.iter().map(|g| g.user_peak).sum();
    // Replicated pos grows 2x but distributed neigh/force split; total
    // must stay well under 2x.
    assert!(
        (total2 as f64) < 1.5 * total1 as f64,
        "user memory grew {}x",
        total2 as f64 / total1 as f64
    );
}
