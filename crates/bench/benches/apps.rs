//! End-to-end application benches: one Criterion benchmark per
//! (application × program version), at Small scale so the suite stays in
//! seconds. These complement the `figures` binary, which regenerates the
//! paper's tables/figures at realistic sizes.

use acc_apps::{run_app, App, Scale, Version};
use acc_gpusim::Machine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_apps(c: &mut Criterion) {
    for &app in &App::ALL {
        let mut g = c.benchmark_group(format!("e2e/{}", app.name()));
        g.sample_size(10);
        for v in [
            Version::OpenMP,
            Version::Cuda,
            Version::Proposal(1),
            Version::Proposal(2),
            Version::Proposal(3),
        ] {
            g.bench_function(BenchmarkId::from_parameter(v.label()), |b| {
                b.iter(|| {
                    let mut m = Machine::supercomputer_node();
                    let r = run_app(app, v, &mut m, Scale::Small, 42).expect("run");
                    assert!(r.correct);
                    black_box(r.profile.time.parallel_region())
                })
            });
        }
        g.finish();
    }
}

fn bench_compile_pipeline(c: &mut Criterion) {
    // Wall-clock of the full simulated pipeline per kernel launch,
    // including loader and communication manager (BFS Small = 7 launches
    // with dirty-bit sync on 3 GPUs).
    let mut g = c.benchmark_group("e2e/launch_overhead");
    g.sample_size(10);
    g.bench_function("bfs_small_3gpu", |b| {
        b.iter(|| {
            let mut m = Machine::supercomputer_node();
            let r = run_app(App::Bfs, Version::Proposal(3), &mut m, Scale::Small, 1).unwrap();
            black_box(r.trace.counters().kernel_launches)
        })
    });
    g.finish();
}

fn bench_comm_paths(c: &mut Criterion) {
    // Host-parallel vs serial communication phase on the comm-heaviest
    // app (BFS dirties scattered chunks on all 3 GPUs every launch).
    // Simulated results are identical by construction; this measures the
    // wall-clock of the functional work alone.
    use acc_apps::runner::compile_app;
    use acc_runtime::{run_program, ExecConfig};

    let prog = compile_app(App::Bfs, Version::Proposal(3)).expect("compile bfs");
    let (scalars, arrays) = acc_bench::app_inputs(App::Bfs, Scale::Small, 42);
    let mut g = c.benchmark_group("e2e/comm_path");
    g.sample_size(10);
    for parallel in [true, false] {
        let label = if parallel { "parallel" } else { "serial" };
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut m = Machine::supercomputer_node();
                let cfg = ExecConfig::gpus(3).parallel_comm(parallel);
                let r = run_program(&mut m, &cfg, &prog, scalars.clone(), arrays.clone())
                    .expect("run");
                black_box(r.profile.time.gpu_gpu)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_apps, bench_compile_pipeline, bench_comm_paths);
criterion_main!(benches);
