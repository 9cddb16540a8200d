//! # acc-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V) from
//! the simulated system, plus the ablations DESIGN.md calls out:
//!
//! * [`table1`] — the machine settings (Table I);
//! * [`table2`] — application characteristics (Table II): device-memory
//!   footprint, parallel loops, kernel executions, `localaccess` ratio;
//! * [`fig7`] — relative performance normalised to OpenMP, all program
//!   versions on both machines;
//! * [`fig8`] — execution-time breakdown (KERNELS / CPU-GPU / GPU-GPU)
//!   normalised to the single-GPU total;
//! * [`fig9`] — per-GPU device-memory usage (User / System) normalised to
//!   the single-GPU usage;
//! * [`ablation_chunk`] — second-level dirty-bit chunk-size sweep
//!   (§IV-D1 fixes 1 MB experimentally);
//! * [`ablation_layout`] — the 2-D layout transform on/off (§IV-B4);
//! * [`ablation_placement`] — distribution-based placement vs
//!   replica-everything (§IV-C).
//!
//! All entry points return plain data; the `figures` binary renders them
//! as text tables and optionally JSON (via `acc_obs::json`).

pub mod diff;

use acc_apps::{run_app, App, Scale, Version};
use acc_compiler::CompileOptions;
use acc_gpusim::{Machine, MachineKind};
use acc_obs::json::Value;
use acc_runtime::{run_program, ExecConfig, Schedule};

pub use diff::{bench_diff, DiffReport};

/// Compile-checks (and runs) the code examples embedded in the README.
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

/// Versions evaluated on a machine (paper Fig. 7 legend).
pub fn versions_for(kind: MachineKind) -> Vec<Version> {
    let mut v = vec![
        Version::OpenMP,
        Version::PgiAcc,
        Version::Cuda,
        Version::Proposal(1),
        Version::Proposal(2),
    ];
    if kind.max_gpus() >= 3 {
        v.push(Version::Proposal(3));
    }
    v
}

/// One Table I column.
#[derive(Debug)]
pub struct MachineRow {
    pub machine: String,
    pub cpu: String,
    pub omp_threads: u32,
    pub gpus: String,
    pub gpu_mem_gb: f64,
    pub h2d_gbs: f64,
    pub p2p_gbs: f64,
}

/// Table I: the machine settings.
pub fn table1() -> Vec<MachineRow> {
    [MachineKind::Desktop, MachineKind::SupercomputerNode]
        .into_iter()
        .map(|k| {
            let m = Machine::with_kind(k);
            MachineRow {
                machine: k.label().to_string(),
                cpu: m.cpu.name.clone(),
                omp_threads: m.cpu.omp_threads,
                gpus: format!("{} x{}", m.gpus[0].spec.name, m.n_gpus()),
                gpu_mem_gb: m.gpus[0].spec.mem_bytes as f64 / (1u64 << 30) as f64,
                h2d_gbs: m.bus.h2d_bw / 1e9,
                p2p_gbs: m.bus.p2p_bw / 1e9,
            }
        })
        .collect()
}

/// One Table II row.
#[derive(Debug)]
pub struct AppRow {
    pub app: String,
    pub description: String,
    pub input: String,
    /// A: total device memory in single-GPU execution, MB.
    pub device_mb: f64,
    /// B: number of parallel loops.
    pub parallel_loops: usize,
    /// C: number of kernel executions.
    pub kernel_execs: u64,
    /// D: arrays with localaccess / arrays used in parallel loops.
    pub localaccess: String,
    pub correct: bool,
}

/// Table II: application characteristics, measured on single-GPU runs.
pub fn table2(scale: Scale) -> Vec<AppRow> {
    App::ALL
        .iter()
        .map(|&app| {
            let mut m = Machine::desktop();
            let r = run_app(app, Version::Proposal(1), &mut m, scale, 42).expect("run");
            let prog = acc_apps::runner::compile_app(app, Version::Proposal(1)).unwrap();
            let desc = match app {
                App::Md => "Simulation",
                App::Kmeans => "Clustering",
                App::Bfs => "Graph Traversal",
                App::Spmv => "Sparse Linear Algebra",
                App::Heat2d => "Stencil",
                App::Pagerank => "Graph Ranking",
                App::Heat2dHalo2 => "Stencil (deep)",
            };
            AppRow {
                app: app.name().to_uppercase(),
                description: desc.to_string(),
                input: input_label(app, scale),
                device_mb: r.mem[0].user_peak as f64 / 1e6,
                parallel_loops: prog.n_parallel_loops(),
                kernel_execs: r.trace.counters().kernel_launches,
                localaccess: format!("{}/{}", r.localaccess_ratio.0, r.localaccess_ratio.1),
                correct: r.correct,
            }
        })
        .collect()
}

fn input_label(app: App, scale: Scale) -> String {
    match app {
        App::Md => {
            let c = md_config(scale);
            format!("{} Atom", c.natoms())
        }
        App::Kmeans => match scale {
            Scale::Paper => "kddcup".into(),
            _ => "kddcup-shaped (scaled)".into(),
        },
        App::Bfs => {
            let c = bfs_config(scale);
            format!("{} node / {} edge", c.nnodes(), c.nedges())
        }
        App::Spmv => {
            let c = spmv_config(scale);
            format!("{} row / ~{} nnz/row", c.nrows, c.nnz_per_row)
        }
        App::Heat2d => {
            let c = heat2d_config(scale);
            format!("{}x{} plate / {} iter", c.rows, c.cols, c.iters)
        }
        App::Pagerank => {
            let c = pagerank_config(scale);
            format!("{} page / {} iter", c.n, c.iters)
        }
        App::Heat2dHalo2 => {
            let c = heat2d_halo2_config(scale);
            format!("{}x{} plate / {} iter", c.rows, c.cols, c.iters)
        }
    }
}

/// MD workload config for a scale (the Scaled point keeps the neighbor
/// structure and shrinks the lattice).
pub fn md_config(scale: Scale) -> acc_apps::md::MdConfig {
    match scale {
        Scale::Small => acc_apps::md::MdConfig::small(),
        Scale::Scaled => acc_apps::md::MdConfig {
            nx: 24,
            ny: 24,
            nz: 16,
            ..acc_apps::md::MdConfig::paper()
        },
        Scale::Paper => acc_apps::md::MdConfig::paper(),
    }
}

/// KMEANS workload config for a scale.
pub fn kmeans_config(scale: Scale) -> acc_apps::kmeans::KmeansConfig {
    match scale {
        Scale::Small => acc_apps::kmeans::KmeansConfig::small(),
        Scale::Scaled => acc_apps::kmeans::KmeansConfig {
            npoints: 24_700,
            ..acc_apps::kmeans::KmeansConfig::paper()
        },
        Scale::Paper => acc_apps::kmeans::KmeansConfig::paper(),
    }
}

/// BFS workload config for a scale.
pub fn bfs_config(scale: Scale) -> acc_apps::bfs::BfsConfig {
    match scale {
        Scale::Small => acc_apps::bfs::BfsConfig::small(),
        Scale::Scaled => acc_apps::bfs::BfsConfig::scaled(),
        Scale::Paper => acc_apps::bfs::BfsConfig::paper(),
    }
}

/// SPMV workload config for a scale (no published paper size: Paper maps
/// to Scaled).
pub fn spmv_config(scale: Scale) -> acc_apps::spmv::SpmvConfig {
    match scale {
        Scale::Small => acc_apps::spmv::SpmvConfig::small(),
        Scale::Scaled | Scale::Paper => acc_apps::spmv::SpmvConfig::scaled(),
    }
}

/// HEAT2D workload config for a scale (no published paper size: Paper
/// maps to Scaled).
pub fn heat2d_config(scale: Scale) -> acc_apps::heat2d::Heat2dConfig {
    match scale {
        Scale::Small => acc_apps::heat2d::Heat2dConfig::small(),
        Scale::Scaled | Scale::Paper => acc_apps::heat2d::Heat2dConfig::scaled(),
    }
}

/// PAGERANK workload config for a scale (no published paper size: Paper
/// maps to Scaled).
pub fn pagerank_config(scale: Scale) -> acc_apps::pagerank::PagerankConfig {
    match scale {
        Scale::Small => acc_apps::pagerank::PagerankConfig::small(),
        Scale::Scaled | Scale::Paper => acc_apps::pagerank::PagerankConfig::scaled(),
    }
}

/// HEAT2D-HALO2 workload config for a scale (a post-paper app, so Paper
/// maps to Scaled). Its bench rows are the *wavefront* points: the
/// runner auto-selects `Schedule::Wavefront` for the deep in-place
/// stencil, so `bench-diff` pins the pipelined schedule's simulated
/// times alongside every other app's.
pub fn heat2d_halo2_config(scale: Scale) -> acc_apps::heat2d_halo2::Halo2Config {
    match scale {
        Scale::Small => acc_apps::heat2d_halo2::Halo2Config::small(),
        Scale::Scaled | Scale::Paper => acc_apps::heat2d_halo2::Halo2Config::scaled(),
    }
}

/// One run of the full evaluation matrix: every (machine × app × version)
/// combination, executed once and shared by Figs. 7, 8 and 9.
#[derive(Debug)]
pub struct MatrixEntry {
    pub machine: MachineKind,
    pub app: App,
    pub version: Version,
    pub result: acc_apps::AppResult,
}

/// Execute the evaluation matrix. With `progress`, prints one line per
/// configuration to stderr (runs take a while at paper scale).
pub fn run_matrix(scale: Scale, seed: u64, progress: bool) -> Vec<MatrixEntry> {
    let mut out = Vec::new();
    for kind in [MachineKind::Desktop, MachineKind::SupercomputerNode] {
        for &app in &App::ALL {
            for v in versions_for(kind) {
                if progress {
                    eprintln!("running {} / {} / {} ...", kind.label(), app.name(), v.label());
                }
                let mut m = Machine::with_kind(kind);
                let result = run_app(app, v, &mut m, scale, seed).expect("run");
                out.push(MatrixEntry {
                    machine: kind,
                    app,
                    version: v,
                    result,
                });
            }
        }
    }
    out
}

/// One Fig. 7 bar: relative performance vs OpenMP (higher = faster).
#[derive(Debug)]
pub struct Fig7Bar {
    pub machine: String,
    pub app: String,
    pub version: String,
    pub relative_perf: f64,
    pub correct: bool,
}

/// Fig. 7 from a computed matrix: every version normalised to OpenMP.
pub fn fig7_from(matrix: &[MatrixEntry]) -> Vec<Fig7Bar> {
    let mut out = Vec::new();
    for e in matrix {
        let base = matrix
            .iter()
            .find(|b| {
                b.machine == e.machine && b.app == e.app && b.version == Version::OpenMP
            })
            .expect("OpenMP baseline present")
            .result
            .profile
            .time
            .parallel_region();
        out.push(Fig7Bar {
            machine: e.machine.label().to_string(),
            app: e.app.name().to_string(),
            version: e.version.label(),
            relative_perf: base / e.result.profile.time.parallel_region(),
            correct: e.result.correct,
        });
    }
    out
}

/// Fig. 7: performance of every version normalised to OpenMP.
pub fn fig7(scale: Scale, seed: u64) -> Vec<Fig7Bar> {
    fig7_from(&run_matrix(scale, seed, false))
}

/// One Fig. 8 stacked bar: phase times normalised to the 1-GPU total.
#[derive(Debug)]
pub struct Fig8Bar {
    pub machine: String,
    pub app: String,
    pub ngpus: usize,
    pub kernels: f64,
    pub cpu_gpu: f64,
    pub gpu_gpu: f64,
}

/// Fig. 8 from a computed matrix: proposal breakdown on 1..max GPUs.
pub fn fig8_from(matrix: &[MatrixEntry]) -> Vec<Fig8Bar> {
    let mut out = Vec::new();
    for e in matrix {
        let Version::Proposal(n) = e.version else {
            continue;
        };
        let base = matrix
            .iter()
            .find(|b| {
                b.machine == e.machine && b.app == e.app && b.version == Version::Proposal(1)
            })
            .expect("1-GPU run present")
            .result
            .profile
            .time
            .parallel_region();
        out.push(Fig8Bar {
            machine: e.machine.label().to_string(),
            app: e.app.name().to_string(),
            ngpus: n,
            kernels: e.result.profile.time.kernels / base,
            cpu_gpu: e.result.profile.time.cpu_gpu / base,
            gpu_gpu: e.result.profile.time.gpu_gpu / base,
        });
    }
    out
}

/// Fig. 8: execution-time breakdown of the proposal on 1..max GPUs.
pub fn fig8(scale: Scale, seed: u64) -> Vec<Fig8Bar> {
    fig8_from(&run_matrix(scale, seed, false))
}

/// One Fig. 9 stacked bar: summed per-GPU peak memory normalised to the
/// 1-GPU usage.
#[derive(Debug)]
pub struct Fig9Bar {
    pub machine: String,
    pub app: String,
    pub ngpus: usize,
    pub user: f64,
    pub system: f64,
}

/// Fig. 9 from a computed matrix.
pub fn fig9_from(matrix: &[MatrixEntry]) -> Vec<Fig9Bar> {
    let mut out = Vec::new();
    for e in matrix {
        let Version::Proposal(n) = e.version else {
            continue;
        };
        let base = matrix
            .iter()
            .find(|b| {
                b.machine == e.machine && b.app == e.app && b.version == Version::Proposal(1)
            })
            .expect("1-GPU run present")
            .result
            .mem
            .iter()
            .map(|g| g.user_peak)
            .sum::<u64>()
            .max(1);
        let user: u64 = e.result.mem.iter().map(|g| g.user_peak).sum();
        let system: u64 = e.result.mem.iter().map(|g| g.system_peak).sum();
        out.push(Fig9Bar {
            machine: e.machine.label().to_string(),
            app: e.app.name().to_string(),
            ngpus: n,
            user: user as f64 / base as f64,
            system: system as f64 / base as f64,
        });
    }
    out
}

/// Fig. 9: device memory usage of the proposal on 1..max GPUs.
pub fn fig9(scale: Scale, seed: u64) -> Vec<Fig9Bar> {
    fig9_from(&run_matrix(scale, seed, false))
}

/// One chunk-size ablation point.
#[derive(Debug)]
pub struct ChunkPoint {
    pub workload: String,
    pub chunk_kb: usize,
    pub gpu_gpu_time: f64,
    pub total_time: f64,
    pub dirty_chunks_sent: u64,
    pub p2p_mb: f64,
}

/// Synthetic replica-sync workload with *clustered* writes: each GPU's
/// iterations scatter into a small window near its own block of a
/// replicated array. Small chunks ship only the written windows; large
/// chunks ship mostly-clean data — the case the two-level scheme's
/// chunking exists for.
const CLUSTERED_SRC: &str = "void clustered(int n, int *idx, int *flags) {\n\
#pragma acc data copyin(idx[0:n]) copy(flags[0:n])\n\
{\n\
#pragma acc localaccess(idx) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) flags[idx[i]] = flags[idx[i]] + 1;\n\
}\n\
}";

/// §IV-D1 ablation: sweep the second-level dirty-bit chunk size.
///
/// Two workloads with opposite write distributions:
/// * **bfs** (scattered) — frontier writes land everywhere, so nearly
///   every chunk is dirty and chunking cannot reduce the shipped bytes;
///   small chunks only add per-transfer overhead;
/// * **clustered** — writes are dense in small windows, so small chunks
///   cut the traffic dramatically.
///
/// The paper's 1 MB is the compromise between the two regimes.
pub fn ablation_chunk(scale: Scale, seed: u64) -> Vec<ChunkPoint> {
    let mut out = Vec::new();
    let sizes = [64usize, 256, 1024, 4096, 16384];

    // Scattered: BFS on the node with all three GPUs.
    let prog = acc_apps::runner::compile_app(App::Bfs, Version::Proposal(3)).unwrap();
    let input = acc_apps::bfs::generate(&bfs_config(scale), seed);
    for &kb in &sizes {
        let mut m = Machine::supercomputer_node();
        let ec = ExecConfig::gpus(3).chunk_bytes(kb * 1024);
        let (scalars, arrays) = acc_apps::bfs::inputs(&input);
        let r = run_program(&mut m, &ec, &prog, scalars, arrays).expect("run");
        out.push(ChunkPoint {
            workload: "bfs (scattered)".into(),
            chunk_kb: kb,
            gpu_gpu_time: r.profile.time.gpu_gpu,
            total_time: r.profile.time.parallel_region(),
            dirty_chunks_sent: r.trace.counters().dirty_chunks_sent,
            p2p_mb: r.trace.counters().p2p_bytes as f64 / 1e6,
        });
    }

    // Clustered: synthetic, 16 MB replicated array, writes confined to a
    // 64 KB window per GPU block.
    let n: usize = match scale {
        Scale::Small => 1 << 18,
        _ => 4 << 20,
    };
    // Each GPU's block of iterations scatters into one 16K-element window
    // at the start of its own third of the array: per GPU only ~64 KB of
    // the replicated array is ever dirty.
    let window = (16 * 1024usize).min(n / 4);
    let blk = n.div_ceil(3);
    let idx: Vec<i32> = (0..n)
        .map(|i| {
            let base = (i / blk) * blk;
            let off = (i as u64).wrapping_mul(2654435761) as usize % window;
            ((base + off) % n) as i32
        })
        .collect();
    let prog = acc_compiler::compile_source(CLUSTERED_SRC, "clustered", &CompileOptions::proposal())
        .unwrap();
    for &kb in &sizes {
        let mut m = Machine::supercomputer_node();
        let ec = ExecConfig::gpus(3).chunk_bytes(kb * 1024);
        let arrays = vec![
            acc_kernel_ir::Buffer::from_i32(&idx),
            acc_kernel_ir::Buffer::zeroed(acc_kernel_ir::Ty::I32, n),
        ];
        let r = run_program(
            &mut m,
            &ec,
            &prog,
            vec![acc_kernel_ir::Value::I32(n as i32)],
            arrays,
        )
        .expect("run");
        out.push(ChunkPoint {
            workload: "clustered".into(),
            chunk_kb: kb,
            gpu_gpu_time: r.profile.time.gpu_gpu,
            total_time: r.profile.time.parallel_region(),
            dirty_chunks_sent: r.trace.counters().dirty_chunks_sent,
            p2p_mb: r.trace.counters().p2p_bytes as f64 / 1e6,
        });
    }
    out
}

/// One layout-transform ablation point.
#[derive(Debug)]
pub struct LayoutPoint {
    pub app: String,
    pub transform: bool,
    pub kernels_time: f64,
    pub total_time: f64,
}

/// §IV-B4 ablation: the 2-D layout transform on/off, for the two apps
/// with strided `localaccess` reads.
pub fn ablation_layout(scale: Scale, seed: u64) -> Vec<LayoutPoint> {
    let mut out = Vec::new();
    for app in [App::Md, App::Kmeans] {
        for transform in [true, false] {
            let opts = CompileOptions {
                layout_transform: transform,
                ..CompileOptions::proposal()
            };
            let prog = acc_compiler::compile_source(app.source(), app.function(), &opts).unwrap();
            let mut m = Machine::desktop();
            let (scalars, arrays) = app_inputs(app, scale, seed);
            let r = run_program(&mut m, &ExecConfig::gpus(2), &prog, scalars, arrays).unwrap();
            out.push(LayoutPoint {
                app: app.name().to_string(),
                transform,
                kernels_time: r.profile.time.kernels,
                total_time: r.profile.time.parallel_region(),
            });
        }
    }
    out
}

/// One placement ablation point.
#[derive(Debug)]
pub struct PlacementPoint {
    pub app: String,
    pub distribution: bool,
    pub h2d_mb: f64,
    pub total_time: f64,
    pub user_mem_mb: f64,
}

/// §IV-C ablation: distribution-based placement (localaccess honored) vs
/// replica-everything, on 2 GPUs.
pub fn ablation_placement(scale: Scale, seed: u64) -> Vec<PlacementPoint> {
    let mut out = Vec::new();
    for &app in &App::ALL {
        for dist in [true, false] {
            let opts = CompileOptions {
                honor_extensions: dist,
                layout_transform: dist,
                instrument: true,
                infer_localaccess: false,
                infer_reductions: false,
            };
            let prog = acc_compiler::compile_source(app.source(), app.function(), &opts).unwrap();
            let mut m = Machine::desktop();
            let (scalars, arrays) = app_inputs(app, scale, seed);
            let r = run_program(&mut m, &ExecConfig::gpus(2), &prog, scalars, arrays).unwrap();
            out.push(PlacementPoint {
                app: app.name().to_string(),
                distribution: dist,
                h2d_mb: r.trace.counters().h2d_bytes as f64 / 1e6,
                total_time: r.profile.time.parallel_region(),
                user_mem_mb: r.mem.iter().map(|g| g.user_peak).sum::<u64>() as f64 / 1e6,
            });
        }
    }
    out
}

/// One loader-reuse ablation point.
#[derive(Debug)]
pub struct ReusePoint {
    pub app: String,
    pub reuse: bool,
    pub h2d_mb: f64,
    pub cpu_gpu_time: f64,
    pub total_time: f64,
}

/// §IV-C ablation: the loader's reload-skipping for iterative kernels,
/// on the two iterative apps (KMEANS relaunches 74 times, BFS ~10).
pub fn ablation_loader_reuse(scale: Scale, seed: u64) -> Vec<ReusePoint> {
    let mut out = Vec::new();
    for app in [App::Kmeans, App::Bfs] {
        for reuse in [true, false] {
            let prog = acc_apps::runner::compile_app(app, Version::Proposal(2)).unwrap();
            let mut m = Machine::desktop();
            let ec = ExecConfig::gpus(2).loader_reuse(reuse);
            let (scalars, arrays) = app_inputs(app, scale, seed);
            let r = run_program(&mut m, &ec, &prog, scalars, arrays).unwrap();
            out.push(ReusePoint {
                app: app.name().to_string(),
                reuse,
                h2d_mb: r.trace.counters().h2d_bytes as f64 / 1e6,
                cpu_gpu_time: r.profile.time.cpu_gpu,
                total_time: r.profile.time.parallel_region(),
            });
        }
    }
    out
}

/// One stencil-extension point (paper §VI future work).
#[derive(Debug)]
pub struct StencilPoint {
    pub machine: String,
    pub ngpus: usize,
    pub relative_perf_vs_1gpu: f64,
    pub kernels_time: f64,
    pub cpu_gpu_time: f64,
    pub gpu_gpu_time: f64,
    pub p2p_mb: f64,
    pub miss_checks: u64,
    pub correct: bool,
}

/// §VI extension experiment: the 2-D heat stencil run through the 1-D
/// `localaccess` row distribution. Demonstrates (a) that the system runs
/// stencils correctly on any GPU count via halo rows, and (b) the paper's
/// stated limitation — per-iteration halo refresh plus unelidable miss
/// checks keep multi-GPU gains modest.
pub fn extension_stencil(scale: Scale, seed: u64) -> Vec<StencilPoint> {
    use acc_apps::heat2d;
    let cfg = match scale {
        Scale::Small => heat2d::Heat2dConfig::small(),
        _ => heat2d::Heat2dConfig::scaled(),
    };
    let input = heat2d::generate(&cfg, seed);
    let expect = heat2d::reference(&input);
    let prog = acc_compiler::compile_source(
        heat2d::SOURCE,
        heat2d::FUNCTION,
        &CompileOptions::proposal(),
    )
    .unwrap();
    let mut out = Vec::new();
    for kind in [MachineKind::Desktop, MachineKind::SupercomputerNode] {
        let mut base = None;
        for n in 1..=kind.max_gpus() {
            let mut m = Machine::with_kind(kind);
            let (scalars, arrays) = heat2d::inputs(&input);
            let r = run_program(&mut m, &ExecConfig::gpus(n), &prog, scalars, arrays).unwrap();
            let t = r.profile.time.parallel_region();
            let base1 = *base.get_or_insert(t);
            let err =
                heat2d::max_error(&r.arrays[heat2d::PLATE_ARRAY].to_f64_vec(), &expect);
            out.push(StencilPoint {
                machine: kind.label().to_string(),
                ngpus: n,
                relative_perf_vs_1gpu: base1 / t,
                kernels_time: r.profile.time.kernels,
                cpu_gpu_time: r.profile.time.cpu_gpu,
                gpu_gpu_time: r.profile.time.gpu_gpu,
                p2p_mb: r.trace.counters().p2p_bytes as f64 / 1e6,
                miss_checks: r.profile.kernel_counters.miss_checks,
                correct: err < heat2d::TOLERANCE,
            });
        }
    }
    out
}

/// One point of the `bench` target's `points` section: an app on N GPUs
/// of the supercomputer node. Every field is simulated, so one run per
/// point pins it (host wall clock is perfbench's job, not this one).
#[derive(Debug, Clone)]
pub struct RuntimePoint {
    pub app: String,
    pub ngpus: usize,
    /// Simulated parallel-region time, seconds.
    pub sim_s: f64,
    /// Simulated GPU-GPU communication-phase time, seconds (a component
    /// of `sim_s`). Recorded separately so comm-phase optimisations —
    /// elision, inferred distribution — are visible per point.
    pub comm_sim_s: f64,
    pub correct: bool,
}

/// Run every app × GPU count (1–3) on the supercomputer node once. The
/// `heat2d-halo2` points double as the wavefront rows: the runner
/// executes that app under `Schedule::Wavefront`, so its multi-GPU
/// `sim_s`/`comm_sim_s` values pin the pipelined schedule's pricing.
pub fn bench_runtime(scale: Scale, seed: u64, progress: bool) -> Vec<RuntimePoint> {
    let mut out = Vec::new();
    for &app in &App::ALL {
        for ngpus in 1..=3 {
            if progress {
                eprintln!("  bench: {} x{}", app.name(), ngpus);
            }
            let mut m = Machine::supercomputer_node();
            let r = acc_apps::run_app(app, Version::Proposal(ngpus), &mut m, scale, seed)
                .expect("app run");
            out.push(RuntimePoint {
                app: app.name().to_string(),
                ngpus,
                sim_s: r.profile.time.parallel_region(),
                comm_sim_s: r.profile.time.gpu_gpu,
                correct: r.correct,
            });
        }
    }
    // The skewed power-law BFS rides along as two extra points at the
    // full GPU count — the equal static division vs the cost-model
    // mapper on the same input. It is not part of `App::ALL` (that list
    // reproduces the paper's Table II); these rows exist so the
    // artifact records the mapper's simulated-time margin, and CI's
    // bench-diff notices if the win erodes.
    let cfg = bfs_skew_config(scale);
    let input = acc_apps::bfs_skew::generate(&cfg, seed);
    let expect = acc_apps::bfs_skew::reference(&input);
    let prog = acc_compiler::compile_source(
        acc_apps::bfs_skew::SOURCE,
        acc_apps::bfs_skew::FUNCTION,
        &CompileOptions::proposal(),
    )
    .expect("bfs_skew compiles");
    for (label, sched) in [
        ("bfs-skew", Schedule::Equal),
        ("bfs-skew-cm", Schedule::CostModel),
    ] {
        if progress {
            eprintln!("  bench: {label} x3");
        }
        let mut m = Machine::supercomputer_node();
        let (scalars, arrays) = acc_apps::bfs_skew::inputs(&input);
        let cfg = ExecConfig::gpus(3).schedule(sched);
        let r = run_program(&mut m, &cfg, &prog, scalars, arrays).expect("bfs_skew run");
        out.push(RuntimePoint {
            app: label.to_string(),
            ngpus: 3,
            sim_s: r.profile.time.parallel_region(),
            comm_sim_s: r.profile.time.gpu_gpu,
            correct: r.arrays[acc_apps::bfs_skew::LEVELS_ARRAY].to_i32_vec() == expect,
        });
    }
    out
}

/// The skewed-BFS input behind the `bfs-skew` bench rows.
pub fn bfs_skew_config(scale: Scale) -> acc_apps::bfs_skew::BfsSkewConfig {
    match scale {
        Scale::Small => acc_apps::bfs_skew::BfsSkewConfig::stress(),
        _ => acc_apps::bfs_skew::BfsSkewConfig::scaled(),
    }
}

/// Generate inputs for an app at a scale (shared by the ablations).
pub fn app_inputs(
    app: App,
    scale: Scale,
    seed: u64,
) -> (Vec<acc_kernel_ir::Value>, Vec<acc_kernel_ir::Buffer>) {
    match app {
        App::Md => acc_apps::md::inputs(&acc_apps::md::generate(&md_config(scale), seed)),
        App::Kmeans => {
            acc_apps::kmeans::inputs(&acc_apps::kmeans::generate(&kmeans_config(scale), seed))
        }
        App::Bfs => acc_apps::bfs::inputs(&acc_apps::bfs::generate(&bfs_config(scale), seed)),
        App::Spmv => acc_apps::spmv::inputs(&acc_apps::spmv::generate(&spmv_config(scale), seed)),
        App::Heat2d => {
            acc_apps::heat2d::inputs(&acc_apps::heat2d::generate(&heat2d_config(scale), seed))
        }
        App::Pagerank => acc_apps::pagerank::inputs(&acc_apps::pagerank::generate(
            &pagerank_config(scale),
            seed,
        )),
        App::Heat2dHalo2 => acc_apps::heat2d_halo2::inputs(&acc_apps::heat2d_halo2::generate(
            &heat2d_halo2_config(scale),
            seed,
        )),
    }
}

/// Drop every hand-written `localaccess` pragma line from a source.
/// Shared by the golden inference tests and [`bench_comm`], which both
/// need the "programmer forgot to annotate" variant of an app.
pub fn strip_localaccess(src: &str) -> String {
    src.lines()
        .filter(|l| !l.contains("#pragma acc localaccess"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One comm-phase measurement of the `bench` target's
/// `comm_experiments` section: an app × compile/run mode, always at the
/// full GPU count.
#[derive(Debug, Clone)]
pub struct CommPoint {
    pub app: String,
    /// `annotated` (hand pragmas, the baseline), `stripped` (pragmas
    /// removed → replica placement everywhere), `stripped-elide`
    /// (stripped + runtime comm elision), `inferred` (stripped +
    /// whole-program `localaccess` inference).
    pub mode: String,
    pub ngpus: usize,
    /// Simulated GPU-GPU communication-phase seconds.
    pub comm_sim_s: f64,
    pub p2p_bytes: u64,
    /// Replica syncs the runtime skipped on static facts.
    pub comm_elisions: u64,
    /// Final arrays bit-identical to the annotated baseline run. This
    /// is a strict all-arrays comparison: scratch arrays (e.g. the
    /// heat2d ping-pong buffer) can legitimately hold different
    /// copy-out content across placements even when every output array
    /// is bit-exact, so `false` here is only meaningful per mode — the
    /// guarded invariant is that it never regresses from `true`.
    pub matches_annotated: bool,
}

/// Measure the communication phase across the annotation/inference/
/// elision modes for the comm-heavy apps. This is the artifact section
/// behind the claim that inference and static elision reduce the comm
/// phase: `stripped` is what a lazy port costs, `inferred` recovers the
/// hand-annotated distribution, and `stripped-elide` shows what the
/// runtime can still skip when distribution is impossible.
pub fn bench_comm(scale: Scale, seed: u64, progress: bool) -> Vec<CommPoint> {
    let ngpus = 3;
    let infer_opts = CompileOptions {
        infer_localaccess: true,
        ..CompileOptions::proposal()
    };
    let mut out = Vec::new();
    for &app in &[App::Heat2d, App::Spmv, App::Kmeans] {
        let stripped_src = strip_localaccess(app.source());
        let annotated =
            acc_compiler::compile_source(app.source(), app.function(), &CompileOptions::proposal())
                .expect("annotated source compiles");
        let stripped =
            acc_compiler::compile_source(&stripped_src, app.function(), &CompileOptions::proposal())
                .expect("stripped source compiles");
        let inferred = acc_compiler::compile_source(&stripped_src, app.function(), &infer_opts)
            .expect("stripped source compiles under inference");
        let base = ExecConfig::gpus(ngpus);
        let runs = [
            ("annotated", &annotated, base.clone()),
            ("stripped", &stripped, base.clone()),
            ("stripped-elide", &stripped, base.clone().comm_elision(true)),
            ("inferred", &inferred, base),
        ];
        let mut baseline_arrays = None;
        for (mode, prog, cfg) in runs {
            if progress {
                eprintln!("  bench: comm {} {} x{}", app.name(), mode, ngpus);
            }
            let (scalars, arrays) = app_inputs(app, scale, seed);
            let mut m = Machine::supercomputer_node();
            let r = run_program(&mut m, &cfg, prog, scalars, arrays).expect("comm bench run");
            let matches_annotated = match &baseline_arrays {
                None => {
                    baseline_arrays = Some(r.arrays.clone());
                    true
                }
                Some(b) => *b == r.arrays,
            };
            out.push(CommPoint {
                app: app.name().to_string(),
                mode: mode.to_string(),
                ngpus,
                comm_sim_s: r.profile.time.gpu_gpu,
                p2p_bytes: r.trace.counters().p2p_bytes,
                comm_elisions: r.trace.counters().comm_elisions,
                matches_annotated,
            });
        }
    }
    out
}

/// One simulated-time measurement of the `bench` target's `scaling`
/// section: a halo/reduction-heavy app at a GPU count well past one
/// PCIe bus, on one interconnect model. The section is the artifact
/// behind the claim that the hierarchical topology (island
/// links + per-node roots + inter-node fabric), the topology-aware
/// reduction tree and the double-buffered halo overlap reduce
/// communication cost at 8/16/64 GPUs — `bench-diff` pins every value.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    pub app: String,
    pub ngpus: usize,
    /// `flat` = the seed's single-root PCIe model
    /// (`Machine::supercomputer_node_with_gpus`); `cluster` = 8-GPU
    /// islands, 16-GPU nodes, inter-node fabric (`Machine::cluster`).
    pub topo: String,
    /// Double-buffered halo overlap armed (`ExecConfig::overlap`).
    pub overlap: bool,
    /// Simulated parallel-region seconds.
    pub sim_s: f64,
    /// Simulated GPU-GPU communication-phase seconds (a component of
    /// `sim_s`; reduction merges and replica syncs).
    pub comm_sim_s: f64,
    /// Simulated loader (CPU-GPU) phase seconds (a component of
    /// `sim_s`; halo fills land here, so this is what overlap shrinks).
    pub cpu_gpu_s: f64,
    /// Loader seconds hidden behind the kernel phase by overlap
    /// windows (from the `overlap_hidden_ns` counter).
    pub overlap_hidden_s: f64,
    pub p2p_mb: f64,
    pub correct: bool,
}

/// The scaling section's workload configs. At 64-way row distribution
/// the plain `small` inputs are too thin (48 heat2d rows, a 400-node
/// graph), so `Scale::Small` gets dedicated minimum sizes that still
/// run in well under a second; larger scales reuse the shared configs.
pub fn scaling_heat2d_config(scale: Scale) -> acc_apps::heat2d::Heat2dConfig {
    match scale {
        Scale::Small => acc_apps::heat2d::Heat2dConfig { rows: 256, cols: 64, iters: 3 },
        _ => heat2d_config(scale),
    }
}

/// See [`scaling_heat2d_config`].
pub fn scaling_pagerank_config(scale: Scale) -> acc_apps::pagerank::PagerankConfig {
    match scale {
        Scale::Small => acc_apps::pagerank::PagerankConfig {
            n: 4096,
            min_degree: 2,
            max_degree: 40,
            iters: 5,
        },
        _ => pagerank_config(scale),
    }
}

/// Measure simulated communication cost for the scaling apps at 8, 16
/// and 64 GPUs on the flat bus, the cluster topology, and the cluster
/// topology with halo overlap armed. Simulated time is deterministic,
/// so one run per point suffices (no reps).
pub fn bench_scaling(scale: Scale, seed: u64, progress: bool) -> Vec<ScalingPoint> {
    use acc_apps::{heat2d, pagerank};
    const GPU_COUNTS: [usize; 3] = [8, 16, 64];
    const MODES: [(&str, bool); 3] = [("flat", false), ("cluster", false), ("cluster", true)];

    let heat_in = heat2d::generate(&scaling_heat2d_config(scale), seed);
    let heat_ref = heat2d::reference(&heat_in);
    let heat_prog = acc_compiler::compile_source(
        heat2d::SOURCE,
        heat2d::FUNCTION,
        &CompileOptions::proposal(),
    )
    .expect("heat2d compiles");
    let pr_in = pagerank::generate(&scaling_pagerank_config(scale), seed);
    let pr_ref = pagerank::reference(&pr_in);
    let pr_prog = acc_compiler::compile_source(
        pagerank::SOURCE,
        pagerank::FUNCTION,
        &CompileOptions::proposal(),
    )
    .expect("pagerank compiles");

    let mut out = Vec::new();
    for app in ["heat2d", "pagerank"] {
        for &ngpus in &GPU_COUNTS {
            for (topo, overlap) in MODES {
                if progress {
                    eprintln!(
                        "  bench: scaling {app} x{ngpus} {topo}{}",
                        if overlap { "+overlap" } else { "" }
                    );
                }
                let mut m = match topo {
                    "cluster" => Machine::cluster(ngpus),
                    _ => Machine::supercomputer_node_with_gpus(ngpus),
                };
                let cfg = ExecConfig::gpus(ngpus).overlap(overlap);
                let (prog, scalars, arrays) = if app == "heat2d" {
                    let (s, a) = heat2d::inputs(&heat_in);
                    (&heat_prog, s, a)
                } else {
                    let (s, a) = pagerank::inputs(&pr_in);
                    (&pr_prog, s, a)
                };
                let r = run_program(&mut m, &cfg, prog, scalars, arrays)
                    .expect("scaling bench run");
                // Same oracle bounds as `acc_apps::run_app`: heat2d's halo
                // copies are exact; the hierarchical reduction tree
                // reassociates the pagerank merges, which rounding bounds.
                let correct = if app == "heat2d" {
                    heat2d::max_error(&r.arrays[heat2d::PLATE_ARRAY].to_f64_vec(), &heat_ref)
                        < heat2d::TOLERANCE
                } else {
                    pagerank::max_error(&r.arrays[pagerank::RANK_ARRAY].to_f64_vec(), &pr_ref)
                        < pagerank::TOLERANCE
                };
                out.push(ScalingPoint {
                    app: app.to_string(),
                    ngpus,
                    topo: topo.to_string(),
                    overlap,
                    sim_s: r.profile.time.parallel_region(),
                    comm_sim_s: r.profile.time.gpu_gpu,
                    cpu_gpu_s: r.profile.time.cpu_gpu,
                    overlap_hidden_s: r.trace.counters().overlap_hidden_ns as f64 / 1e9,
                    p2p_mb: r.trace.counters().p2p_bytes as f64 / 1e6,
                    correct,
                });
            }
        }
    }
    out
}

/// The `--scale` spelling of a scale, as recorded in artifacts.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Scaled => "scaled",
        Scale::Paper => "paper",
    }
}

/// The `BENCH_runtime.json` document: the [`bench_runtime`],
/// [`bench_comm`] and [`bench_scaling`] results at one scale and seed.
/// Every value is simulated, so [`bench_diff`] compares it exactly.
pub fn bench_json(
    scale: Scale,
    seed: u64,
    points: &[RuntimePoint],
    comm: &[CommPoint],
    scaling: &[ScalingPoint],
) -> Value {
    let points = points.iter().map(|p| {
        Value::obj([
            ("app", Value::str(&p.app)),
            ("ngpus", Value::num(p.ngpus as f64)),
            ("sim_s", Value::num(p.sim_s)),
            ("comm_sim_s", Value::num(p.comm_sim_s)),
            ("correct", Value::Bool(p.correct)),
        ])
    });
    let comm = comm.iter().map(|c| {
        Value::obj([
            ("app", Value::str(&c.app)),
            ("mode", Value::str(&c.mode)),
            ("ngpus", Value::num(c.ngpus as f64)),
            ("comm_sim_s", Value::num(c.comm_sim_s)),
            ("p2p_bytes", Value::num(c.p2p_bytes as f64)),
            ("comm_elisions", Value::num(c.comm_elisions as f64)),
            ("matches_annotated", Value::Bool(c.matches_annotated)),
        ])
    });
    let scaling = scaling.iter().map(|s| {
        Value::obj([
            ("app", Value::str(&s.app)),
            ("ngpus", Value::num(s.ngpus as f64)),
            ("topo", Value::str(&s.topo)),
            ("overlap", Value::Bool(s.overlap)),
            ("sim_s", Value::num(s.sim_s)),
            ("comm_sim_s", Value::num(s.comm_sim_s)),
            ("cpu_gpu_s", Value::num(s.cpu_gpu_s)),
            ("overlap_hidden_s", Value::num(s.overlap_hidden_s)),
            ("p2p_mb", Value::num(s.p2p_mb)),
            ("correct", Value::Bool(s.correct)),
        ])
    });
    Value::obj([
        ("scale", Value::str(scale_name(scale))),
        ("seed", Value::num(seed as f64)),
        ("points", Value::Arr(points.collect())),
        ("comm_experiments", Value::Arr(comm.collect())),
        ("scaling", Value::Arr(scaling.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_both_machines() {
        let t = table1();
        assert_eq!(t.len(), 2);
        assert!(t[0].machine.contains("Desktop"));
        assert_eq!(t[1].gpus, "Tesla M2050 x3");
    }

    #[test]
    fn versions_per_machine() {
        assert_eq!(versions_for(MachineKind::Desktop).len(), 5);
        assert_eq!(versions_for(MachineKind::SupercomputerNode).len(), 6);
    }

    #[test]
    fn figure_extractors_normalise_correctly() {
        // Build a 3-entry matrix by hand (OpenMP + proposal on 1/2 GPUs
        // for one app) and check the normalisations.
        let mk = |v: Version| {
            let mut m = Machine::desktop();
            MatrixEntry {
                machine: MachineKind::Desktop,
                app: App::Md,
                version: v,
                result: acc_apps::run_app(App::Md, v, &mut m, Scale::Small, 3).unwrap(),
            }
        };
        let matrix = vec![mk(Version::OpenMP), mk(Version::Proposal(1)), mk(Version::Proposal(2))];
        let f7 = fig7_from(&matrix);
        assert_eq!(f7.len(), 3);
        assert!((f7[0].relative_perf - 1.0).abs() < 1e-12, "OpenMP bar is 1.0");
        let f8 = fig8_from(&matrix);
        assert_eq!(f8.len(), 2); // proposal entries only
        let one_gpu = &f8[0];
        assert!((one_gpu.kernels + one_gpu.cpu_gpu + one_gpu.gpu_gpu - 1.0).abs() < 1e-9);
        let f9 = fig9_from(&matrix);
        assert_eq!(f9.len(), 2);
        assert!((f9[0].user - 1.0).abs() < 1e-12, "1-GPU user bar is the base");
        assert_eq!(f9[0].system, 0.0, "single GPU has no system memory");
    }

    #[test]
    fn table2_small_scale_runs() {
        let rows = table2(Scale::Small);
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.correct));
        assert_eq!(rows[0].parallel_loops, 1); // MD
        assert_eq!(rows[1].parallel_loops, 2); // KMEANS
        assert_eq!(rows[2].parallel_loops, 1); // BFS
        assert_eq!(rows[3].parallel_loops, 1); // SPMV
        assert_eq!(rows[4].parallel_loops, 2); // HEAT2D
        assert_eq!(rows[5].parallel_loops, 4); // PAGERANK
        assert_eq!(rows[6].parallel_loops, 1); // HEAT2D-HALO2
        assert_eq!(rows[0].localaccess, "2/3");
        assert_eq!(rows[1].localaccess, "2/5");
        assert_eq!(rows[2].localaccess, "2/3");
        assert_eq!(rows[3].localaccess, "2/5");
        assert_eq!(rows[4].localaccess, "2/2");
        assert_eq!(rows[5].localaccess, "6/6");
        assert_eq!(rows[6].localaccess, "1/1");
    }
}
