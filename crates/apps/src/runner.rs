//! Run one benchmark application in one of the paper's program versions
//! and verify the result against the pure-Rust oracle.
//!
//! §V-A defines four versions:
//!
//! * **OpenMP** — the baseline all Fig. 7 numbers are normalised to;
//! * **PGI OpenACC** — a commercial single-GPU OpenACC compiler: the
//!   extension directives are parsed but ignored;
//! * **CUDA** — hand-written single-GPU code: no translator-added
//!   instrumentation at all;
//! * **Proposal** — the paper's system on 1, 2 or 3 GPUs.

use std::sync::{Arc, OnceLock};

use acc_compiler::{CompileOptions, CompiledProgram};
use acc_gpusim::{Machine, MachineKind};
use acc_runtime::{
    CompiledKernel, Engine, ExecConfig, GpuMemReport, Profiler, RunError, RunReport, Schedule,
    Trace,
};

use crate::{bfs, heat2d, heat2d_halo2, kmeans, md, pagerank, spmv};

/// Which benchmark application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Md,
    Kmeans,
    Bfs,
    /// CSR sparse matrix × vector — quantifies the §VI replication
    /// limitation. Not in the paper's Table II.
    Spmv,
    /// 2-D Jacobi stencil — the §VI "future work" case; its writes are
    /// elided by the interval prover. Not in the paper's Table II.
    Heat2d,
    /// PageRank over a power-law digraph — the indirect-push workload
    /// whose race freedom rests on the dependence analysis's
    /// monotone-window proof. Not in the paper's Table II.
    Pagerank,
    /// In-place deep stencil with a distance-2 carried dependence: the
    /// distance/direction-vector analysis proves the dependence local to
    /// the declared halo (`ACC-I003`) and the harness runs it under the
    /// wavefront schedule. Not in the paper's Table II.
    Heat2dHalo2,
}

impl App {
    /// The paper's three applications first, then the extension
    /// workloads (SPMV, HEAT2D, PAGERANK, HEAT2D-HALO2).
    pub const ALL: [App; 7] = [
        App::Md,
        App::Kmeans,
        App::Bfs,
        App::Spmv,
        App::Heat2d,
        App::Pagerank,
        App::Heat2dHalo2,
    ];

    /// The subset published in the paper's Table II / figures.
    pub const PAPER: [App; 3] = [App::Md, App::Kmeans, App::Bfs];

    /// Display name as used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            App::Md => "md",
            App::Kmeans => "kmeans",
            App::Bfs => "bfs",
            App::Spmv => "spmv",
            App::Heat2d => "heat2d",
            App::Pagerank => "pagerank",
            App::Heat2dHalo2 => "heat2d-halo2",
        }
    }

    /// The OpenACC source.
    pub fn source(self) -> &'static str {
        match self {
            App::Md => md::SOURCE,
            App::Kmeans => kmeans::SOURCE,
            App::Bfs => bfs::SOURCE,
            App::Spmv => spmv::SOURCE,
            App::Heat2d => heat2d::SOURCE,
            App::Pagerank => pagerank::SOURCE,
            App::Heat2dHalo2 => heat2d_halo2::SOURCE,
        }
    }

    /// The entry function.
    pub fn function(self) -> &'static str {
        match self {
            App::Md => md::FUNCTION,
            App::Kmeans => kmeans::FUNCTION,
            App::Bfs => bfs::FUNCTION,
            App::Spmv => spmv::FUNCTION,
            App::Heat2d => heat2d::FUNCTION,
            App::Pagerank => pagerank::FUNCTION,
            App::Heat2dHalo2 => heat2d_halo2::FUNCTION,
        }
    }
}

/// Which program version (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// gcc-compiled OpenMP on all hardware threads.
    OpenMP,
    /// Commercial OpenACC compiler, single GPU, extensions ignored.
    PgiAcc,
    /// Hand-written CUDA, single GPU.
    Cuda,
    /// The proposed system on `n` GPUs.
    Proposal(usize),
}

impl Version {
    /// Label used in the figures, e.g. `Proposal(2GPU)`.
    pub fn label(self) -> String {
        match self {
            Version::OpenMP => "OpenMP".into(),
            Version::PgiAcc => "PGI-ACC(1GPU)".into(),
            Version::Cuda => "CUDA(1GPU)".into(),
            Version::Proposal(n) => format!("Proposal({n}GPU)"),
        }
    }

    /// Compiler options for this version.
    pub fn compile_options(self) -> CompileOptions {
        match self {
            Version::OpenMP | Version::PgiAcc => CompileOptions::pgi_like(),
            Version::Cuda => CompileOptions::cuda_expert(),
            Version::Proposal(_) => CompileOptions::proposal(),
        }
    }

    /// Runtime configuration for this version.
    pub fn exec_config(self) -> ExecConfig {
        match self {
            Version::OpenMP => ExecConfig::openmp(),
            Version::PgiAcc | Version::Cuda => ExecConfig::gpus(1),
            Version::Proposal(n) => ExecConfig::gpus(n),
        }
    }

    /// Number of GPUs this version uses.
    pub fn ngpus(self) -> usize {
        match self {
            Version::OpenMP => 0,
            Version::PgiAcc | Version::Cuda => 1,
            Version::Proposal(n) => n,
        }
    }
}

/// Workload scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale inputs for tests.
    Small,
    /// Structure-preserving reduction of the paper inputs (default for
    /// the figure harness).
    Scaled,
    /// The paper's published input sizes.
    Paper,
}

/// Outcome of one application run.
#[derive(Debug)]
pub struct AppResult {
    pub app: App,
    pub version: Version,
    /// The run's phase split (Fig. 7 normalises on
    /// `profile.time.parallel_region()`, Fig. 8 splits it) and host-side
    /// facts such as `comm_wall_s`.
    pub profile: Profiler,
    /// Per-GPU peak memory (Fig. 9).
    pub mem: Vec<GpuMemReport>,
    /// `(localaccess arrays, arrays in parallel loops)` (Table II col. D).
    pub localaccess_ratio: (usize, usize),
    /// Oracle check.
    pub correct: bool,
    /// Maximum absolute error vs the oracle (0 for exact matches).
    pub max_err: f64,
    /// Event trace of the run: its counters (kernel executions for
    /// Table II column C, transfer volumes) at every level; its events
    /// only when the [`ExecConfig`] asked for `TraceLevel::Summary`/
    /// `Spans` — `acc-serve` uses this to stream a Chrome trace back per
    /// job.
    pub trace: Trace,
}

/// Typed error surface for the application harness: either the compiler
/// rejected the source or the runtime rejected/failed the run. Both
/// carry a stable `ACC-XNNN` code ([`AppError::code`]) so bin targets
/// print machine-matchable diagnostics instead of ad-hoc strings.
#[derive(Debug)]
pub enum AppError {
    /// Source-to-IR compilation failed.
    Compile(String),
    /// The runtime rejected or failed the run.
    Run(RunError),
}

impl AppError {
    /// Stable diagnostic code (the `ACC-RNNN` family).
    pub fn code(&self) -> &'static str {
        match self {
            AppError::Compile(_) => "ACC-R010",
            AppError::Run(e) => e.code(),
        }
    }
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Compile(m) => write!(f, "compile error: {m}"),
            AppError::Run(e) => e.fmt(f),
        }
    }
}
impl std::error::Error for AppError {}

impl From<RunError> for AppError {
    fn from(e: RunError) -> AppError {
        match e {
            RunError::Compile(m) => AppError::Compile(m),
            other => AppError::Run(other),
        }
    }
}

/// The process-wide [`Engine`] behind the harness: every
/// [`compile_app`] across every test/bench/CLI invocation in the
/// process shares one compilation cache and one scratch-pool set, so a
/// matrix of runs compiles each (app, version) pair exactly once.
pub fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    // The kind only matters for `Engine::launch`; the harness always
    // supplies its own machine via `launch_on`, and the node preset
    // covers every GPU count the versions use.
    ENGINE.get_or_init(|| Engine::new(MachineKind::SupercomputerNode, ExecConfig::gpus(1)))
}

/// Compile an application for a version (cached: repeat calls return
/// the same [`CompiledKernel`]).
pub fn compile_app(app: App, version: Version) -> Result<Arc<CompiledKernel>, AppError> {
    compile_app_on(engine(), app, version)
}

/// [`compile_app`] against an explicit [`Engine`] instead of the
/// process-wide one — `acc-serve` gives each server its own engine so
/// cache statistics are per-daemon.
pub fn compile_app_on(
    engine: &Engine,
    app: App,
    version: Version,
) -> Result<Arc<CompiledKernel>, AppError> {
    Ok(engine.compile(app.source(), app.function(), &version.compile_options())?)
}

/// Run one application/version on a machine at a workload scale.
pub fn run_app(
    app: App,
    version: Version,
    machine: &mut Machine,
    scale: Scale,
    seed: u64,
) -> Result<AppResult, AppError> {
    run_app_with_config(app, version, machine, scale, seed, &version.exec_config())
}

/// [`run_app`] with an explicit runtime configuration instead of the
/// version's default — the `acc-lint --audit` path layers
/// `SanitizeLevel` on top of a normal multi-GPU configuration this way.
pub fn run_app_with_config(
    app: App,
    version: Version,
    machine: &mut Machine,
    scale: Scale,
    seed: u64,
    cfg: &ExecConfig,
) -> Result<AppResult, AppError> {
    run_app_with_engine(engine(), app, version, machine, scale, seed, cfg)
}

/// [`run_app_with_config`] against an explicit [`Engine`].
pub fn run_app_with_engine(
    engine: &Engine,
    app: App,
    version: Version,
    machine: &mut Machine,
    scale: Scale,
    seed: u64,
    cfg: &ExecConfig,
) -> Result<AppResult, AppError> {
    let prog = compile_app_on(engine, app, version)?;
    run_app_compiled(engine, &prog, app, version, machine, scale, seed, cfg)
}

/// Run an already-compiled application: the generate → launch → oracle
/// pipeline behind [`run_app`]. Callers that need the per-job cache-hit
/// flag (acc-serve) compile through [`Engine::compile_entry`] first and
/// hand the kernel in here.
#[allow(clippy::too_many_arguments)]
pub fn run_app_compiled(
    engine: &Engine,
    prog: &Arc<CompiledKernel>,
    app: App,
    version: Version,
    machine: &mut Machine,
    scale: Scale,
    seed: u64,
    cfg: &ExecConfig,
) -> Result<AppResult, AppError> {
    let run = |machine: &mut Machine, scalars, arrays| -> Result<RunReport, AppError> {
        Ok(engine.launch_on(prog, machine, cfg, scalars, arrays)?)
    };
    let (report, correct, max_err) = match app {
        App::Md => {
            let wcfg = match scale {
                Scale::Small => md::MdConfig::small(),
                Scale::Scaled => md::MdConfig {
                    nx: 24,
                    ny: 24,
                    nz: 16,
                    ..md::MdConfig::paper()
                },
                Scale::Paper => md::MdConfig::paper(),
            };
            let input = md::generate(&wcfg, seed);
            let (scalars, arrays) = md::inputs(&input);
            let report =
                run(machine, scalars, arrays)?;
            let expect = md::reference(&input);
            let got = report.arrays[md::FORCE_ARRAY].to_f64_vec();
            let err = md::max_error(&got, &expect);
            let ok = err < 1e-9;
            (report, ok, err)
        }
        App::Kmeans => {
            let wcfg = match scale {
                Scale::Small => kmeans::KmeansConfig::small(),
                Scale::Scaled => kmeans::KmeansConfig {
                    npoints: 24_700,
                    ..kmeans::KmeansConfig::paper()
                },
                Scale::Paper => kmeans::KmeansConfig::paper(),
            };
            let input = kmeans::generate(&wcfg, seed);
            let (scalars, arrays) = kmeans::inputs(&input);
            let report =
                run(machine, scalars, arrays)?;
            let expect = kmeans::reference(&input);
            let got_mem = report.arrays[kmeans::MEMBERSHIP_ARRAY].to_i32_vec();
            let got_clu = report.arrays[kmeans::CLUSTERS_ARRAY].to_f32_vec();
            // Multi-GPU float accumulation reorders sums: allow a small
            // relative tolerance on centroids and a tiny fraction of
            // boundary points flipping cluster.
            let clu_err = got_clu
                .iter()
                .zip(&expect.clusters)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max);
            let mismatches = got_mem
                .iter()
                .zip(&expect.membership)
                .filter(|(a, b)| a != b)
                .count();
            let ok = clu_err < 1e-2 && (mismatches as f64) < 0.001 * got_mem.len() as f64;
            (report, ok, clu_err)
        }
        App::Bfs => {
            let wcfg = match scale {
                Scale::Small => bfs::BfsConfig::small(),
                Scale::Scaled => bfs::BfsConfig::scaled(),
                Scale::Paper => bfs::BfsConfig::paper(),
            };
            let input = bfs::generate(&wcfg, seed);
            let (scalars, arrays) = bfs::inputs(&input);
            let report =
                run(machine, scalars, arrays)?;
            let expect = bfs::reference(&input);
            let got = report.arrays[bfs::LEVELS_ARRAY].to_i32_vec();
            let ok = got == expect;
            (report, ok, if ok { 0.0 } else { 1.0 })
        }
        App::Spmv => {
            let wcfg = match scale {
                Scale::Small => spmv::SpmvConfig::small(),
                Scale::Scaled | Scale::Paper => spmv::SpmvConfig::scaled(),
            };
            let input = spmv::generate(&wcfg, seed);
            let (scalars, arrays) = spmv::inputs(&input);
            let report =
                run(machine, scalars, arrays)?;
            let expect = spmv::reference(&input);
            let got = report.arrays[spmv::Y_ARRAY].to_f64_vec();
            // Each row's sum is computed by one thread in program order on
            // any GPU count, so the result is bit-for-bit deterministic.
            let err = got
                .iter()
                .zip(&expect)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            let ok = err < 1e-12;
            (report, ok, err)
        }
        App::Heat2d => {
            let wcfg = match scale {
                Scale::Small => heat2d::Heat2dConfig::small(),
                Scale::Scaled | Scale::Paper => heat2d::Heat2dConfig::scaled(),
            };
            let input = heat2d::generate(&wcfg, seed);
            let (scalars, arrays) = heat2d::inputs(&input);
            let report =
                run(machine, scalars, arrays)?;
            let expect = heat2d::reference(&input);
            let err = heat2d::max_error(
                &report.arrays[heat2d::PLATE_ARRAY].to_f64_vec(),
                &expect,
            );
            let ok = err < heat2d::TOLERANCE;
            (report, ok, err)
        }
        App::Pagerank => {
            let wcfg = match scale {
                Scale::Small => pagerank::PagerankConfig::small(),
                Scale::Scaled | Scale::Paper => pagerank::PagerankConfig::scaled(),
            };
            let input = pagerank::generate(&wcfg, seed);
            let (scalars, arrays) = pagerank::inputs(&input);
            let report =
                run(machine, scalars, arrays)?;
            let expect = pagerank::reference(&input);
            let err = pagerank::max_error(
                &report.arrays[pagerank::RANK_ARRAY].to_f64_vec(),
                &expect,
            );
            let ok = err < pagerank::TOLERANCE;
            (report, ok, err)
        }
        App::Heat2dHalo2 => {
            let wcfg = match scale {
                Scale::Small => heat2d_halo2::Halo2Config::small(),
                Scale::Scaled | Scale::Paper => heat2d_halo2::Halo2Config::scaled(),
            };
            let input = heat2d_halo2::generate(&wcfg, seed);
            let (scalars, arrays) = heat2d_halo2::inputs(&input);
            // The carried dependence is only halo-local: an equal-partition
            // launch on 2+ GPUs would read stale left halos, so the harness
            // auto-selects the wavefront schedule the ACC-I003 verdict
            // licenses (an explicit non-default schedule is respected).
            let ecfg = if cfg.schedule == Schedule::Equal {
                cfg.clone().schedule(Schedule::Wavefront)
            } else {
                cfg.clone()
            };
            let report = engine.launch_on(prog, machine, &ecfg, scalars, arrays)?;
            let expect = heat2d_halo2::reference(&input);
            let err = heat2d_halo2::max_error(
                &report.arrays[heat2d_halo2::PLATE_ARRAY].to_f64_vec(),
                &expect,
            );
            // The wavefront reproduces the sequential sweep exactly.
            let ok = err == 0.0;
            (report, ok, err)
        }
    };
    Ok(result_from(app, version, prog, report, correct, max_err))
}

fn result_from(
    app: App,
    version: Version,
    prog: &CompiledProgram,
    report: RunReport,
    correct: bool,
    max_err: f64,
) -> AppResult {
    AppResult {
        app,
        version,
        profile: report.profile,
        mem: report.mem,
        localaccess_ratio: prog.localaccess_ratio(),
        correct,
        max_err,
        trace: report.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desktop() -> Machine {
        Machine::desktop()
    }
    fn node() -> Machine {
        Machine::supercomputer_node()
    }

    #[test]
    fn md_all_versions_correct_small() {
        for v in [
            Version::OpenMP,
            Version::PgiAcc,
            Version::Cuda,
            Version::Proposal(1),
            Version::Proposal(2),
        ] {
            let r = run_app(App::Md, v, &mut desktop(), Scale::Small, 42).unwrap();
            assert!(r.correct, "{} wrong (err {})", v.label(), r.max_err);
            assert_eq!(r.trace.counters().kernel_launches, 1, "Table II C=1");
        }
    }

    #[test]
    fn md_three_gpus_on_node() {
        let r = run_app(App::Md, Version::Proposal(3), &mut node(), Scale::Small, 42).unwrap();
        assert!(r.correct);
        // MD needs no inter-GPU communication (§V-A).
        assert_eq!(r.trace.counters().p2p_bytes, 0, "MD must not use the GPU-GPU path");
    }

    #[test]
    fn md_localaccess_ratio_matches_table2() {
        let r = run_app(App::Md, Version::Proposal(2), &mut desktop(), Scale::Small, 1).unwrap();
        assert_eq!(r.localaccess_ratio, (2, 3));
    }

    #[test]
    fn kmeans_all_versions_correct_small() {
        for v in [
            Version::OpenMP,
            Version::Cuda,
            Version::Proposal(1),
            Version::Proposal(2),
            Version::Proposal(3),
        ] {
            let mut m = node();
            let r = run_app(App::Kmeans, v, &mut m, Scale::Small, 7).unwrap();
            assert!(r.correct, "{} wrong (err {})", v.label(), r.max_err);
        }
    }

    #[test]
    fn kmeans_table2_characteristics() {
        let r = run_app(
            App::Kmeans,
            Version::Proposal(2),
            &mut desktop(),
            Scale::Small,
            7,
        )
        .unwrap();
        // 2 loops × 5 iterations at Small scale.
        assert_eq!(r.trace.counters().kernel_launches, 10);
        assert_eq!(r.localaccess_ratio, (2, 5));
    }

    #[test]
    fn bfs_all_versions_correct_small() {
        for v in [
            Version::OpenMP,
            Version::PgiAcc,
            Version::Cuda,
            Version::Proposal(1),
            Version::Proposal(2),
            Version::Proposal(3),
        ] {
            let mut m = node();
            let r = run_app(App::Bfs, v, &mut m, Scale::Small, 3).unwrap();
            assert!(r.correct, "{} wrong", v.label());
        }
    }

    #[test]
    fn bfs_kernel_count_matches_depth() {
        let r = run_app(App::Bfs, Version::Proposal(2), &mut node(), Scale::Small, 3).unwrap();
        // depth 6 → 7 launches at Small scale (Paper scale gives 10).
        assert_eq!(r.trace.counters().kernel_launches, 7);
        assert_eq!(r.localaccess_ratio, (2, 3));
        // BFS is the communication-heavy app: dirty-bit sync used.
        assert!(r.trace.counters().p2p_bytes > 0);
    }

    #[test]
    fn spmv_and_heat2d_run_through_the_harness() {
        for app in [App::Spmv, App::Heat2d, App::Pagerank] {
            for v in [Version::OpenMP, Version::Proposal(1), Version::Proposal(3)] {
                let r = run_app(app, v, &mut node(), Scale::Small, 13).unwrap();
                assert!(r.correct, "{} {} wrong (err {})", app.name(), v.label(), r.max_err);
            }
        }
    }

    #[test]
    fn all_apps_are_lint_clean() {
        // CI runs `acc-lint --deny-warnings` over every app; keep that
        // invariant visible as a unit test too. Informational ACC-I*
        // diagnostics are allowed (heat2d-halo2 carries the ACC-I003
        // halo-local-dependence downgrade by design); errors and
        // warnings are not.
        for app in App::ALL {
            let diags = acc_compiler::lint_source(app.source()).unwrap();
            let hard: Vec<_> = diags
                .iter()
                .filter(|d| !d.code.is_some_and(|c| c.starts_with("ACC-I")))
                .collect();
            assert!(
                hard.is_empty(),
                "{}: {}",
                app.name(),
                hard.iter()
                    .map(|d| d.render(app.source()))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }

    // Performance-shape assertions need realistic input sizes (tiny
    // inputs are latency-dominated and the GPU rightly loses, on real
    // hardware too). They run at Scaled size, which wants a release
    // build: `cargo test --release -p acc-apps -- --ignored`.

    #[test]
    #[ignore = "Scaled workload; run with --release -- --ignored"]
    fn proposal_multi_gpu_is_faster_than_single_on_md() {
        let r1 = run_app(App::Md, Version::Proposal(1), &mut desktop(), Scale::Scaled, 9).unwrap();
        let r2 = run_app(App::Md, Version::Proposal(2), &mut desktop(), Scale::Scaled, 9).unwrap();
        assert!(r1.correct && r2.correct);
        assert!(
            r2.profile.time.parallel_region() < r1.profile.time.parallel_region(),
            "2 GPUs {} vs 1 GPU {}",
            r2.profile.time.parallel_region(),
            r1.profile.time.parallel_region()
        );
    }

    #[test]
    #[ignore = "Scaled workload; run with --release -- --ignored"]
    fn gpu_versions_beat_openmp_on_md() {
        let omp = run_app(App::Md, Version::OpenMP, &mut desktop(), Scale::Scaled, 9).unwrap();
        let gpu = run_app(App::Md, Version::Proposal(2), &mut desktop(), Scale::Scaled, 9).unwrap();
        assert!(gpu.profile.time.parallel_region() < omp.profile.time.parallel_region());
    }
}
