//! One benchmark job: generate an application's inputs from a seed,
//! compile (cached), launch, and check the result against the
//! application's independent oracle — each step a span around one
//! public call of the layer that does it.

use std::hint::black_box;

use acc_apps::{bfs, heat2d, heat2d_halo2, kmeans, md, pagerank, spmv, App};
use acc_compiler::CompileOptions;
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, Value};
use acc_obs::{Counters, TraceLevel};
use acc_runtime::{Engine, ExecConfig, RunReport, SanitizeLevel, Schedule};

use crate::spans::Spans;

/// The input-size family a job draws its application config from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Between the apps' `small()` and `scaled()` configs: 0.2–0.35 s of
    /// launch per job on the 2-GPU desktop. The larger apps are cut down
    /// so that none dominates a pass.
    Node,
    /// The apps' `small()` configs, as `acc-serve` runs `Scale::Small`.
    Small,
}

/// Everything that determines a job's inputs and configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    pub app: App,
    pub ngpus: usize,
    pub size: Size,
    /// Input-generator seed handed to the application's `generate`.
    pub seed: u64,
    /// Run under `SanitizeLevel::Full` (the `acc-lint --audit` config).
    pub audit: bool,
    /// Double-buffered halo overlap (`ExecConfig::overlap`).
    pub overlap: bool,
}

impl JobSpec {
    pub fn new(app: App, ngpus: usize, size: Size, seed: u64) -> JobSpec {
        JobSpec {
            app,
            ngpus,
            size,
            seed,
            audit: false,
            overlap: false,
        }
    }

    /// Stable identity of the job, used by the determinism gate.
    pub fn key(&self) -> String {
        format!(
            "{}/{}gpu/{:?}/seed{}{}{}",
            self.app.name(),
            self.ngpus,
            self.size,
            self.seed,
            if self.audit { "/audit" } else { "" },
            if self.overlap { "/overlap" } else { "" },
        )
    }

    /// The runtime configuration: the `Proposal(n)` defaults plus the
    /// job's switches. HEAT2D-HALO2 gets the wavefront schedule its
    /// `ACC-I003` verdict licenses, as the application harness does.
    pub fn exec_config(&self, tracing: TraceLevel) -> ExecConfig {
        let mut cfg = ExecConfig::gpus(self.ngpus)
            .overlap(self.overlap)
            .tracing(tracing);
        if self.audit {
            cfg = cfg.sanitize(SanitizeLevel::Full);
        }
        if self.app == App::Heat2dHalo2 {
            cfg = cfg.schedule(Schedule::Wavefront);
        }
        cfg
    }
}

/// Generated inputs of one job.
enum Input {
    Md(md::MdInput),
    Kmeans(kmeans::KmeansInput),
    Bfs(bfs::BfsInput),
    Spmv(spmv::SpmvInput),
    Heat2d(heat2d::Heat2dInput),
    Pagerank(pagerank::PagerankInput),
    Halo2(heat2d_halo2::Halo2Input),
}

fn generate(spec: &JobSpec) -> Input {
    let seed = spec.seed;
    let node = spec.size == Size::Node;
    match spec.app {
        App::Md => Input::Md(md::generate(
            &if node {
                md::MdConfig {
                    nx: 24,
                    ny: 24,
                    nz: 12,
                    ..md::MdConfig::paper()
                }
            } else {
                md::MdConfig::small()
            },
            seed,
        )),
        App::Kmeans => Input::Kmeans(kmeans::generate(
            &if node {
                kmeans::KmeansConfig {
                    npoints: 3_072,
                    iters: 4,
                    ..kmeans::KmeansConfig::paper()
                }
            } else {
                kmeans::KmeansConfig::small()
            },
            seed,
        )),
        App::Bfs => Input::Bfs(bfs::generate(
            &if node {
                bfs::BfsConfig {
                    layer_width: 1_700,
                    ..bfs::BfsConfig::scaled()
                }
            } else {
                bfs::BfsConfig::small()
            },
            seed,
        )),
        App::Spmv => Input::Spmv(spmv::generate(
            &if node {
                spmv::SpmvConfig::scaled()
            } else {
                spmv::SpmvConfig::small()
            },
            seed,
        )),
        App::Heat2d => Input::Heat2d(heat2d::generate(
            &if node {
                heat2d::Heat2dConfig {
                    rows: 288,
                    cols: 288,
                    iters: 4,
                }
            } else {
                heat2d::Heat2dConfig::small()
            },
            seed,
        )),
        App::Pagerank => Input::Pagerank(pagerank::generate(
            &if node {
                pagerank::PagerankConfig::scaled()
            } else {
                pagerank::PagerankConfig::small()
            },
            seed,
        )),
        App::Heat2dHalo2 => Input::Halo2(heat2d_halo2::generate(
            &if node {
                heat2d_halo2::Halo2Config {
                    rows: 320,
                    cols: 320,
                    iters: 5,
                }
            } else {
                heat2d_halo2::Halo2Config::small()
            },
            seed,
        )),
    }
}

fn inputs(input: &Input) -> (Vec<Value>, Vec<Buffer>) {
    match input {
        Input::Md(i) => md::inputs(i),
        Input::Kmeans(i) => kmeans::inputs(i),
        Input::Bfs(i) => bfs::inputs(i),
        Input::Spmv(i) => spmv::inputs(i),
        Input::Heat2d(i) => heat2d::inputs(i),
        Input::Pagerank(i) => pagerank::inputs(i),
        Input::Halo2(i) => heat2d_halo2::inputs(i),
    }
}

fn max_abs_diff(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter()
        .zip(want)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// Compute the oracle and compare: the same tolerances the application
/// harness (`acc_apps::run_compiled`) and the `scaling` section apply.
fn oracle_ok(input: &Input, report: &RunReport) -> bool {
    match input {
        Input::Md(i) => {
            let want = md::reference(i);
            md::max_error(&report.arrays[md::FORCE_ARRAY].to_f64_vec(), &want) < 1e-9
        }
        Input::Kmeans(i) => {
            let want = kmeans::reference(i);
            let clusters = report.arrays[kmeans::CLUSTERS_ARRAY].to_f32_vec();
            let membership = report.arrays[kmeans::MEMBERSHIP_ARRAY].to_i32_vec();
            // Multi-GPU float accumulation reorders the centroid sums.
            let clu_err = clusters
                .iter()
                .zip(&want.clusters)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max);
            let flipped = membership
                .iter()
                .zip(&want.membership)
                .filter(|(a, b)| a != b)
                .count();
            clusters.len() == want.clusters.len()
                && clu_err < 1e-2
                && (flipped as f64) < 0.001 * membership.len() as f64
        }
        Input::Bfs(i) => report.arrays[bfs::LEVELS_ARRAY].to_i32_vec() == bfs::reference(i),
        Input::Spmv(i) => {
            max_abs_diff(
                &report.arrays[spmv::Y_ARRAY].to_f64_vec(),
                &spmv::reference(i),
            ) < 1e-12
        }
        Input::Heat2d(i) => {
            let want = heat2d::reference(i);
            heat2d::max_error(&report.arrays[heat2d::PLATE_ARRAY].to_f64_vec(), &want) < 1e-9
        }
        Input::Pagerank(i) => {
            // The hierarchical reduction tree reassociates the merges.
            let want = pagerank::reference(i);
            pagerank::max_error(&report.arrays[pagerank::RANK_ARRAY].to_f64_vec(), &want) < 1e-6
        }
        Input::Halo2(i) => {
            // The wavefront reproduces the sequential sweep exactly.
            let want = heat2d_halo2::reference(i);
            heat2d_halo2::max_error(
                &report.arrays[heat2d_halo2::PLATE_ARRAY].to_f64_vec(),
                &want,
            ) == 0.0
        }
    }
}

/// What one job measured. Host times are seconds of wall clock; `sim_*`
/// are simulated seconds read from the launch's report.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub spec: JobSpec,
    /// `None` on success; the error's code and message otherwise.
    pub error: Option<String>,
    /// The oracle accepted the result (false when the launch failed).
    pub correct: bool,
    pub launch_s: f64,
    /// `Trace::chrome_trace` (traced jobs only).
    pub export_s: f64,
    /// `profile.comm_wall_s`: host seconds inside the comm phase.
    pub comm_host_s: f64,
    pub sim: SimFacts,
}

/// The deterministic facts of one launch: everything the determinism
/// gate requires to repeat bit for bit, plus the simulated phase split.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimFacts {
    /// Simulated `parallel_region()` seconds.
    pub sim_s: f64,
    pub kernel_sim_s: f64,
    pub loader_sim_s: f64,
    pub comm_sim_s: f64,
    /// Largest per-GPU device peak, user + system, bytes.
    pub gpu_mem_peak: u64,
    /// Per-GPU device peaks summed (what an `acc-serve` reply reports).
    pub gpu_mem_total: u64,
    /// `kernel_counters.total_ops()`.
    pub ops: u64,
    pub counters: Counters,
    /// Retained trace events (0 untraced).
    pub events: u64,
}

impl SimFacts {
    fn from_report(r: &RunReport) -> SimFacts {
        let t = &r.profile.time;
        SimFacts {
            sim_s: t.parallel_region(),
            kernel_sim_s: t.kernels,
            loader_sim_s: t.cpu_gpu,
            comm_sim_s: t.gpu_gpu,
            gpu_mem_peak: r
                .mem
                .iter()
                .map(|m| m.user_peak + m.system_peak)
                .max()
                .unwrap_or(0),
            gpu_mem_total: r.mem.iter().map(|m| m.user_peak + m.system_peak).sum(),
            ops: r.profile.kernel_counters.total_ops(),
            counters: r.trace.counters(),
            events: r.trace.events().len() as u64,
        }
    }

    /// 64-bit FNV-1a over every field the determinism gate covers
    /// (trace event counts are excluded: they depend on the trace level).
    pub fn fingerprint(&self) -> u64 {
        let text = format!(
            "{:016x} {} {} {} {:?}",
            self.sim_s.to_bits(),
            self.gpu_mem_peak,
            self.ops,
            self.counters.p2p_bytes,
            self.counters
        );
        fnv1a64(text.as_bytes())
    }
}

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run one job on `machine` through `engine`. Untraced jobs launch with
/// `TraceLevel::Off`; traced ones with `level`, and export the launch's
/// trace as a Chrome trace (returned for the caller to keep or drop).
pub fn run_job(
    engine: &Engine,
    machine: &mut Machine,
    spec: &JobSpec,
    level: TraceLevel,
    spans: &mut Spans,
    job: u64,
) -> (JobRecord, Option<String>) {
    let root = spans.open("job", job);
    let (input, _) = spans.time("apps.generate", job, || generate(spec));
    let ((scalars, arrays), _) = spans.time("apps.inputs", job, || inputs(&input));
    let (compiled, _) = spans.time("engine.compile_entry", job, || {
        engine.compile_entry(
            spec.app.source(),
            spec.app.function(),
            &CompileOptions::proposal(),
        )
    });
    let mut rec = JobRecord {
        spec: *spec,
        error: None,
        correct: false,
        launch_s: 0.0,
        export_s: 0.0,
        comm_host_s: 0.0,
        sim: SimFacts::default(),
    };
    let mut chrome = None;
    // The launch's report, freed after the job span closes: releasing
    // the output buffers is no layer's work.
    let mut done = None;
    match compiled {
        Err(e) => rec.error = Some(format!("[{}] {e}", e.code())),
        Ok((kernel, _hit)) => {
            let cfg = spec.exec_config(level);
            let (report, launch_s) = spans.time("engine.launch_on", job, || {
                engine.launch_on(&kernel, machine, &cfg, scalars, arrays)
            });
            rec.launch_s = launch_s;
            match report {
                Err(e) => rec.error = Some(format!("[{}] {e}", e.code())),
                Ok(report) => {
                    let (ok, _) = spans.time("apps.reference", job, || oracle_ok(&input, &report));
                    rec.correct = ok;
                    rec.comm_host_s = report.profile.comm_wall_s;
                    rec.sim = SimFacts::from_report(&report);
                    if level != TraceLevel::Off {
                        let (json, export_s) = spans.time("obs.chrome_trace", job, || {
                            black_box(report.trace.chrome_trace())
                        });
                        rec.export_s = export_s;
                        chrome = Some(json);
                    }
                    done = Some(report);
                }
            }
        }
    }
    spans.close(root);
    drop(done);
    (rec, chrome)
}
