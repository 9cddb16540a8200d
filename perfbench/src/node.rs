//! The `node-compute` workload: a closed loop that runs one job at a
//! time through one `Engine` on the paper's 2-GPU desktop.

use std::time::Instant;

use acc_apps::App;
use acc_gpusim::{Machine, MachineKind};
use acc_obs::TraceLevel;
use acc_runtime::{Engine, ExecConfig};

use crate::gate::Determinism;
use crate::jobs::{run_job, JobRecord, JobSpec, Size};
use crate::layers;
use crate::metrics::Outcome;
use crate::setup::{self, SetupTimes};
use crate::spans::Spans;
use crate::stats::{geomean, median, Latency, Rng};
use crate::Args;

/// Apps that also run as `SanitizeLevel::Full` audit twins on the node.
pub const AUDITED: [App; 3] = [App::Bfs, App::Spmv, App::Pagerank];

/// Nominal host seconds of one pass on the reference 2-core machine: a
/// run makes `round(seconds / PASS_S)` passes (at least [`MIN_PASSES`]),
/// so every run of a seed measures the same job list.
pub const PASS_S: f64 = 3.0;

/// Passes a run makes at least, so every job has a repeat to put its
/// tail latency on.
pub const MIN_PASSES: usize = 2;

/// GPUs of the hierarchical machine (`Machine::cluster`: two 8-GPU
/// islands in one node) the traced run adds one PAGERANK job on, so the
/// topology-aware collectives and inter-island routing stay measured;
/// the desktop's single island never takes that path.
pub const HIER_GPUS: usize = 16;

pub fn passes(seconds: f64) -> usize {
    ((seconds / PASS_S).round() as usize).max(MIN_PASSES)
}

/// One pass: every app once on the 2-GPU desktop, then the audit twins,
/// each app with its own seeded input. The traced run's pass ends with
/// one PAGERANK job on [`HIER_GPUS`] hierarchical GPUs.
pub fn node_pass(seed: u64, traced: bool) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed);
    let plain: Vec<JobSpec> = App::ALL
        .iter()
        .map(|&app| JobSpec::new(app, 2, Size::Node, rng.next_u64()))
        .collect();
    let twins: Vec<JobSpec> = plain
        .iter()
        .filter(|j| AUDITED.contains(&j.app))
        .map(|j| JobSpec { audit: true, ..*j })
        .collect();
    let hier = JobSpec::new(App::Pagerank, HIER_GPUS, Size::Small, rng.next_u64());
    plain
        .into_iter()
        .chain(twins)
        .chain(traced.then_some(hier))
        .collect()
}

/// The machine a job runs on: the desktop, or the hierarchical one for
/// the traced run's [`HIER_GPUS`]-GPU job.
fn machine_for<'a>(
    spec: &JobSpec,
    desktop: &'a mut Machine,
    hier: &'a mut Option<Machine>,
) -> &'a mut Machine {
    if spec.ngpus == HIER_GPUS {
        hier.get_or_insert_with(|| Machine::cluster(HIER_GPUS))
    } else {
        desktop
    }
}

fn tally(out: &mut Outcome, gate: &mut Determinism, r: &JobRecord) {
    out.attempted += 1;
    if let Some(e) = &r.error {
        out.failed += 1;
        out.problems.push(format!("{}: {e}", r.spec.key()));
    } else if !r.correct {
        out.failed += 1;
        out.problems
            .push(format!("{}: result differs from the oracle", r.spec.key()));
    } else {
        gate.check(&r.spec.key(), r.sim.fingerprint());
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut spans = Spans::new(args.trace, 0, origin);
    let mut quiet = Spans::new(false, 0, origin);
    let (engine, setup) = setup::repeat(
        &App::ALL,
        &mut spans,
        |spans| {
            let engine = Engine::new(MachineKind::Desktop, ExecConfig::gpus(2));
            setup::cold_compile(&engine, &App::ALL, spans)?;
            Ok((engine, Machine::desktop()))
        },
        drop,
    )?;
    let (engine, mut desktop) = engine;
    let mut hier = None;

    let pass = node_pass(args.seed, args.trace);
    let passes = passes(args.seconds);
    let mut out = Outcome::default();
    let mut gate = Determinism::default();
    // Warm-up: the first jobs of the pass, checked but not measured.
    let warm = Instant::now();
    for (i, spec) in pass.iter().cycle().enumerate() {
        if warm.elapsed().as_secs_f64() >= setup::WARMUP_S {
            break;
        }
        let machine = machine_for(spec, &mut desktop, &mut hier);
        let (rec, _) = run_job(
            &engine,
            machine,
            spec,
            TraceLevel::Off,
            &mut quiet,
            i as u64,
        );
        tally(&mut out, &mut gate, &rec);
    }
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut twins = Vec::new();
    let mut chrome = None;
    for (i, spec) in (0..passes).flat_map(|_| &pass).enumerate() {
        let job = i as u64;
        // Traced runs launch every job untraced and traced; which goes
        // first alternates, so warm caches favour neither side.
        for traced_turn in [i % 2 == 1, i % 2 == 0] {
            let machine = machine_for(spec, &mut desktop, &mut hier);
            if !traced_turn {
                let (rec, _) = run_job(&engine, machine, spec, TraceLevel::Off, &mut quiet, job);
                tally(&mut out, &mut gate, &rec);
                untraced.push(rec);
            } else if args.trace {
                let (rec, json) =
                    run_job(&engine, machine, spec, TraceLevel::Spans, &mut spans, job);
                tally(&mut out, &mut gate, &rec);
                traced.push(rec);
                chrome = chrome.or(json);
            }
        }
        if args.trace && spec.app == App::Heat2d {
            // HEAT2D's twin with overlap flipped: the overlap-off run
            // prices the same halo fills synchronously, so its loader time
            // minus the overlapped run's is what overlap actually saved.
            let twin = JobSpec {
                overlap: !spec.overlap,
                ..*spec
            };
            let (rec, _) = run_job(
                &engine,
                &mut desktop,
                &twin,
                TraceLevel::Off,
                &mut quiet,
                job,
            );
            tally(&mut out, &mut gate, &rec);
            twins.push(rec);
        }
    }
    gate.finish(&mut out, "node-compute", args.seed);

    if args.trace {
        traced_metrics(
            &mut out, &engine, &setup, &untraced, &traced, &twins, &spans,
        );
        crate::write_traces(args, &spans, chrome.as_deref(), &mut out);
    } else {
        end_to_end(&mut out, &setup, &untraced, pass.len(), passes);
    }
    Ok(out)
}

fn end_to_end(
    out: &mut Outcome,
    setup: &SetupTimes,
    jobs: &[JobRecord],
    pass_len: usize,
    passes: usize,
) {
    // Job `j` of the pass ran at indices j, j + pass_len, ….
    let walls: Vec<Vec<f64>> = (0..pass_len)
        .map(|j| {
            jobs.iter()
                .skip(j)
                .step_by(pass_len)
                .map(|r| r.launch_s * 1e3)
                .collect()
        })
        .collect();
    let lat = Latency::per_job(&walls, passes);
    // The median pass: a slow spell of the host that covers less than
    // half the run does not move it.
    let rates: Vec<f64> = jobs
        .chunks(pass_len)
        .map(|pass| pass.len() as f64 / pass.iter().map(|r| r.launch_s).sum::<f64>())
        .collect();
    out.set("setup_s", setup.setup_s);
    out.set("jobs_per_s", median(&rates));
    out.set("latency_p50_ms", lat.p50);
    out.set("latency_tail_ms", lat.tail);
    // Over distinct jobs, so the figure depends on the seed alone, not on
    // how many repeats fit in the run.
    let distinct = layers::distinct(jobs);
    let sims: Vec<f64> = distinct.iter().map(|r| r.sim.sim_s).collect();
    out.set("sim_s", geomean(&sims));
    let peak = distinct
        .iter()
        .map(|r| r.sim.gpu_mem_peak)
        .max()
        .unwrap_or(0);
    out.set("gpu_mem_peak_mb", peak as f64 / 1e6);
    out.set("peak_rss_mb", crate::peak_rss_mb());
    out.notes.push(format!(
        "latency = launch wall per job, mean over the pass's jobs of each job's percentile across its {passes} repeats: {}",
        lat.describe()
    ));
}

fn traced_metrics(
    out: &mut Outcome,
    engine: &Engine,
    setup: &SetupTimes,
    untraced: &[JobRecord],
    traced: &[JobRecord],
    twins: &[JobRecord],
    spans: &Spans,
) {
    out.set("minic.frontend_s", setup.frontend_s);
    out.set("accc.translate_s", setup.translate_s);
    let stats = engine.stats();
    out.set("engine.cache_hit_rate", stats.cache_hit_rate());
    out.set(
        "engine.pool_reuse_rate",
        stats.pool_reuses as f64 / stats.launches.max(1) as f64,
    );
    layers::job_layers(out, traced, spans);
    layers::accounting_check(out, traced, spans);

    // Audited ÷ plain launch wall of the twins (node-compute only; every
    // pass runs each audited app once each way).
    let twin_wall = |audit: bool| -> f64 {
        traced
            .iter()
            .filter(|r| r.spec.audit == audit && AUDITED.contains(&r.spec.app))
            .map(|r| r.launch_s)
            .sum()
    };
    let audited = twin_wall(true);
    out.set(
        "sanitize.overhead",
        if audited > 0.0 {
            audited / twin_wall(false)
        } else {
            0.0
        },
    );

    // Overlap: loader time the overlap-off twin spends minus the
    // overlapped job's, beside the counter's claim.
    let (mut hidden_ns, mut saved_ms) = (0, 0.0);
    for r in layers::distinct(traced) {
        let flipped = JobSpec {
            overlap: !r.spec.overlap,
            ..r.spec
        };
        if let Some(t) = twins.iter().find(|t| t.spec == flipped) {
            let (on, off) = if r.spec.overlap { (r, t) } else { (t, r) };
            hidden_ns += on.sim.counters.overlap_hidden_ns;
            saved_ms += (off.sim.loader_sim_s - on.sim.loader_sim_s) * 1e3;
        }
    }
    out.set("loader.overlap_hidden_ms", hidden_ns as f64 / 1e6);
    out.set("loader.overlap_saved_ms", saved_ms);

    for name in ["serve.exec_ms", "serve.queue_wait_ms", "serve.rejected"] {
        out.set(name, 0.0);
    }
    // Traced job wall (launch with `TraceLevel::Spans` plus the Chrome
    // export) over the same jobs' untraced launch wall.
    let traced_s: f64 = traced.iter().map(|r| r.launch_s + r.export_s).sum();
    let plain_s: f64 = untraced.iter().map(|r| r.launch_s).sum();
    out.set("obs.trace_overhead", traced_s / plain_s.max(1e-12));
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_pass_runs_every_app_once_plus_audit_twins() {
        let pass = node_pass(5, false);
        assert_eq!(pass, node_pass(5, false));
        assert_ne!(pass, node_pass(6, false));
        assert_eq!(pass.len(), App::ALL.len() + AUDITED.len());
        for app in App::ALL {
            assert_eq!(pass.iter().filter(|j| j.app == app && !j.audit).count(), 1);
        }
        for j in pass.iter().filter(|j| j.audit) {
            assert!(AUDITED.contains(&j.app));
            assert!(
                pass.contains(&JobSpec { audit: false, ..*j }),
                "twin shares its input"
            );
        }
        assert!(pass.iter().all(|j| j.ngpus == 2 && j.size == Size::Node));
    }

    #[test]
    fn traced_pass_adds_one_hierarchical_pagerank() {
        let (plain, traced) = (node_pass(5, false), node_pass(5, true));
        assert_eq!(traced[..plain.len()], plain[..]);
        let extra = &traced[plain.len()..];
        assert_eq!(extra.len(), 1);
        assert_eq!((extra[0].app, extra[0].ngpus), (App::Pagerank, HIER_GPUS));
        assert!(Machine::cluster(HIER_GPUS).bus.is_hierarchical());
    }

    #[test]
    fn short_runs_still_repeat_every_job() {
        assert_eq!(passes(0.1), MIN_PASSES);
        assert_eq!(passes(1.0), MIN_PASSES);
        assert_eq!(passes(30.0), 10);
        // The fewest passes still give a tail latency.
        let walls = vec![vec![1.0; MIN_PASSES]; 3];
        assert!(Latency::per_job(&walls, passes(1.0)).tail > 0.0);
    }
}
