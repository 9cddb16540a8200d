//! The `serve-mixed` workload: an in-process `acc_serve::Server` (node
//! preset, 2 workers) under a closed loop of 2 outstanding requests, one
//! per load thread (2 = nproc of the reference machine).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use acc_apps::{App, Scale};
use acc_gpusim::{Machine, MachineKind};
use acc_obs::TraceLevel;
use acc_runtime::{Engine, ExecConfig};
use acc_serve::{JobRequest, JobSummary, ServeError, Server, ServerConfig};

use crate::gate::Determinism;
use crate::jobs::{fnv1a64, run_job, JobRecord, JobSpec, Size};
use crate::layers;
use crate::metrics::Outcome;
use crate::setup::{self, SetupTimes};
use crate::spans::Spans;
use crate::stats::{geomean, median, windows, Latency, Rng};
use crate::Args;

pub const WORKERS: usize = 2;
/// Requests in flight at once (one per load thread).
pub const OUTSTANDING: usize = 2;
/// Input seeds per (app, GPU count); requests draw among them, so
/// repeats feed the determinism gate.
pub const SEED_POOL: u64 = 4;
/// One request in this many asks the server for a Chrome trace.
pub const TRACE_ONE_IN: u64 = 20;
/// Measured requests per phase, at least.
pub const MIN_JOBS: usize = 1_000;
/// Phase length floor in traced runs, which split `--seconds` between
/// an untraced and a traced phase.
pub const MIN_JOBS_TRACED: usize = 500;

/// The input seeds of the pool, derived from the workload seed.
pub fn pool_seeds(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x5e4e_5e4e);
    (0..SEED_POOL).map(|_| rng.next_u64() >> 16).collect()
}

/// The `i`-th request of the seeded stream: a uniform draw over
/// `App::ALL` × 1–3 GPUs × the seed pool at `Scale::Small`; one in
/// [`TRACE_ONE_IN`] asks for a trace.
pub fn request(seed: u64, i: u64) -> JobRequest {
    let mut rng =
        Rng::new(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ 0xd1b5_4a32_d192_ed03);
    let app = App::ALL[rng.below(App::ALL.len() as u64) as usize];
    let ngpus = 1 + rng.below(3) as usize;
    let input = pool_seeds(seed)[rng.below(SEED_POOL) as usize];
    JobRequest {
        scale: Scale::Small,
        seed: input,
        trace: rng.below(TRACE_ONE_IN) == 0,
        ..JobRequest::new(app, ngpus)
    }
}

/// The same job as the benchmark replays it through its own engine.
fn spec_of(req: &JobRequest) -> JobSpec {
    JobSpec::new(req.app, req.ngpus, Size::Small, req.seed)
}

struct Served {
    index: u64,
    req: JobRequest,
    latency_s: f64,
    /// Seconds from the start of the phase to the reply.
    done_s: f64,
    outcome: Result<JobSummary, ServeError>,
}

/// Run requests `0, 1, …` of the stream against `server` from
/// [`OUTSTANDING`] load threads until `seconds` have passed and at least
/// `min_jobs` replies arrived. `force_trace` sets the trace flag on
/// every request (the traced phase).
fn closed_loop(
    server: &Server,
    seed: u64,
    seconds: f64,
    min_jobs: usize,
    force_trace: bool,
    spans: &mut Spans,
) -> (Vec<Served>, f64) {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let served = Mutex::new(Vec::new());
    let start = Instant::now();
    let recorders: Vec<Spans> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..OUTSTANDING)
            .map(|t| {
                let (next, done, served) = (&next, &done, &served);
                let mut rec = Spans::new(spans.enabled(), t as u64 + 1, spans.origin());
                scope.spawn(move || {
                    loop {
                        if start.elapsed().as_secs_f64() >= seconds
                            && done.load(Ordering::SeqCst) >= min_jobs
                        {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst) as u64;
                        let mut req = request(seed, i);
                        req.trace |= force_trace;
                        let root = rec.open("job", i);
                        let (rx, _) = rec.time("serve.submit", i, || server.submit(req.clone()));
                        let outcome = match rx {
                            Ok(rx) => rec
                                .time("serve.reply", i, || rx.recv())
                                .0
                                .unwrap_or(Err(ServeError::Shutdown)),
                            Err(e) => Err(e),
                        };
                        let latency_s = rec.close(root);
                        let done_s = start.elapsed().as_secs_f64();
                        // Keep no exported traces: the benchmark's own
                        // memory would count in the process peak RSS.
                        let outcome = outcome.map(|s| JobSummary {
                            chrome_trace: None,
                            ..s
                        });
                        done.fetch_add(1, Ordering::SeqCst);
                        served.lock().expect("served list lock").push(Served {
                            index: i,
                            req,
                            latency_s,
                            done_s,
                            outcome,
                        });
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    for rec in recorders {
        spans.absorb(rec);
    }
    let mut served = served.into_inner().expect("served list lock");
    served.sort_by_key(|s| s.index);
    (served, wall)
}

fn stop(server: Arc<Server>, workers: Vec<std::thread::JoinHandle<()>>) {
    server.shutdown();
    for w in workers {
        w.join().expect("server worker panicked");
    }
}

/// Fingerprint of what a reply reports about the simulated run.
fn summary_fingerprint(s: &JobSummary) -> u64 {
    fnv1a64(
        format!(
            "{:016x} {} {}",
            s.sim_s.to_bits(),
            s.mem_peak_bytes,
            s.p2p_bytes
        )
        .as_bytes(),
    )
}

fn tally(out: &mut Outcome, gate: &mut Determinism, served: &[Served], rejected: &mut u64) {
    for s in served {
        out.attempted += 1;
        let key = format!("serve/{}", spec_of(&s.req).key());
        match &s.outcome {
            Ok(sum) if sum.correct => gate.check(&key, summary_fingerprint(sum)),
            Ok(_) => {
                out.failed += 1;
                out.problems
                    .push(format!("{key}: server's oracle rejected the result"));
            }
            Err(e) => {
                out.failed += 1;
                if matches!(e, ServeError::QueueFull { .. }) {
                    *rejected += 1;
                }
                out.problems.push(format!("{key}: [{}] {e}", e.code()));
            }
        }
    }
}

/// Replay every distinct job of the pool through the benchmark's own
/// engine: its launches give the inner layers' counters, and each served
/// reply must report exactly what the replay simulated. Returns the
/// records and the first job's Chrome trace (when `level` keeps one).
fn replay(
    seed: u64,
    level: TraceLevel,
    served: &[&Served],
    out: &mut Outcome,
    gate: &mut Determinism,
    spans: &mut Spans,
) -> (Vec<JobRecord>, Option<String>) {
    let engine = Engine::new(MachineKind::SupercomputerNode, ExecConfig::gpus(1));
    let mut machine = Machine::supercomputer_node();
    let mut records = Vec::new();
    let mut first_trace = None;
    let mut job = 1u64 << 32;
    for app in App::ALL {
        for ngpus in 1..=3 {
            for &input in &pool_seeds(seed) {
                let spec = JobSpec::new(app, ngpus, Size::Small, input);
                let (rec, chrome) = run_job(&engine, &mut machine, &spec, level, spans, job);
                first_trace = first_trace.or(chrome);
                job += 1;
                out.attempted += 1;
                if rec.error.is_some() || !rec.correct {
                    out.failed += 1;
                    out.problems.push(format!(
                        "replay {}: {}",
                        spec.key(),
                        rec.error
                            .clone()
                            .unwrap_or_else(|| "result differs from the oracle".into())
                    ));
                } else {
                    gate.check(&spec.key(), rec.sim.fingerprint());
                }
                records.push(rec);
            }
        }
    }
    for s in served {
        let Ok(sum) = &s.outcome else { continue };
        let spec = spec_of(&s.req);
        let Some(r) = records.iter().find(|r| r.spec == spec) else {
            continue;
        };
        let mem_total = r.sim.gpu_mem_total;
        if sum.sim_s.to_bits() != r.sim.sim_s.to_bits()
            || sum.p2p_bytes != r.sim.counters.p2p_bytes
            || sum.mem_peak_bytes != mem_total
        {
            out.problems.push(format!(
                "serve/{}: reply (sim {} s, p2p {} B, mem {} B) differs from the replay (sim {} s, p2p {} B, mem {} B)",
                spec.key(),
                sum.sim_s,
                sum.p2p_bytes,
                sum.mem_peak_bytes,
                r.sim.sim_s,
                r.sim.counters.p2p_bytes,
                mem_total
            ));
        }
    }
    (records, first_trace)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut spans = Spans::new(args.trace, 0, origin);
    let cfg = ServerConfig {
        kind: MachineKind::SupercomputerNode,
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let ((server, workers), setup) = setup::repeat(
        &App::ALL,
        &mut spans,
        |spans| {
            let server = Server::new(cfg.clone());
            let workers = server.spawn_workers(WORKERS);
            setup::cold_compile(server.engine(), &App::ALL, spans)?;
            Ok((server, workers))
        },
        |(server, workers)| stop(server, workers),
    )?;

    let mut out = Outcome::default();
    let mut gate = Determinism::default();
    let mut rejected = 0;
    let mut quiet = Spans::new(false, 0, origin);
    // Warm-up: fills every cache and pool and brings the CPUs up to
    // speed; checked, but not measured.
    let (warm, _) = closed_loop(&server, args.seed, setup::WARMUP_S, 0, false, &mut quiet);
    tally(&mut out, &mut gate, &warm, &mut rejected);
    let mut sim_trace = None;
    if args.trace {
        // The same requests untraced, then traced (every request asks the
        // server for its Chrome trace), each phase half the run.
        let half = args.seconds / 2.0;
        let (plain, _) = closed_loop(&server, args.seed, half, MIN_JOBS_TRACED, false, &mut quiet);
        let stats0 = server.engine().stats();
        let (traced, _) = closed_loop(&server, args.seed, half, MIN_JOBS_TRACED, true, &mut spans);
        let stats1 = server.engine().stats();
        stop(server, workers);
        tally(&mut out, &mut gate, &plain, &mut rejected);
        tally(&mut out, &mut gate, &traced, &mut rejected);
        let served: Vec<&Served> = plain.iter().chain(&traced).collect();
        // The replay traces at the server's trace level.
        let mut replay_spans = Spans::new(true, 0, origin);
        let (records, chrome) = replay(
            args.seed,
            TraceLevel::Summary,
            &served,
            &mut out,
            &mut gate,
            &mut replay_spans,
        );
        sim_trace = chrome;
        traced_metrics(
            &mut out,
            &setup,
            &plain,
            &traced,
            &records,
            &replay_spans,
            &spans,
            rejected,
        );
        let hits = stats1.cache_hits - stats0.cache_hits;
        let compiles = stats1.compiles - stats0.compiles;
        out.set(
            "engine.cache_hit_rate",
            hits as f64 / (hits + compiles).max(1) as f64,
        );
        out.set(
            "engine.pool_reuse_rate",
            (stats1.pool_reuses - stats0.pool_reuses) as f64
                / (stats1.launches - stats0.launches).max(1) as f64,
        );
        spans.absorb(replay_spans);
    } else {
        let (served, wall) = closed_loop(
            &server,
            args.seed,
            args.seconds,
            MIN_JOBS,
            false,
            &mut quiet,
        );
        stop(server, workers);
        tally(&mut out, &mut gate, &served, &mut rejected);
        let refs: Vec<&Served> = served.iter().collect();
        let (records, _) = replay(
            args.seed,
            TraceLevel::Off,
            &refs,
            &mut out,
            &mut gate,
            &mut quiet,
        );
        end_to_end(&mut out, &setup, &served, wall, &records);
    }
    gate.finish(&mut out, "serve-mixed", args.seed);
    if args.trace {
        crate::write_traces(args, &spans, sim_trace.as_deref(), &mut out);
    }
    Ok(out)
}

fn ok_summaries(served: &[Served]) -> impl Iterator<Item = (&Served, &JobSummary)> {
    served
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok().map(|sum| (s, sum)))
}

fn end_to_end(
    out: &mut Outcome,
    setup: &SetupTimes,
    served: &[Served],
    wall: f64,
    replayed: &[JobRecord],
) {
    // Medians over consecutive windows of at least `MIN_JOBS` replies
    // each: a slow spell of the host that covers less than half the run
    // moves none of the three.
    let mut by_done: Vec<&Served> = served.iter().collect();
    by_done.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let (mut rates, mut p50s, mut tails, mut lats) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut from_s = 0.0;
    for w in windows(by_done.len(), MIN_JOBS) {
        let win = &by_done[w];
        let to_s = win.last().map_or(from_s, |s| s.done_s);
        rates.push(win.len() as f64 / (to_s - from_s));
        from_s = to_s;
        let ms: Vec<f64> = win.iter().map(|s| s.latency_s * 1e3).collect();
        let lat = Latency::new(&ms, MIN_JOBS);
        p50s.push(lat.p50);
        tails.push(lat.tail);
        lats.push(lat);
    }
    out.set("setup_s", setup.setup_s);
    out.set("jobs_per_s", median(&rates));
    out.set("latency_p50_ms", median(&p50s));
    out.set("latency_tail_ms", median(&tails));
    // Over the pool's distinct jobs (every reply matched its replay bit
    // for bit), so the figure depends on the seed alone, not on the
    // random mix that fit in the run.
    let sims: Vec<f64> = replayed.iter().map(|r| r.sim.sim_s).collect();
    out.set("sim_s", geomean(&sims));
    let peak = replayed
        .iter()
        .map(|r| r.sim.gpu_mem_peak)
        .max()
        .unwrap_or(0);
    out.set("gpu_mem_peak_mb", peak as f64 / 1e6);
    out.set("peak_rss_mb", crate::peak_rss_mb());
    out.notes.push(format!(
        "latency = submit to reply, median over {} windows of {} replies in {wall:.2} s",
        lats.len(),
        served.len() / lats.len().max(1)
    ));
    for lat in lats {
        out.notes.push(format!("  window: {}", lat.describe()));
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    out: &mut Outcome,
    setup: &SetupTimes,
    plain: &[Served],
    traced: &[Served],
    replayed: &[JobRecord],
    replay_spans: &Spans,
    spans: &Spans,
    rejected: u64,
) {
    out.set("minic.frontend_s", setup.frontend_s);
    out.set("accc.translate_s", setup.translate_s);
    layers::job_layers(out, replayed, replay_spans);
    layers::accounting_check(out, replayed, spans);
    out.set("sanitize.overhead", 0.0);
    out.set("loader.overlap_hidden_ms", 0.0);
    out.set("loader.overlap_saved_ms", 0.0);
    let exec: Vec<f64> = ok_summaries(traced).map(|(_, s)| s.wall_s * 1e3).collect();
    let wait: Vec<f64> = ok_summaries(traced)
        .map(|(r, s)| (r.latency_s - s.wall_s) * 1e3)
        .collect();
    out.set("serve.exec_ms", median(&exec));
    out.set("serve.queue_wait_ms", median(&wait));
    out.set("serve.rejected", rejected as f64);
    // Latency of the same requests with and without tracing.
    let n = plain.len().min(traced.len());
    let t: f64 = traced[..n].iter().map(|s| s.latency_s).sum();
    let p: f64 = plain[..n].iter().map(|s| s.latency_s).sum();
    out.set("obs.trace_overhead", t / p.max(1e-12));
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: u64) -> Vec<(App, usize, u64, bool)> {
        (0..n)
            .map(|i| {
                let r = request(seed, i);
                (r.app, r.ngpus, r.seed, r.trace)
            })
            .collect()
    }

    #[test]
    fn request_stream_is_seeded() {
        assert_eq!(stream(11, 200), stream(11, 200));
        assert_ne!(stream(11, 200), stream(12, 200));
    }

    #[test]
    fn request_stream_covers_every_app_and_gpu_count() {
        let s = stream(3, MIN_JOBS as u64);
        for app in App::ALL {
            for ngpus in 1..=3 {
                assert!(
                    s.iter().any(|&(a, n, _, _)| a == app && n == ngpus),
                    "{} on {ngpus} GPUs never drawn",
                    app.name()
                );
            }
        }
        assert!(s.iter().all(|&(_, n, _, _)| (1..=3).contains(&n)));
        let pool = pool_seeds(3);
        assert!(s.iter().all(|&(_, _, seed, _)| pool.contains(&seed)));
        assert_ne!(pool_seeds(3), pool_seeds(4));
        let traced = s.iter().filter(|r| r.3).count();
        assert!(
            traced > 0 && traced < s.len() / 5,
            "trace share {traced}/{}",
            s.len()
        );
    }
}
