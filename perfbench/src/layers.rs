//! Per-layer metrics from the traced run's job records and spans.
//!
//! Host times are means per job of the spans' self time; simulated
//! times, counts and volumes are sums over the workload's *distinct*
//! jobs (each job key once), so they repeat exactly for a seed.

use std::collections::BTreeMap;

use crate::jobs::JobRecord;
use crate::metrics::Outcome;
use crate::spans::Spans;

/// The first record of every distinct job key, in key order.
pub fn distinct(records: &[JobRecord]) -> Vec<&JobRecord> {
    let mut by_key: BTreeMap<String, &JobRecord> = BTreeMap::new();
    for r in records {
        by_key.entry(r.spec.key()).or_insert(r);
    }
    by_key.into_values().collect()
}

/// Set the metrics of the runtime, kernel, communication, loader,
/// simulator and trace-export layers from `traced` (jobs launched with
/// tracing on). `spans` holds those jobs' benchmark-side spans.
pub fn job_layers(out: &mut Outcome, traced: &[JobRecord], spans: &Spans) {
    let n = traced.len().max(1) as f64;
    let self_by = spans.self_time_by_name();
    let per_job = |name: &str| self_by.get(name).copied().unwrap_or(0.0) / n;

    let launch_s: f64 = traced.iter().map(|r| r.launch_s).sum();
    let comm_host_s: f64 = traced.iter().map(|r| r.comm_host_s).sum();
    let launches: u64 = traced.iter().map(|r| r.sim.counters.kernel_launches).sum();
    let ops: u64 = traced.iter().map(|r| r.sim.ops).sum();
    out.set("accrt.launch_s", per_job("engine.launch_on"));
    out.set(
        "accrt.host_ms_per_launch",
        launch_s * 1e3 / launches.max(1) as f64,
    );
    out.set(
        "kernel_ir.ops_per_s",
        ops as f64 / (launch_s - comm_host_s).max(1e-9),
    );
    out.set("comm.host_s", comm_host_s / n);
    out.set("obs.export_s", per_job("obs.chrome_trace"));
    out.set(
        "apps.gen_s",
        per_job("apps.generate") + per_job("apps.inputs"),
    );
    out.set("apps.oracle_s", per_job("apps.reference"));

    let d = distinct(traced);
    let sum_u = |f: &dyn Fn(&JobRecord) -> u64| d.iter().map(|r| f(r)).sum::<u64>();
    let sum_f = |f: &dyn Fn(&JobRecord) -> f64| d.iter().map(|r| f(r)).sum::<f64>();
    out.set(
        "accrt.kernel_launches",
        sum_u(&|r| r.sim.counters.kernel_launches) as f64,
    );
    out.set("kernel_ir.ops", sum_u(&|r| r.sim.ops) as f64);
    out.set(
        "sanitize.violations",
        sum_u(&|r| r.sim.counters.sanitize_violations) as f64,
    );
    out.set("comm.sim_s", sum_f(&|r| r.sim.comm_sim_s));
    out.set(
        "comm.p2p_mb",
        sum_u(&|r| r.sim.counters.p2p_bytes) as f64 / 1e6,
    );
    out.set(
        "comm.dirty_chunks",
        sum_u(&|r| r.sim.counters.dirty_chunks_sent) as f64,
    );
    out.set(
        "comm.collective_rounds",
        sum_u(&|r| r.sim.counters.collective_rounds) as f64,
    );
    out.set(
        "comm.miss_records",
        sum_u(&|r| r.sim.counters.miss_records) as f64,
    );
    out.set("loader.sim_s", sum_f(&|r| r.sim.loader_sim_s));
    out.set(
        "loader.h2d_mb",
        sum_u(&|r| r.sim.counters.h2d_bytes) as f64 / 1e6,
    );
    out.set(
        "loader.d2h_mb",
        sum_u(&|r| r.sim.counters.d2h_bytes) as f64 / 1e6,
    );
    let reuses = sum_u(&|r| r.sim.counters.loader_reuses);
    let loads = sum_u(&|r| r.sim.counters.loader_loads);
    out.set(
        "loader.reuse_ratio",
        reuses as f64 / (reuses + loads).max(1) as f64,
    );
    out.set("gpusim.kernel_sim_s", sum_f(&|r| r.sim.kernel_sim_s));
    out.set("obs.events", sum_u(&|r| r.sim.events) as f64);
}

/// `accounting.uncovered_share`: the part of the jobs' wall their layer
/// spans do not cover (the `job` spans' self time over their duration).
/// Returns the share and the worst single job's share.
pub fn uncovered(spans: &Spans) -> (f64, f64) {
    let (mut uncovered, mut wall, mut worst) = (0.0, 0.0, 0.0f64);
    for (s, self_s) in spans.records().iter().zip(spans.self_times()) {
        if s.name == "job" {
            uncovered += self_s;
            wall += s.dur_s();
            worst = worst.max(self_s / s.dur_s().max(1e-12));
        }
    }
    (uncovered / wall.max(1e-12), worst)
}

/// Record the accounting check: the layer spans must cover at least 95%
/// of the jobs' wall, summed and for every job alone, and the comm
/// phase's host time lies inside the launch that ran it.
pub fn accounting_check(out: &mut Outcome, traced: &[JobRecord], spans: &Spans) {
    let (share, worst) = uncovered(spans);
    out.set("accounting.uncovered_share", share);
    out.notes.push(format!(
        "accounting: spans leave {:.3}% of job wall uncovered (worst job {:.3}%)",
        share * 100.0,
        worst * 100.0
    ));
    if share > 0.05 {
        out.problems.push(format!(
            "layer spans cover only {:.2}% of job wall (< 95%)",
            (1.0 - share) * 100.0
        ));
    }
    if worst > 0.05 {
        out.problems.push(format!(
            "layer spans cover only {:.2}% of one job's wall (< 95%)",
            (1.0 - worst) * 100.0
        ));
    }
    for r in traced {
        if r.comm_host_s > r.launch_s {
            out.problems.push(format!(
                "{}: comm host time {:.6} s exceeds its launch {:.6} s",
                r.spec.key(),
                r.comm_host_s,
                r.launch_s
            ));
        }
    }
}
