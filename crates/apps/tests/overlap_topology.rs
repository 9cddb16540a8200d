//! Acceptance tests for the hierarchical-topology runtime features:
//! double-buffered halo overlap (pricing-only, `SanitizeLevel::Full`
//! re-arms the synchronous path bit-identically) and topology-aware
//! reduction collectives, on real apps at 16–64 simulated GPUs.

use acc_apps::{heat2d, pagerank, run_app_with_config, App, AppResult, Scale, Version};
use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_obs::{Event, Trace};
use acc_runtime::prelude::*;

fn run_heat2d(machine: &mut Machine, ecfg: &ExecConfig, seed: u64) -> RunReport {
    let cfg = heat2d::Heat2dConfig::small();
    let input = heat2d::generate(&cfg, seed);
    let prog =
        compile_source(heat2d::SOURCE, heat2d::FUNCTION, &CompileOptions::proposal()).unwrap();
    let (scalars, arrays) = heat2d::inputs(&input);
    run_program(machine, ecfg, &prog, scalars, arrays).unwrap()
}

fn run_pagerank(machine: &mut Machine, ecfg: &ExecConfig, seed: u64) -> RunReport {
    let cfg = pagerank::PagerankConfig::small();
    let input = pagerank::generate(&cfg, seed);
    let prog = compile_source(
        pagerank::SOURCE,
        pagerank::FUNCTION,
        &CompileOptions::proposal(),
    )
    .unwrap();
    let (scalars, arrays) = pagerank::inputs(&input);
    run_program(machine, ecfg, &prog, scalars, arrays).unwrap()
}

#[test]
fn overlap_is_pricing_only_and_hides_loader_time() {
    // The knob must never change array contents — the functional halo
    // copies stay in program order — and on a hierarchical machine with
    // halo traffic it must actually hide loader-critical-path seconds.
    let base = ExecConfig::gpus(16);
    let on = ExecConfig::gpus(16).overlap(true);
    let r_off = run_heat2d(&mut Machine::cluster(16), &base, 5);
    let r_on = run_heat2d(&mut Machine::cluster(16), &on, 5);
    assert_eq!(
        r_off.arrays[heat2d::PLATE_ARRAY].to_f64_vec(),
        r_on.arrays[heat2d::PLATE_ARRAY].to_f64_vec(),
        "overlap changed array contents"
    );
    let c = r_on.trace.counters();
    assert!(c.overlap_windows > 0, "no overlap windows recorded");
    assert!(c.overlap_hidden_ns > 0, "overlap hid no loader time");
    assert_eq!(r_off.trace.counters().overlap_windows, 0);
    // Hiding halo fills under compute can only shorten the total.
    assert!(
        r_on.total_time() <= r_off.total_time() + 1e-12,
        "overlap lengthened the run: {} > {}",
        r_on.total_time(),
        r_off.total_time()
    );
    assert!(
        r_on.profile.time.cpu_gpu < r_off.profile.time.cpu_gpu,
        "overlap did not shrink the synchronous loader share"
    );
}

#[test]
fn full_sanitize_rearms_the_synchronous_path_bit_identically() {
    // Under SanitizeLevel::Full the overlap knob must be inert: arrays
    // AND the full event stream (all simulated times included) match a
    // run with the knob off.
    let off = ExecConfig::gpus(16)
        .sanitize(SanitizeLevel::Full)
        .tracing(TraceLevel::Spans);
    let on = off.clone().overlap(true);
    let r_off = run_heat2d(&mut Machine::cluster(16), &off, 11);
    let r_on = run_heat2d(&mut Machine::cluster(16), &on, 11);
    assert_eq!(
        r_off.arrays[heat2d::PLATE_ARRAY].to_f64_vec(),
        r_on.arrays[heat2d::PLATE_ARRAY].to_f64_vec()
    );
    assert_eq!(r_on.trace.counters().overlap_windows, 0);
    assert_eq!(
        r_off.trace.render_text(),
        r_on.trace.render_text(),
        "event streams diverged under Full re-arming"
    );
}

#[test]
fn heat2d_comm_time_shrinks_on_cluster_with_overlap_at_16_gpus() {
    let cfg = heat2d::Heat2dConfig::small();
    let input = heat2d::generate(&cfg, 9);
    let expect = heat2d::reference(&input);
    let prog =
        compile_source(heat2d::SOURCE, heat2d::FUNCTION, &CompileOptions::proposal()).unwrap();
    let comm = |machine: &mut Machine, ecfg: &ExecConfig| {
        let (scalars, arrays) = heat2d::inputs(&input);
        let r = run_program(machine, ecfg, &prog, scalars, arrays).unwrap();
        let err = heat2d::max_error(&r.arrays[heat2d::PLATE_ARRAY].to_f64_vec(), &expect);
        assert!(err < 1e-12, "err={err}");
        r.profile.time.cpu_gpu + r.profile.time.gpu_gpu
    };
    let flat = comm(
        &mut Machine::supercomputer_node_with_gpus(16),
        &ExecConfig::gpus(16),
    );
    let clustered = comm(
        &mut Machine::cluster(16),
        &ExecConfig::gpus(16).overlap(true),
    );
    assert!(
        clustered < flat,
        "topology-aware + overlap comm not cheaper: cluster={clustered} flat={flat}"
    );
}

#[test]
fn pagerank_comm_time_shrinks_on_cluster_at_16_gpus() {
    let cfg = pagerank::PagerankConfig::small();
    let input = pagerank::generate(&cfg, 13);
    let expect = pagerank::reference(&input);
    let prog = compile_source(
        pagerank::SOURCE,
        pagerank::FUNCTION,
        &CompileOptions::proposal(),
    )
    .unwrap();
    let comm = |machine: &mut Machine, ecfg: &ExecConfig| {
        let (scalars, arrays) = pagerank::inputs(&input);
        let r = run_program(machine, ecfg, &prog, scalars, arrays).unwrap();
        let err = pagerank::max_error(&r.arrays[pagerank::RANK_ARRAY].to_f64_vec(), &expect);
        assert!(err < 1e-9, "err={err}");
        r.profile.time.cpu_gpu + r.profile.time.gpu_gpu
    };
    let flat = comm(
        &mut Machine::supercomputer_node_with_gpus(16),
        &ExecConfig::gpus(16),
    );
    let clustered = comm(
        &mut Machine::cluster(16),
        &ExecConfig::gpus(16).overlap(true),
    );
    assert!(
        clustered < flat,
        "hierarchical collectives not cheaper: cluster={clustered} flat={flat}"
    );
}

#[test]
fn hierarchical_reduction_emits_leveled_collective_rounds() {
    // 64 cluster GPUs = 8 islands × 8 over 4 nodes: the reduction tree
    // must produce rounds at all three levels, and the flat preset none.
    let ecfg = ExecConfig::gpus(64).tracing(TraceLevel::Summary);
    let r = run_pagerank(&mut Machine::cluster(64), &ecfg, 17);
    assert!(r.trace.counters().collective_rounds > 0);
    let levels: std::collections::BTreeSet<&str> = r
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Collective(c) => Some(c.level),
            _ => None,
        })
        .collect();
    for want in ["intra-island", "inter-island", "inter-node"] {
        assert!(levels.contains(want), "missing level {want}: {levels:?}");
    }

    let flat_cfg = ExecConfig::gpus(16).tracing(TraceLevel::Summary);
    let r = run_pagerank(
        &mut Machine::supercomputer_node_with_gpus(16),
        &flat_cfg,
        17,
    );
    assert_eq!(
        r.trace.counters().collective_rounds,
        0,
        "flat topology must keep the seed's single-level tree"
    );
}

#[test]
#[ignore = "release-mode CI smoke: full sanitize at 8 and 16 cluster GPUs"]
fn scaling_smoke_full_sanitize_cluster_with_overlap_armed() {
    // The CI scaling job: both scaling apps on the cluster topology at
    // 8 and 16 GPUs, fully sanitized, with the overlap knob armed (Full
    // re-arms the synchronous schedule, so this also exercises the
    // re-arming path at scale). Everything must pass its oracle.
    for ngpus in [8usize, 16] {
        let ecfg = ExecConfig::gpus(ngpus)
            .sanitize(SanitizeLevel::Full)
            .overlap(true);

        let input = heat2d::generate(&heat2d::Heat2dConfig::small(), 42);
        let expect = heat2d::reference(&input);
        let prog =
            compile_source(heat2d::SOURCE, heat2d::FUNCTION, &CompileOptions::proposal()).unwrap();
        let (scalars, arrays) = heat2d::inputs(&input);
        let r = run_program(&mut Machine::cluster(ngpus), &ecfg, &prog, scalars, arrays).unwrap();
        let err = heat2d::max_error(&r.arrays[heat2d::PLATE_ARRAY].to_f64_vec(), &expect);
        assert!(err < 1e-12, "heat2d x{ngpus}: err={err}");

        let input = pagerank::generate(&pagerank::PagerankConfig::small(), 42);
        let expect = pagerank::reference(&input);
        let prog = compile_source(
            pagerank::SOURCE,
            pagerank::FUNCTION,
            &CompileOptions::proposal(),
        )
        .unwrap();
        let (scalars, arrays) = pagerank::inputs(&input);
        let r = run_program(&mut Machine::cluster(ngpus), &ecfg, &prog, scalars, arrays).unwrap();
        let err = pagerank::max_error(&r.arrays[pagerank::RANK_ARRAY].to_f64_vec(), &expect);
        assert!(err < 1e-9, "pagerank x{ngpus}: err={err}");
    }
}

#[test]
fn overlap_on_flat_topology_keeps_results_and_stays_armed() {
    // The overlap gate is the compiler fact, not the topology: a flat
    // bus still benefits (halo fills exist there too), and results stay
    // identical to the synchronous schedule.
    let mut m1 = Machine::supercomputer_node_with_gpus(8);
    let mut m2 = Machine::supercomputer_node_with_gpus(8);
    let r_off = run_heat2d(&mut m1, &ExecConfig::gpus(8), 21);
    let r_on = run_heat2d(&mut m2, &ExecConfig::gpus(8).overlap(true), 21);
    assert_eq!(
        r_off.arrays[heat2d::PLATE_ARRAY].to_f64_vec(),
        r_on.arrays[heat2d::PLATE_ARRAY].to_f64_vec()
    );
    assert!(r_on.trace.counters().overlap_windows > 0);
    assert!(r_on.total_time() <= r_off.total_time() + 1e-12);
}

/// Assert that the retained `Phase` spans tile `[0, totals().total()]`:
/// sorted by start, each begins where the previous one ended, with no
/// gap (time the totals miss) and no overlap (time counted twice).
fn assert_phases_tile(trace: &Trace, what: &str) {
    let mut spans: Vec<(f64, f64)> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Phase(p) => Some((p.start, p.end)),
            _ => None,
        })
        .collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = trace.totals().total();
    let eps = 1e-12 + 1e-12 * total;
    let mut at = 0.0;
    for (start, end) in spans {
        assert!(
            (start - at).abs() <= eps,
            "{what}: phase [{start}, {end}] does not start where the last one ended ({at})"
        );
        at = end;
    }
    assert!(
        (at - total).abs() <= 1e-9 * total.max(1e-3),
        "{what}: phases end at {at} but the totals sum to {total}"
    );
}

fn run_traced(app: App, ngpus: usize, machine: &mut Machine, overlap: bool) -> AppResult {
    let version = Version::Proposal(ngpus);
    let cfg = version
        .exec_config()
        .overlap(overlap)
        .tracing(TraceLevel::Spans);
    let r = run_app_with_config(app, version, machine, Scale::Small, 42, &cfg).unwrap();
    assert!(r.correct, "{} x{ngpus} overlap={overlap} wrong", app.name());
    r
}

#[test]
fn phase_spans_tile_the_timeline_and_overlap_counts_its_saving() {
    // Every app at 1-3 GPUs on the node, plus the two halo apps on two
    // cluster islands, where fills outlive their kernels.
    let mut cases: Vec<(App, usize)> = Vec::new();
    for app in App::ALL {
        cases.extend((1..=3).map(|ngpus| (app, ngpus)));
    }
    cases.extend([(App::Heat2d, 16), (App::Pagerank, 16)]);
    let mut saved_somewhere = false;
    for (app, ngpus) in cases {
        let machine = || match ngpus {
            1..=3 => Machine::supercomputer_node(),
            n => Machine::cluster(n),
        };
        let off = run_traced(app, ngpus, &mut machine(), false);
        let on = run_traced(app, ngpus, &mut machine(), true);
        let what = format!("{} x{ngpus}", app.name());
        assert_phases_tile(&off.trace, &format!("{what} overlap off"));
        assert_phases_tile(&on.trace, &format!("{what} overlap on"));
        // The counter is the critical-path saving: exactly what the
        // overlap-off run spends beyond the overlapped one, to within
        // the counter's nanosecond rounding per launch.
        let c = on.trace.counters();
        let saved_ns = (off.trace.totals().total() - on.trace.totals().total()) * 1e9;
        assert!(
            (c.overlap_hidden_ns as f64 - saved_ns).abs() <= c.kernel_launches as f64,
            "{what}: overlap_hidden_ns {} but overlap saved {saved_ns} ns",
            c.overlap_hidden_ns
        );
        saved_somewhere |= c.overlap_hidden_ns > 0;
    }
    assert!(saved_somewhere, "no case exercised a background fill");
}
