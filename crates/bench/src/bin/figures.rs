//! `figures` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p acc-bench --bin figures -- all
//! cargo run --release -p acc-bench --bin figures -- fig7 --scale scaled
//! cargo run --release -p acc-bench --bin figures -- table2 --scale paper --json out.json
//! cargo run --release -p acc-bench --bin figures -- trace --json heat2d.trace.json
//! ```
//!
//! Targets: `table1`, `table2`, `fig7`, `fig8`, `fig9`, `ablation-chunk`,
//! `ablation-layout`, `ablation-placement`, `ablation-loader-reuse`,
//! `extension-stencil`, `trace`, `bench`, `bench-diff`, `all`.
//! Scales: `small` (seconds), `scaled` (default; structure-preserving
//! reductions of the paper inputs), `paper` (full published sizes).
//! An unknown target, option or value prints the usage line and exits 2.
//!
//! The `trace` target runs the heat2d stencil on 3 simulated GPUs with
//! full span tracing and writes a Chrome trace-event file (open it in
//! `chrome://tracing` or <https://ui.perfetto.dev>) next to the phase
//! summary table.
//!
//! The `bench` target runs every app × GPU count once plus the comm and
//! scaling experiments and writes their simulated results as
//! `BENCH_runtime.json` (see `docs/benchmarks.md`).
//! `bench-diff <old.json> <new.json>` compares two such artifacts exactly
//! and exits 1 on any difference or wrong result, 2 on malformed input.

use acc_apps::Scale;
use acc_bench::*;
use acc_obs::json::Value;
use std::fmt::Write as _;

const TARGETS: [&str; 14] = [
    "table1",
    "table2",
    "fig7",
    "fig8",
    "fig9",
    "ablation-chunk",
    "ablation-layout",
    "ablation-placement",
    "ablation-loader-reuse",
    "extension-stencil",
    "trace",
    "bench",
    "bench-diff",
    "all",
];

const USAGE: &str = "usage: figures [table1|table2|fig7|fig8|fig9|ablation-chunk|\
ablation-layout|ablation-placement|ablation-loader-reuse|extension-stencil|trace|bench|all] \
[--scale small|scaled|paper] [--json FILE] [--seed N]
       figures bench-diff <old.json> <new.json>";

#[derive(Debug, PartialEq)]
struct Args {
    target: String,
    scale: Scale,
    json: Option<String>,
    seed: u64,
    /// The two artifact paths of `bench-diff`; empty for every other
    /// target.
    paths: Vec<String>,
}

/// Parse `argv` (without the program name). `Ok(None)` asks for the
/// usage text; `Err` names the bad argument.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        target: "all".to_string(),
        scale: Scale::Scaled,
        json: None,
        seed: 42,
        paths: Vec::new(),
    };
    let mut target = None;
    let mut it = argv.iter().map(String::as_str);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a {
            "--scale" => {
                args.scale = match value()? {
                    "small" => Scale::Small,
                    "scaled" => Scale::Scaled,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale `{other}`")),
                }
            }
            "--json" => args.json = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--help" | "-h" => return Ok(None),
            opt if opt.starts_with('-') => return Err(format!("unknown option `{opt}`")),
            t if target.is_none() => {
                if !TARGETS.contains(&t) {
                    return Err(format!("unknown target `{t}`"));
                }
                target = Some(t);
            }
            path => args.paths.push(path.to_string()),
        }
    }
    if let Some(t) = target {
        args.target = t.to_string();
    }
    let want = if args.target == "bench-diff" { 2 } else { 0 };
    if args.paths.len() != want {
        return Err(format!(
            "`{}` takes {want} file arguments, got {}",
            args.target,
            args.paths.len()
        ));
    }
    Ok(Some(args))
}

/// The `bench-diff` target: compare two `BENCH_runtime.json` artifacts.
/// Exit 0 when every value matches, 1 on any mismatch or wrong result,
/// 2 on unreadable or malformed input.
fn run_bench_diff_target(args: &Args) -> ! {
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bench-diff: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let (old_doc, new_doc) = (read(&args.paths[0]), read(&args.paths[1]));
    match bench_diff(&old_doc, &new_doc) {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(if report.failed() { 1 } else { 0 });
        }
        Err(e) => {
            eprintln!("bench-diff: {e}");
            std::process::exit(2);
        }
    }
}

/// The `trace` target: heat2d on 3 simulated GPUs with span-level
/// tracing; prints the summary table and writes the Chrome trace.
fn run_trace_target(args: &Args) {
    use acc_compiler::CompileOptions;
    use acc_gpusim::Machine;
    use acc_runtime::prelude::*;

    let cfg = match args.scale {
        Scale::Small => acc_apps::heat2d::Heat2dConfig::small(),
        _ => acc_apps::heat2d::Heat2dConfig::scaled(),
    };
    let input = acc_apps::heat2d::generate(&cfg, args.seed);
    let prog = acc_compiler::compile_source(
        acc_apps::heat2d::SOURCE,
        acc_apps::heat2d::FUNCTION,
        &CompileOptions::proposal(),
    )
    .unwrap();
    let mut m = Machine::supercomputer_node();
    let (scalars, arrays) = acc_apps::heat2d::inputs(&input);
    let ec = ExecConfig::gpus(3).tracing(TraceLevel::Spans);
    let r = match run_program(&mut m, &ec, &prog, scalars, arrays) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("figures: trace run failed: [{}] {e}", e.code());
            std::process::exit(1);
        }
    };
    print!("{}", r.trace.summary_table());
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| "heat2d.trace.json".to_string());
    std::fs::write(&path, r.trace.chrome_trace()).expect("write trace");
    eprintln!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
}

/// The `bench` target: every simulated result `bench-diff` pins,
/// printed as tables and written as `BENCH_runtime.json`.
fn run_bench_target(args: &Args) {
    eprintln!(
        "running the bench points at scale `{}`",
        scale_name(args.scale)
    );
    let points = bench_runtime(args.scale, args.seed, true);
    println!(
        "  {:<8} {:>5} {:>12} {:>12} {:>8}",
        "App", "GPUs", "sim time", "comm sim", "correct"
    );
    for p in &points {
        println!(
            "  {:<8} {:>5} {:>11.6}s {:>11.6}s {:>8}",
            p.app, p.ngpus, p.sim_s, p.comm_sim_s, p.correct
        );
    }
    let comm = bench_comm(args.scale, args.seed, true);
    println!(
        "  {:<8} {:<15} {:>5} {:>12} {:>10} {:>8} {:>8}",
        "App", "Mode", "GPUs", "comm sim", "p2p MB", "elided", "matches"
    );
    for c in &comm {
        println!(
            "  {:<8} {:<15} {:>5} {:>11.6}s {:>10.2} {:>8} {:>8}",
            c.app,
            c.mode,
            c.ngpus,
            c.comm_sim_s,
            c.p2p_bytes as f64 / 1e6,
            c.comm_elisions,
            c.matches_annotated
        );
    }
    let scaling = bench_scaling(args.scale, args.seed, true);
    println!(
        "  {:<8} {:>5} {:<8} {:>8} {:>12} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "App",
        "GPUs",
        "Topo",
        "overlap",
        "sim time",
        "comm sim",
        "cpu-gpu",
        "hidden",
        "p2p MB",
        "correct"
    );
    for s in &scaling {
        println!(
            "  {:<8} {:>5} {:<8} {:>8} {:>11.6}s {:>11.6}s {:>11.6}s {:>11.6}s {:>10.2} {:>8}",
            s.app,
            s.ngpus,
            s.topo,
            s.overlap,
            s.sim_s,
            s.comm_sim_s,
            s.cpu_gpu_s,
            s.overlap_hidden_s,
            s.p2p_mb,
            s.correct
        );
    }
    let json = bench_json(args.scale, args.seed, &points, &comm, &scaling).to_string_pretty();
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| "BENCH_runtime.json".to_string());
    std::fs::write(&path, json).expect("write bench json");
    eprintln!("wrote {path}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("figures: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.target == "trace" {
        run_trace_target(&args);
        return;
    }
    if args.target == "bench" {
        run_bench_target(&args);
        return;
    }
    if args.target == "bench-diff" {
        run_bench_diff_target(&args);
    }
    let mut out: Vec<(&'static str, Value)> = Vec::new();
    let all = args.target == "all";
    let mut text = String::new();

    if all || args.target == "table1" {
        let t = table1();
        let _ = writeln!(text, "== Table I: machine settings ==");
        for r in &t {
            let _ = writeln!(
                text,
                "  {:<20} CPU: {:<28} OMP threads: {:<3} GPUs: {:<18} {:>4.1} GB each  \
                 PCIe {:.1}/{:.1} GB/s (h2d/p2p)",
                r.machine, r.cpu, r.omp_threads, r.gpus, r.gpu_mem_gb, r.h2d_gbs, r.p2p_gbs
            );
        }
        out.push((
            "table1",
            Value::Arr(
                t.iter()
                    .map(|r| {
                        Value::obj([
                            ("machine", Value::str(&r.machine)),
                            ("cpu", Value::str(&r.cpu)),
                            ("omp_threads", Value::num(r.omp_threads as f64)),
                            ("gpus", Value::str(&r.gpus)),
                            ("gpu_mem_gb", Value::num(r.gpu_mem_gb)),
                            ("h2d_gbs", Value::num(r.h2d_gbs)),
                            ("p2p_gbs", Value::num(r.p2p_gbs)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "table2" {
        let t = table2(args.scale);
        let _ = writeln!(text, "\n== Table II: application characteristics ==");
        let _ = writeln!(
            text,
            "  {:<8} {:<16} {:<28} {:>10} {:>3} {:>4} {:>6} {:>8}",
            "App", "Description", "Input", "A(MB)", "B", "C", "D", "correct"
        );
        for r in &t {
            let _ = writeln!(
                text,
                "  {:<8} {:<16} {:<28} {:>10.1} {:>3} {:>4} {:>6} {:>8}",
                r.app,
                r.description,
                r.input,
                r.device_mb,
                r.parallel_loops,
                r.kernel_execs,
                r.localaccess,
                r.correct
            );
        }
        out.push((
            "table2",
            Value::Arr(
                t.iter()
                    .map(|r| {
                        Value::obj([
                            ("app", Value::str(&r.app)),
                            ("description", Value::str(&r.description)),
                            ("input", Value::str(&r.input)),
                            ("device_mb", Value::num(r.device_mb)),
                            ("parallel_loops", Value::num(r.parallel_loops as f64)),
                            ("kernel_execs", Value::num(r.kernel_execs as f64)),
                            ("localaccess", Value::str(&r.localaccess)),
                            ("correct", Value::Bool(r.correct)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    // Figs. 7–9 share one evaluation matrix (every machine × app ×
    // version run exactly once).
    let matrix = if all || ["fig7", "fig8", "fig9"].contains(&args.target.as_str()) {
        Some(run_matrix(args.scale, args.seed, true))
    } else {
        None
    };

    if all || args.target == "fig7" {
        let t = fig7_from(matrix.as_deref().unwrap());
        let _ = writeln!(
            text,
            "\n== Fig. 7: relative performance (normalised to OpenMP) =="
        );
        let mut cur = String::new();
        for b in &t {
            let hdr = format!("{} / {}", b.machine, b.app);
            if hdr != cur {
                let _ = writeln!(text, "  -- {hdr} --");
                cur = hdr;
            }
            let _ = writeln!(
                text,
                "    {:<18} {:>6.2}x {}",
                b.version,
                b.relative_perf,
                if b.correct { "" } else { "  !! WRONG RESULT" }
            );
        }
        out.push((
            "fig7",
            Value::Arr(
                t.iter()
                    .map(|b| {
                        Value::obj([
                            ("machine", Value::str(&b.machine)),
                            ("app", Value::str(&b.app)),
                            ("version", Value::str(&b.version)),
                            ("relative_perf", Value::num(b.relative_perf)),
                            ("correct", Value::Bool(b.correct)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "fig8" {
        let t = fig8_from(matrix.as_deref().unwrap());
        let _ = writeln!(
            text,
            "\n== Fig. 8: execution-time breakdown (normalised to 1-GPU total) =="
        );
        let mut cur = String::new();
        for b in &t {
            let hdr = format!("{} / {}", b.machine, b.app);
            if hdr != cur {
                let _ = writeln!(text, "  -- {hdr} --");
                cur = hdr;
            }
            let _ = writeln!(
                text,
                "    {} GPU: KERNELS {:>5.2}  CPU-GPU {:>5.2}  GPU-GPU {:>5.2}  | total {:>5.2}",
                b.ngpus,
                b.kernels,
                b.cpu_gpu,
                b.gpu_gpu,
                b.kernels + b.cpu_gpu + b.gpu_gpu
            );
        }
        out.push((
            "fig8",
            Value::Arr(
                t.iter()
                    .map(|b| {
                        Value::obj([
                            ("machine", Value::str(&b.machine)),
                            ("app", Value::str(&b.app)),
                            ("ngpus", Value::num(b.ngpus as f64)),
                            ("kernels", Value::num(b.kernels)),
                            ("cpu_gpu", Value::num(b.cpu_gpu)),
                            ("gpu_gpu", Value::num(b.gpu_gpu)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "fig9" {
        let t = fig9_from(matrix.as_deref().unwrap());
        let _ = writeln!(
            text,
            "\n== Fig. 9: device memory usage (normalised to 1-GPU user data) =="
        );
        let mut cur = String::new();
        for b in &t {
            let hdr = format!("{} / {}", b.machine, b.app);
            if hdr != cur {
                let _ = writeln!(text, "  -- {hdr} --");
                cur = hdr;
            }
            let _ = writeln!(
                text,
                "    {} GPU: User {:>6.3}  System {:>7.4} ({:.2}% of 1-GPU user data)",
                b.ngpus,
                b.user,
                b.system,
                b.system * 100.0
            );
        }
        out.push((
            "fig9",
            Value::Arr(
                t.iter()
                    .map(|b| {
                        Value::obj([
                            ("machine", Value::str(&b.machine)),
                            ("app", Value::str(&b.app)),
                            ("ngpus", Value::num(b.ngpus as f64)),
                            ("user", Value::num(b.user)),
                            ("system", Value::num(b.system)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "ablation-chunk" {
        let t = ablation_chunk(args.scale, args.seed);
        let _ = writeln!(
            text,
            "\n== Ablation §IV-D1: dirty-bit chunk size (BFS, node, 3 GPUs) =="
        );
        let mut cur = String::new();
        for p in &t {
            if p.workload != cur {
                let _ = writeln!(text, "  -- {} --", p.workload);
                cur = p.workload.clone();
            }
            let _ = writeln!(
                text,
                "    chunk {:>6} KB: GPU-GPU {:>9.5}s  total {:>9.4}s  chunks sent {:>8}  p2p {:>8.2} MB",
                p.chunk_kb, p.gpu_gpu_time, p.total_time, p.dirty_chunks_sent, p.p2p_mb
            );
        }
        out.push((
            "ablation_chunk",
            Value::Arr(
                t.iter()
                    .map(|p| {
                        Value::obj([
                            ("workload", Value::str(&p.workload)),
                            ("chunk_kb", Value::num(p.chunk_kb as f64)),
                            ("gpu_gpu_time", Value::num(p.gpu_gpu_time)),
                            ("total_time", Value::num(p.total_time)),
                            ("dirty_chunks_sent", Value::num(p.dirty_chunks_sent as f64)),
                            ("p2p_mb", Value::num(p.p2p_mb)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "ablation-layout" {
        let t = ablation_layout(args.scale, args.seed);
        let _ = writeln!(
            text,
            "\n== Ablation §IV-B4: 2-D layout transform (desktop, 2 GPUs) =="
        );
        for p in &t {
            let _ = writeln!(
                text,
                "  {:<8} transform={:<5}  kernels {:>9.4}s  total {:>9.4}s",
                p.app, p.transform, p.kernels_time, p.total_time
            );
        }
        out.push((
            "ablation_layout",
            Value::Arr(
                t.iter()
                    .map(|p| {
                        Value::obj([
                            ("app", Value::str(&p.app)),
                            ("transform", Value::Bool(p.transform)),
                            ("kernels_time", Value::num(p.kernels_time)),
                            ("total_time", Value::num(p.total_time)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "ablation-placement" {
        let t = ablation_placement(args.scale, args.seed);
        let _ = writeln!(
            text,
            "\n== Ablation §IV-C: distribution vs replica placement (desktop, 2 GPUs) =="
        );
        for p in &t {
            let _ = writeln!(
                text,
                "  {:<8} distribution={:<5}  h2d {:>8.1} MB  user mem {:>8.1} MB  total {:>9.4}s",
                p.app, p.distribution, p.h2d_mb, p.user_mem_mb, p.total_time
            );
        }
        out.push((
            "ablation_placement",
            Value::Arr(
                t.iter()
                    .map(|p| {
                        Value::obj([
                            ("app", Value::str(&p.app)),
                            ("distribution", Value::Bool(p.distribution)),
                            ("h2d_mb", Value::num(p.h2d_mb)),
                            ("total_time", Value::num(p.total_time)),
                            ("user_mem_mb", Value::num(p.user_mem_mb)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "ablation-loader-reuse" {
        let t = ablation_loader_reuse(args.scale, args.seed);
        let _ = writeln!(
            text,
            "\n== Ablation §IV-C: loader reload-skipping (desktop, 2 GPUs) =="
        );
        for p in &t {
            let _ = writeln!(
                text,
                "  {:<8} reuse={:<5}  h2d {:>8.1} MB  cpu-gpu {:>9.4}s  total {:>9.4}s",
                p.app, p.reuse, p.h2d_mb, p.cpu_gpu_time, p.total_time
            );
        }
        out.push((
            "ablation_loader_reuse",
            Value::Arr(
                t.iter()
                    .map(|p| {
                        Value::obj([
                            ("app", Value::str(&p.app)),
                            ("reuse", Value::Bool(p.reuse)),
                            ("h2d_mb", Value::num(p.h2d_mb)),
                            ("cpu_gpu_time", Value::num(p.cpu_gpu_time)),
                            ("total_time", Value::num(p.total_time)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    if all || args.target == "extension-stencil" {
        let t = extension_stencil(args.scale, args.seed);
        let _ = writeln!(
            text,
            "\n== Extension §VI: 2-D heat stencil via 1-D row distribution =="
        );
        let mut cur = String::new();
        for p in &t {
            if p.machine != cur {
                let _ = writeln!(text, "  -- {} --", p.machine);
                cur = p.machine.clone();
            }
            let _ = writeln!(
                text,
                "    {} GPU: {:>5.2}x vs 1 GPU | kernels {:>8.4}s cpu-gpu {:>8.4}s \
                 gpu-gpu {:>8.4}s | halo p2p {:>7.1} MB | miss checks {:>9}{}",
                p.ngpus,
                p.relative_perf_vs_1gpu,
                p.kernels_time,
                p.cpu_gpu_time,
                p.gpu_gpu_time,
                p.p2p_mb,
                p.miss_checks,
                if p.correct { "" } else { "  !! WRONG" }
            );
        }
        out.push((
            "extension_stencil",
            Value::Arr(
                t.iter()
                    .map(|p| {
                        Value::obj([
                            ("machine", Value::str(&p.machine)),
                            ("ngpus", Value::num(p.ngpus as f64)),
                            ("relative_perf_vs_1gpu", Value::num(p.relative_perf_vs_1gpu)),
                            ("kernels_time", Value::num(p.kernels_time)),
                            ("cpu_gpu_time", Value::num(p.cpu_gpu_time)),
                            ("gpu_gpu_time", Value::num(p.gpu_gpu_time)),
                            ("p2p_mb", Value::num(p.p2p_mb)),
                            ("miss_checks", Value::num(p.miss_checks as f64)),
                            ("correct", Value::Bool(p.correct)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    print!("{text}");
    if let Some(path) = args.json {
        let json = Value::obj(out).to_string_pretty();
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Option<Args>, String> {
        parse_args(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_every_option_parse() {
        let a = parse(&[]).unwrap().unwrap();
        assert_eq!(
            (a.target.as_str(), a.scale, a.json, a.seed),
            ("all", Scale::Scaled, None, 42)
        );
        let a = parse(&[
            "fig7", "--scale", "small", "--json", "o.json", "--seed", "7",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(
            a,
            Args {
                target: "fig7".into(),
                scale: Scale::Small,
                json: Some("o.json".into()),
                seed: 7,
                paths: vec![],
            }
        );
        let a = parse(&["bench-diff", "old.json", "new.json"])
            .unwrap()
            .unwrap();
        assert_eq!(a.paths, ["old.json", "new.json"]);
        for t in TARGETS {
            let paths: &[&str] = if t == "bench-diff" { &["a", "b"] } else { &[] };
            assert!(parse(&[&[t], paths].concat()).is_ok(), "{t}");
        }
        assert_eq!(parse(&["--help"]), Ok(None));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for (argv, msg) in [
            (&["no-such-target"][..], "unknown target `no-such-target`"),
            (&["fig10", "--seed", "1"], "unknown target `fig10`"),
            (&["fig7", "--seed", "abc"], "bad --seed `abc`"),
            (&["fig7", "--seed", "-1"], "bad --seed `-1`"),
            (&["fig7", "--seed"], "--seed needs a value"),
            (&["trace", "--json"], "--json needs a value"),
            (&["--scale", "huge"], "unknown scale `huge`"),
            (&["--scale"], "--scale needs a value"),
            (&["bench", "--reps", "1"], "unknown option `--reps`"),
            (
                &["bench-diff", "a.json"],
                "`bench-diff` takes 2 file arguments, got 1",
            ),
            (&["fig7", "extra"], "`fig7` takes 0 file arguments, got 1"),
        ] {
            assert_eq!(parse(argv), Err(msg.to_string()), "{argv:?}");
        }
    }
}
