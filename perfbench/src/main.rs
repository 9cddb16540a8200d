//! The repository benchmark: runs one named workload from a seed, checks
//! every output against the applications' oracles, and prints each
//! metric by name with its unit. The last line of standard output is
//! the JSON result.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload node-compute --seed 1 --seconds 30 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads and the metrics.

mod gate;
mod jobs;
mod layers;
mod metrics;
mod node;
mod serve;
mod setup;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use spans::Spans;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NodeCompute,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::NodeCompute, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NodeCompute => "node-compute",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <node-compute|serve-mixed> \
--seed <n> --seconds <n> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Host peak resident set (`VmHWM`) of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// Where traced runs write their Chrome traces.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Write the benchmark's spans (and one job's simulated trace, when the
/// workload kept one) as Chrome traces under `perfbench/out/`.
pub fn write_traces(args: &Args, spans: &Spans, sim_trace: Option<&str>, out: &mut Outcome) {
    let dir = out_dir();
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let mut written = Vec::new();
    let mut write = |name: String, body: &str| {
        let path = dir.join(name);
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => written.push(path.display().to_string()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    };
    write(format!("{stem}.spans.trace.json"), &spans.chrome_trace());
    if let Some(sim) = sim_trace {
        write(format!("{stem}.sim.trace.json"), sim);
    }
    out.notes.push(format!("traces: {}", written.join(", ")));
    let mut by_layer: Vec<_> = spans.self_time_by_name().into_iter().collect();
    by_layer.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = by_layer.iter().map(|(_, s)| s).sum();
    for (name, s) in by_layer {
        out.notes.push(format!(
            "self time {name:<22} {s:>10.4} s  {:>5.1}%",
            100.0 * s / total.max(1e-12)
        ));
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Workload::NodeCompute => node::run(&args),
        Workload::ServeMixed => serve::run(&args),
    };
    match result {
        Ok(outcome) => {
            let table = if args.trace { PER_LAYER } else { END_TO_END };
            print!("{}", outcome.render(table));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = parse_args(&argv(
            "--workload serve-mixed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload node-compute --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv(
            "--workload node-compute --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn workload_names_are_the_documented_ones() {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ["node-compute", "serve-mixed"]);
        for n in names {
            assert!(metrics::valid_name(n));
        }
    }
}
