//! MD scenario: run the SHOC Lennard-Jones benchmark in every program
//! version of the paper's evaluation and print a Fig. 7-style comparison.
//!
//! ```text
//! cargo run --release -p acc-apps --example md_simulation [--paper]
//! ```

use acc_apps::{md, run_app, App, Scale, Version};
use acc_gpusim::Machine;

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let scale = if paper { Scale::Paper } else { Scale::Scaled };
    let cfg = if paper {
        md::MdConfig::paper()
    } else {
        md::MdConfig {
            nx: 24,
            ny: 24,
            nz: 16,
            ..md::MdConfig::paper()
        }
    };
    println!(
        "MD: {} atoms, {} neighbors each ({} scale)",
        cfg.natoms(),
        cfg.maxneigh,
        if paper { "paper" } else { "scaled" }
    );

    let versions = [
        Version::OpenMP,
        Version::PgiAcc,
        Version::Cuda,
        Version::Proposal(1),
        Version::Proposal(2),
    ];
    let mut openmp_time = None;
    println!(
        "\n{:<18} {:>12} {:>10} {:>9} {:>9} {:>8}",
        "version", "time (ms)", "vs OpenMP", "h2d (MB)", "p2p (MB)", "correct"
    );
    for v in versions {
        let mut m = Machine::desktop();
        let r = run_app(App::Md, v, &mut m, scale, 42).expect("run");
        let t = r.profile.time.parallel_region();
        let c = r.trace.counters();
        let base = *openmp_time.get_or_insert(t);
        println!(
            "{:<18} {:>12.3} {:>9.2}x {:>9.1} {:>9.1} {:>8}",
            v.label(),
            t * 1e3,
            base / t,
            c.h2d_bytes as f64 / 1e6,
            c.p2p_bytes as f64 / 1e6,
            r.correct
        );
    }
    println!("\nNote: MD needs no inter-GPU communication (p2p = 0), which is");
    println!("why it scales almost linearly with the number of GPUs (§V-B).");
}
