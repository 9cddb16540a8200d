//! BFS scenario: the communication-bound application. Shows how the
//! two-level dirty-bit replica sync dominates multi-GPU time on the
//! supercomputer node — the paper's negative result for BFS (§V-B2).
//!
//! ```text
//! cargo run --release -p acc-apps --example bfs_traversal [--paper]
//! ```

use acc_apps::{bfs, run_app, App, Scale, Version};
use acc_gpusim::Machine;

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let scale = if paper { Scale::Paper } else { Scale::Scaled };
    let cfg = if paper {
        bfs::BfsConfig::paper()
    } else {
        bfs::BfsConfig::scaled()
    };
    println!(
        "BFS: {} nodes, {} edges, depth {}",
        cfg.nnodes(),
        cfg.nedges(),
        cfg.depth
    );

    println!(
        "\n{:<18} {:>11} {:>11} {:>11} {:>11} {:>8}",
        "version", "total (ms)", "kernels", "cpu-gpu", "gpu-gpu", "correct"
    );
    for v in [
        Version::OpenMP,
        Version::Cuda,
        Version::Proposal(1),
        Version::Proposal(2),
        Version::Proposal(3),
    ] {
        let mut m = Machine::supercomputer_node();
        let r = run_app(App::Bfs, v, &mut m, scale, 42).expect("run");
        let t = r.profile.time;
        println!(
            "{:<18} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>8}",
            v.label(),
            t.parallel_region() * 1e3,
            t.kernels * 1e3,
            t.cpu_gpu * 1e3,
            t.gpu_gpu * 1e3,
            r.correct
        );
    }
    println!("\nThe `levels` array is read AND written through vertex indices,");
    println!("so it stays replica-placed; every level ends with an all-to-all");
    println!("dirty-chunk exchange that grows with the GPU count (Fig. 8, bfs).");
}
