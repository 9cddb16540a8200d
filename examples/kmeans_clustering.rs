//! KMEANS scenario: the `reductiontoarray` showcase. Runs the clustering
//! benchmark and reports the centroids plus the inter-GPU reduction
//! traffic the extension generates.
//!
//! ```text
//! cargo run --release -p acc-apps --example kmeans_clustering [--paper]
//! ```

use acc_apps::{kmeans, run_app, App, Scale, Version};
use acc_gpusim::Machine;

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let scale = if paper { Scale::Paper } else { Scale::Scaled };
    let cfg = if paper {
        kmeans::KmeansConfig::paper()
    } else {
        kmeans::KmeansConfig {
            npoints: 24_700,
            ..kmeans::KmeansConfig::paper()
        }
    };
    println!(
        "KMEANS: {} points x {} features, k={}, {} iterations ({} kernel executions)",
        cfg.npoints,
        cfg.nfeatures,
        cfg.nclusters,
        cfg.iters,
        2 * cfg.iters
    );

    println!(
        "\n{:<18} {:>11} {:>11} {:>11} {:>9} {:>8}",
        "version", "total (ms)", "kernels", "gpu-gpu", "launches", "correct"
    );
    for v in [
        Version::OpenMP,
        Version::Cuda,
        Version::Proposal(1),
        Version::Proposal(2),
        Version::Proposal(3),
    ] {
        let mut m = Machine::supercomputer_node();
        let r = run_app(App::Kmeans, v, &mut m, scale, 42).expect("run");
        println!(
            "{:<18} {:>11.3} {:>11.3} {:>11.3} {:>9} {:>8}",
            v.label(),
            r.profile.time.parallel_region() * 1e3,
            r.profile.time.kernels * 1e3,
            r.profile.time.gpu_gpu * 1e3,
            r.trace.counters().kernel_launches,
            r.correct
        );
    }
    println!("\nThe accumulation loop reduces into `new_centers[membership[i]*nf+f]`");
    println!("— a dynamically indexed destination. The reductiontoarray directive");
    println!("lets each GPU accumulate privately; the communication manager merges");
    println!("the tiny k x nfeatures copies afterwards (small GPU-GPU column).");
}
