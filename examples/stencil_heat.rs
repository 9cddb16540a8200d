//! Stencil scenario — the paper's §VI future-work case, run through the
//! existing 1-D `localaccess` machinery as a row distribution with halo
//! rows (`stride(cols) left(cols) right(cols)`).
//!
//! ```text
//! cargo run --release -p acc-apps --example stencil_heat
//! ```
//!
//! Shows both that 2-D stencils execute correctly on any GPU count and
//! why the paper calls the improvement "not large": the halo rows refresh
//! on every launch, and the column-offset writes defeat the miss-check
//! elision.

use acc_apps::heat2d;
use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_runtime::{run_program, ExecConfig};

fn main() {
    let cfg = heat2d::Heat2dConfig::scaled();
    println!(
        "HEAT2D: {}x{} plate, {} iterations ({} kernel launches)",
        cfg.rows,
        cfg.cols,
        cfg.iters,
        cfg.iters * 2
    );
    let input = heat2d::generate(&cfg, 42);
    let expect = heat2d::reference(&input);
    let prog =
        compile_source(heat2d::SOURCE, heat2d::FUNCTION, &CompileOptions::proposal()).unwrap();

    println!(
        "\n{:>5} {:>11} {:>11} {:>11} {:>11} {:>10} {:>10}",
        "GPUs", "total (ms)", "kernels", "cpu-gpu", "gpu-gpu", "halo (MB)", "max err"
    );
    for ngpus in 1..=3 {
        let mut m = Machine::supercomputer_node();
        let (scalars, arrays) = heat2d::inputs(&input);
        let r = run_program(&mut m, &ExecConfig::gpus(ngpus), &prog, scalars, arrays)
            .expect("run");
        let t = r.profile.time;
        let err = heat2d::max_error(&r.arrays[heat2d::PLATE_ARRAY].to_f64_vec(), &expect);
        println!(
            "{ngpus:>5} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>10.2} {:>10.2e}",
            t.parallel_region() * 1e3,
            t.kernels * 1e3,
            t.cpu_gpu * 1e3,
            t.gpu_gpu * 1e3,
            r.trace.counters().p2p_bytes as f64 / 1e6,
            err
        );
    }
    println!("\nEvery store into the plate pays a write-miss check (the 1-D");
    println!("localaccess cannot prove `i*cols + j` local), and each sweep");
    println!("re-fetches one halo row per neighbor — §VI's stated limitation.");
}
