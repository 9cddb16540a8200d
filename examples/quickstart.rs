//! Quickstart: compile and run a single-GPU-style OpenACC program on the
//! simulated multi-GPU machine.
//!
//! ```text
//! cargo run --release -p acc-apps --example quickstart
//! ```
//!
//! The program is written exactly like the paper's Fig. 4 examples: plain
//! C with OpenACC directives plus the proposed `localaccess` extension.
//! Nothing in it mentions multiple GPUs — the compiler and runtime
//! distribute it automatically.

use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, Value};
use acc_runtime::{run_program, ExecConfig};

const SOURCE: &str = r#"
void daxpy_sum(int n, double a, double *x, double *y, double s, double *out) {
#pragma acc data copyin(x[0:n]) copy(y[0:n]) copyout(out[0:1])
{
#pragma acc localaccess(x) stride(1)
#pragma acc localaccess(y) stride(1)
#pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    y[i] = a * x[i] + y[i];
  }
#pragma acc localaccess(y) stride(1)
#pragma acc parallel loop reduction(+:s)
  for (int i = 0; i < n; i++) {
    s += y[i];
  }
#pragma acc parallel loop
  for (int i = 0; i < 1; i++) {
    out[i] = s;
  }
}
}
"#;

fn main() {
    let n = 1_000_000usize;
    println!("compiling daxpy_sum ({n} elements)...");
    let prog = compile_source(SOURCE, "daxpy_sum", &CompileOptions::proposal())
        .expect("frontend + translation");
    println!(
        "  {} kernels generated; localaccess on {}/{} arrays",
        prog.kernels.len(),
        prog.localaccess_ratio().0,
        prog.localaccess_ratio().1
    );
    for k in &prog.kernels {
        println!("  kernel `{}`:", k.kernel.name);
        for c in &k.configs {
            println!(
                "    array `{}`: {:?}, placement {:?}, miss checks elided: {}",
                c.name, c.mode, c.placement, c.miss_check_elided
            );
        }
    }

    let x: Vec<f64> = (0..n).map(|i| (i % 100) as f64).collect();
    let y: Vec<f64> = vec![1.0; n];
    let expect_sum: f64 = x.iter().zip(&y).map(|(x, y)| 2.5 * x + y).sum();

    for ngpus in 1..=2 {
        let mut machine = Machine::desktop();
        let report = run_program(
            &mut machine,
            &ExecConfig::gpus(ngpus),
            &prog,
            vec![Value::I32(n as i32), Value::F64(2.5), Value::F64(0.0)],
            vec![
                Buffer::from_f64(&x),
                Buffer::from_f64(&y),
                Buffer::zeroed(acc_kernel_ir::Ty::F64, 1),
            ],
        )
        .expect("run");
        let got = report.arrays[2].to_f64_vec()[0];
        let t = report.profile.time;
        println!(
            "\n{ngpus} GPU{}: sum = {got:.1} (expected {expect_sum:.1}, diff {:.2e})",
            if ngpus > 1 { "s" } else { " " },
            (got - expect_sum).abs()
        );
        println!(
            "  simulated time: kernels {:.3} ms, CPU-GPU {:.3} ms, GPU-GPU {:.3} ms",
            t.kernels * 1e3,
            t.cpu_gpu * 1e3,
            t.gpu_gpu * 1e3
        );
        println!(
            "  transfers: {:.1} MB host->device, {:.1} MB device->host",
            report.trace.counters().h2d_bytes as f64 / 1e6,
            report.trace.counters().d2h_bytes as f64 / 1e6
        );
    }
}
