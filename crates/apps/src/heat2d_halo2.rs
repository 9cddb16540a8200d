//! HEAT2D-HALO2 — an *in-place* vertical diffusion sweep with a
//! distance-2 carried dependence, the showcase workload for the
//! distance/direction-vector analysis ([`acc_compiler::depend`]) and the
//! wavefront schedule it licenses.
//!
//! Each row update reads two rows above and one row below **the array it
//! writes**:
//!
//! ```text
//! u[i] = 0.25 * (u[i-2] + u[i-1] + u[i] + u[i+1])        (per column)
//! ```
//!
//! so the parallel loop carries flow dependences of distance +1 and +2
//! (reads of rows already rewritten this sweep) and an anti dependence of
//! distance -1 (a read of a row not yet rewritten). The dependence pass
//! folds those into `CarriedLocal { distance: Bounded { lo: -1, hi: 2 } }`,
//! and because the declared halo `left(2*cols) right(cols)` covers the
//! whole interval, the lint *downgrades* the pessimistic `ACC-W006` to the
//! informational `ACC-I003`: the carried dependence is provably local to
//! the halo, so the launch is legal under [`acc_runtime::Schedule::Wavefront`]
//! — GPUs run in partition order, each fed the freshly written left-halo
//! rows of its predecessors — and the distributed result is bit-identical
//! to the sequential sweep on any GPU count (which the tests verify).
//!
//! A plain [`acc_runtime::Schedule::Equal`] launch on 2+ GPUs computes
//! something else (stale left halos — a Jacobi/Gauss-Seidel hybrid); the
//! negative-control test pins that divergence down, demonstrating *why*
//! the wavefront license matters.

use acc_kernel_ir::{Buffer, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The OpenACC source: one in-place deep-stencil sweep per iteration.
/// Rows 0, 1 and rows-1 are fixed boundary rows.
pub const SOURCE: &str = r#"
void heat2d_halo2(int rows, int cols, int iters, double *u) {
#pragma acc data copy(u[0:rows*cols])
{
  int t = 0;
  while (t < iters) {
#pragma acc localaccess(u) stride(cols) left(2*cols) right(cols)
#pragma acc parallel loop
    for (int i = 0; i < rows; i++) {
      for (int j = 0; j < cols; j++) {
        if (i > 1) {
          if (i < rows - 1) {
            u[i*cols + j] = 0.25 * (u[(i-2)*cols + j] + u[(i-1)*cols + j]
                                    + u[i*cols + j] + u[(i+1)*cols + j]);
          }
        }
      }
    }
    t = t + 1;
  }
}
}
"#;

/// Entry function name.
pub const FUNCTION: &str = "heat2d_halo2";

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct Halo2Config {
    pub rows: usize,
    pub cols: usize,
    /// Outer iterations (each is one in-place sweep → one kernel launch).
    pub iters: usize,
}

impl Halo2Config {
    /// A plate large enough that the wavefront pipeline shape is visible.
    pub fn scaled() -> Halo2Config {
        Halo2Config {
            rows: 1024,
            cols: 1024,
            iters: 10,
        }
    }

    /// A reduced size for unit tests.
    pub fn small() -> Halo2Config {
        Halo2Config {
            rows: 48,
            cols: 32,
            iters: 3,
        }
    }

    /// Total cells.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

/// Generated input plate.
#[derive(Debug, Clone)]
pub struct Halo2Input {
    pub cfg: Halo2Config,
    pub plate: Vec<f64>,
}

/// Random hot spots on a cold plate.
pub fn generate(cfg: &Halo2Config, seed: u64) -> Halo2Input {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plate = vec![0.0f64; cfg.cells()];
    for _ in 0..(cfg.cells() / 64).max(1) {
        let i = rng.gen_range(0..cfg.rows);
        let j = rng.gen_range(0..cfg.cols);
        plate[i * cfg.cols + j] = rng.gen_range(100.0..1000.0);
    }
    Halo2Input {
        cfg: cfg.clone(),
        plate,
    }
}

/// Program inputs `(scalars, arrays)` in parameter order.
pub fn inputs(input: &Halo2Input) -> (Vec<Value>, Vec<Buffer>) {
    let cfg = &input.cfg;
    (
        vec![
            Value::I32(cfg.rows as i32),
            Value::I32(cfg.cols as i32),
            Value::I32(cfg.iters as i32),
        ],
        vec![Buffer::from_f64(&input.plate)],
    )
}

/// Index of the result array (`u`).
pub const PLATE_ARRAY: usize = 0;

/// Pure-Rust oracle: the *sequential* in-place sweep, ascending rows.
/// This is the semantics the wavefront schedule must reproduce exactly.
pub fn reference(input: &Halo2Input) -> Vec<f64> {
    let cfg = &input.cfg;
    let (rows, cols) = (cfg.rows, cfg.cols);
    let mut u = input.plate.clone();
    for _ in 0..cfg.iters {
        for i in 2..rows.saturating_sub(1) {
            for j in 0..cols {
                u[i * cols + j] = 0.25
                    * (u[(i - 2) * cols + j]
                        + u[(i - 1) * cols + j]
                        + u[i * cols + j]
                        + u[(i + 1) * cols + j]);
            }
        }
    }
    u
}

/// Maximum absolute element difference against the oracle.
pub fn max_error(got: &[f64], reference: &[f64]) -> f64 {
    got.iter()
        .zip(reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_compiler::{
        compile_source, lint_source, CompileOptions, DependVerdict, Distance, Placement,
    };
    use acc_gpusim::Machine;
    use acc_runtime::{run_program, ExecConfig, SanitizeLevel, Schedule};

    fn compiled() -> acc_compiler::CompiledProgram {
        compile_source(SOURCE, FUNCTION, &CompileOptions::proposal()).unwrap()
    }

    #[test]
    fn deep_carried_dependence_downgrades_to_info() {
        // The only diagnostic is the ACC-I003 downgrade: the carried
        // dependence interval [-1, 2] fits the declared (2, 1) halo, so
        // no ACC-W006 (and no ACC-W003 — the reads fit the window too).
        let codes: Vec<_> = lint_source(SOURCE)
            .unwrap()
            .iter()
            .filter_map(|d| d.code)
            .collect();
        assert_eq!(codes, vec!["ACC-I003"]);

        let prog = compiled();
        assert_eq!(prog.kernels.len(), 1);
        let cfg = &prog.kernels[0].configs[0];
        assert_eq!(cfg.placement, Placement::Distributed);
        assert_eq!(
            cfg.lint.verdict,
            DependVerdict::CarriedLocal {
                distance: Distance::Bounded { lo: -1, hi: 2 }
            }
        );
        assert_eq!(cfg.lint.halo_windows, (2, 1));
        assert_eq!(cfg.lint.window_violations, 0);
        // The in-place store is still proved partition-local.
        assert!(cfg.miss_check_elided);
        // And the program is wavefront-eligible.
        assert!(acc_compiler::wavefront_eligible(&prog.kernels[0]));
    }

    #[test]
    fn wavefront_is_bit_identical_to_sequential_sweep() {
        let cfg = Halo2Config::small();
        let input = generate(&cfg, 9);
        let expect = reference(&input);
        let prog = compiled();
        for ngpus in 1..=3 {
            let mut m = Machine::supercomputer_node();
            let (scalars, arrays) = inputs(&input);
            let ecfg = ExecConfig::gpus(ngpus).schedule(Schedule::Wavefront);
            let r = run_program(&mut m, &ecfg, &prog, scalars, arrays).unwrap();
            // Bit-identical, not approximately equal: the wavefront feeds
            // each GPU the freshly written left-halo rows in partition
            // order, reproducing the sequential sweep exactly.
            assert_eq!(
                r.arrays[PLATE_ARRAY].to_f64_vec(),
                expect,
                "ngpus={ngpus}"
            );
            if ngpus > 1 {
                assert!(r.trace.counters().wavefront_rounds > 0, "ngpus={ngpus}");
            }
        }
    }

    #[test]
    fn equal_schedule_diverges_without_the_wavefront_feed() {
        // Negative control: put heat on the last row of GPU 0's block so
        // GPU 1's first row provably reads a stale left halo under a
        // plain equal-partition launch.
        let cfg = Halo2Config::small();
        let mut input = generate(&cfg, 0);
        input.plate = vec![0.0; cfg.cells()];
        let boundary = cfg.rows / 2; // first row of GPU 1's block at 2 GPUs
        input.plate[(boundary - 1) * cfg.cols] = 500.0;
        let expect = reference(&input);
        let prog = compiled();

        let run = |schedule| {
            let mut m = Machine::supercomputer_node();
            let (scalars, arrays) = inputs(&input);
            let ecfg = ExecConfig::gpus(2).schedule(schedule);
            run_program(&mut m, &ecfg, &prog, scalars, arrays)
                .unwrap()
                .arrays[PLATE_ARRAY]
                .to_f64_vec()
        };
        assert_eq!(run(Schedule::Wavefront), expect);
        assert_ne!(run(Schedule::Equal), expect);
    }

    #[test]
    fn fully_sanitized_wavefront_confirms_the_carried_claim() {
        // Full sanitize audits every load against the claimed carried
        // window [-left, stride + right): the honest distance interval
        // produces zero violations on 1..3 GPUs.
        let cfg = Halo2Config::small();
        let input = generate(&cfg, 7);
        let expect = reference(&input);
        let prog = compiled();
        for ngpus in 1..=3 {
            let mut m = Machine::supercomputer_node();
            let (scalars, arrays) = inputs(&input);
            let ecfg = ExecConfig::gpus(ngpus)
                .schedule(Schedule::Wavefront)
                .sanitize(SanitizeLevel::Full);
            let r = run_program(&mut m, &ecfg, &prog, scalars, arrays).unwrap();
            assert_eq!(r.trace.counters().sanitize_violations, 0, "ngpus={ngpus}");
            assert_eq!(r.arrays[PLATE_ARRAY].to_f64_vec(), expect, "ngpus={ngpus}");
        }
    }

    #[test]
    fn wavefront_feed_generates_p2p_traffic() {
        let cfg = Halo2Config::small();
        let input = generate(&cfg, 9);
        let prog = compiled();
        let mut m = Machine::supercomputer_node();
        let (scalars, arrays) = inputs(&input);
        let ecfg = ExecConfig::gpus(3).schedule(Schedule::Wavefront);
        let r = run_program(&mut m, &ecfg, &prog, scalars, arrays).unwrap();
        // Two left-halo rows re-fed per downstream GPU per sweep.
        assert!(r.trace.counters().p2p_bytes > 0);
        assert_eq!(
            r.trace.counters().wavefront_rounds,
            (cfg.iters * 3) as u64,
            "one round per GPU per sweep"
        );
    }
}
