//! PAGERANK — power-iteration PageRank over a power-law digraph, the
//! indirect-*push* workload the dependence analysis (`acc_compiler::depend`)
//! was built for.
//!
//! Each iteration is four kernels inside one data region:
//!
//! 1. **push** — every page scatters its contribution to its out-edge
//!    slots: `msg[k] = rank[i] * outdeg_inv[i]` for
//!    `k ∈ [row_ptr[i], row_ptr[i+1])`. The store index is an inner-loop
//!    variable the affine classifier can only call *irregular* — the
//!    heuristic `ACC-W001` would fire — but the monotone-window lattice
//!    proves the windows disjoint (`DependVerdict::Disjoint(MonotoneWindow)`),
//!    on the runtime-audited premise that `row_ptr` is non-decreasing
//!    (`ACC-R011`).
//! 2. **zero** — reset the accumulator.
//! 3. **gather** — pull contributions along edges into
//!    `newrank[col_idx[k]]`: a scatter-accumulate, annotated with the
//!    paper's `reductiontoarray(+: newrank)` extension. The annotation is
//!    deliberately the *rangeless* form — exactly what `acc-lint --infer`
//!    would insert (`ACC-I002`) — so the annotated and inference-derived
//!    compilations are bit-identical (see the `depend_golden` tests).
//! 4. **damp** — `rank[i] = (1-d)/n + d * newrank[i]`.
//!
//! Like SPMV, the CSR payload (`col_idx`, `msg`) replicates — more of the
//! §VI 1-D-distribution limitation — while `row_ptr`, `outdeg_inv` and
//! `rank` distribute.

use acc_kernel_ir::{Buffer, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The OpenACC source of the PageRank benchmark.
pub const SOURCE: &str = r#"
void pagerank(int n, int nnz, int iters,
              int *row_ptr, int *col_idx, double *outdeg_inv,
              double *rank, double *newrank, double *msg) {
#pragma acc data copyin(row_ptr[0:n+1], col_idx[0:nnz], outdeg_inv[0:n], newrank[0:n], msg[0:nnz]) copy(rank[0:n])
{
  int it = 0;
  while (it < iters) {
    /* ---- push: scatter each page's contribution to its edge slots ---- */
#pragma acc localaccess(row_ptr) stride(1) right(1)
#pragma acc localaccess(outdeg_inv) stride(1)
#pragma acc localaccess(rank) stride(1)
#pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      double contrib = rank[i] * outdeg_inv[i];
      for (int k = row_ptr[i]; k < row_ptr[i + 1]; k = k + 1) {
        msg[k] = contrib;
      }
    }
    /* ---- zero the accumulator ---- */
#pragma acc localaccess(newrank) stride(1)
#pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      newrank[i] = 0.0;
    }
    /* ---- gather: scatter-accumulate along the edges ---- */
#pragma acc localaccess(col_idx) stride(1)
#pragma acc localaccess(msg) stride(1)
#pragma acc parallel loop
    for (int k = 0; k < nnz; k++) {
#pragma acc reductiontoarray(+: newrank)
      newrank[col_idx[k]] = newrank[col_idx[k]] + msg[k];
    }
    /* ---- damping ---- */
#pragma acc localaccess(rank) stride(1)
#pragma acc localaccess(newrank) stride(1)
#pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      rank[i] = 0.15 / (double)n + 0.85 * newrank[i];
    }
    it = it + 1;
  }
}
}
"#;

/// Entry function name.
pub const FUNCTION: &str = "pagerank";

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct PagerankConfig {
    /// Number of pages.
    pub n: usize,
    /// Minimum out-degree (every page links somewhere).
    pub min_degree: usize,
    /// Out-degree cap for the power-law sampler.
    pub max_degree: usize,
    /// Power iterations.
    pub iters: usize,
}

impl PagerankConfig {
    /// A graph large enough that replication costs are visible.
    pub fn scaled() -> PagerankConfig {
        PagerankConfig {
            n: 50_000,
            min_degree: 4,
            max_degree: 400,
            iters: 5,
        }
    }

    /// A reduced size for unit tests.
    pub fn small() -> PagerankConfig {
        PagerankConfig {
            n: 400,
            min_degree: 2,
            max_degree: 40,
            iters: 5,
        }
    }
}

/// Generated graph in CSR-of-out-edges form.
#[derive(Debug, Clone)]
pub struct PagerankInput {
    pub cfg: PagerankConfig,
    pub row_ptr: Vec<i32>,
    pub col_idx: Vec<i32>,
    /// `1 / out_degree(i)`.
    pub outdeg_inv: Vec<f64>,
    /// Initial rank: uniform `1/n`.
    pub rank: Vec<f64>,
}

/// Generate a power-law digraph: out-degrees follow a truncated Pareto
/// (`d ~ min_degree / u^(1/2)`), and destinations are biased toward
/// low page ids (`dst = n * u⁴`), giving the skewed in-degree
/// distribution real web graphs show — a few hub pages absorb most of
/// the gather traffic.
pub fn generate(cfg: &PagerankConfig, seed: u64) -> PagerankInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row_ptr = Vec::with_capacity(cfg.n + 1);
    let mut col_idx = Vec::new();
    let mut outdeg_inv = Vec::with_capacity(cfg.n);
    row_ptr.push(0i32);
    for _ in 0..cfg.n {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let deg = ((cfg.min_degree as f64 / u.sqrt()) as usize).clamp(cfg.min_degree, cfg.max_degree);
        for _ in 0..deg {
            let v: f64 = rng.gen_range(0.0..1.0);
            col_idx.push(((cfg.n as f64 * v * v * v * v) as usize).min(cfg.n - 1) as i32);
        }
        outdeg_inv.push(1.0 / deg as f64);
        row_ptr.push(col_idx.len() as i32);
    }
    PagerankInput {
        cfg: cfg.clone(),
        row_ptr,
        col_idx,
        outdeg_inv,
        rank: vec![1.0 / cfg.n as f64; cfg.n],
    }
}

/// Program inputs `(scalars, arrays)` in parameter order.
pub fn inputs(input: &PagerankInput) -> (Vec<Value>, Vec<Buffer>) {
    let nnz = input.col_idx.len();
    (
        vec![
            Value::I32(input.cfg.n as i32),
            Value::I32(nnz as i32),
            Value::I32(input.cfg.iters as i32),
        ],
        vec![
            Buffer::from_i32(&input.row_ptr),
            Buffer::from_i32(&input.col_idx),
            Buffer::from_f64(&input.outdeg_inv),
            Buffer::from_f64(&input.rank),
            Buffer::zeroed(acc_kernel_ir::Ty::F64, input.cfg.n),
            Buffer::zeroed(acc_kernel_ir::Ty::F64, nnz),
        ],
    )
}

/// Index of the result vector `rank`.
pub const RANK_ARRAY: usize = 3;

/// Pure-Rust oracle: the same power iteration, accumulating in edge
/// order. Multi-GPU runs merge partial sums in a different order, so
/// comparisons use a small absolute tolerance rather than bit equality.
pub fn reference(input: &PagerankInput) -> Vec<f64> {
    let n = input.cfg.n;
    let mut rank = input.rank.clone();
    for _ in 0..input.cfg.iters {
        let mut newrank = vec![0.0f64; n];
        for (i, (r, inv)) in rank.iter().zip(&input.outdeg_inv).enumerate() {
            let contrib = r * inv;
            for k in input.row_ptr[i] as usize..input.row_ptr[i + 1] as usize {
                newrank[input.col_idx[k] as usize] += contrib;
            }
        }
        for (r, nr) in rank.iter_mut().zip(&newrank) {
            *r = 0.15 / n as f64 + 0.85 * nr;
        }
    }
    rank
}

/// Oracle bound on [`max_error`]: the gather's reduction merge
/// reorders float sums across GPU counts, so results differ from the
/// oracle by rounding only.
pub const TOLERANCE: f64 = 1e-9;

/// Max absolute element difference.
pub fn max_error(got: &[f64], expect: &[f64]) -> f64 {
    got.iter()
        .zip(expect)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_compiler::{
        compile_source, CompileOptions, DependVerdict, DisjointProof, Placement,
    };
    use acc_gpusim::Machine;
    use acc_runtime::{run_program, ExecConfig, SanitizeLevel};

    #[test]
    fn generator_is_well_formed_and_skewed() {
        let input = generate(&PagerankConfig::small(), 11);
        let n = input.cfg.n;
        assert_eq!(input.row_ptr.len(), n + 1);
        assert!(input.row_ptr.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*input.row_ptr.last().unwrap() as usize, input.col_idx.len());
        assert!(input.col_idx.iter().all(|&c| c >= 0 && (c as usize) < n));
        // Power-law skew: the lowest-id tenth of the pages receives the
        // majority of the edges.
        let hub_cut = (n / 10) as i32;
        let hub_edges = input.col_idx.iter().filter(|&&c| c < hub_cut).count();
        assert!(
            hub_edges * 2 > input.col_idx.len(),
            "expected skew, hubs got {hub_edges}/{}",
            input.col_idx.len()
        );
    }

    #[test]
    fn placements_and_verdicts() {
        let prog = compile_source(SOURCE, FUNCTION, &CompileOptions::proposal()).unwrap();
        // push kernel: msg is proved disjoint by the monotone window, on
        // the premise that row_ptr is non-decreasing.
        let push = &prog.kernels[0];
        let cfg = |k: &acc_compiler::CompiledKernel, n: &str| {
            k.configs.iter().find(|c| c.name == n).unwrap().clone()
        };
        let msg = cfg(push, "msg");
        assert_eq!(
            msg.lint.verdict,
            DependVerdict::Disjoint(DisjointProof::MonotoneWindow)
        );
        assert_eq!(msg.placement, Placement::Replicated);
        assert_eq!(
            prog.monotone_premises,
            vec![prog.array_index("row_ptr").unwrap()]
        );
        assert_eq!(cfg(push, "row_ptr").placement, Placement::Distributed);
        assert_eq!(cfg(push, "rank").placement, Placement::Distributed);
        // gather kernel: the annotated reduction.
        let gather = &prog.kernels[2];
        let newrank = cfg(gather, "newrank");
        assert_eq!(
            newrank.placement,
            Placement::ReductionPrivate(acc_kernel_ir::RmwOp::Add)
        );
        assert_eq!(
            newrank.lint.verdict,
            DependVerdict::Reduction(acc_kernel_ir::RmwOp::Add)
        );
        // Every kernel×array verdict is race-free: safe to distribute.
        for k in &prog.kernels {
            for c in &k.configs {
                assert!(c.lint.verdict.race_free(), "{}/{}", k.kernel.name, c.name);
            }
        }
    }

    #[test]
    fn lint_clean() {
        let diags = acc_compiler::lint_source(SOURCE).unwrap();
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn matches_oracle_on_1_2_3_gpus_under_full_sanitize() {
        let input = generate(&PagerankConfig::small(), 5);
        let expect = reference(&input);
        let prog = compile_source(SOURCE, FUNCTION, &CompileOptions::proposal()).unwrap();
        for ngpus in 1..=3 {
            for sanitize in [SanitizeLevel::Off, SanitizeLevel::Full] {
                let mut m = Machine::supercomputer_node();
                let (scalars, arrays) = inputs(&input);
                let r = run_program(
                    &mut m,
                    &ExecConfig::gpus(ngpus).sanitize(sanitize),
                    &prog,
                    scalars,
                    arrays,
                )
                .unwrap();
                let err = max_error(&r.arrays[RANK_ARRAY].to_f64_vec(), &expect);
                assert!(err < 1e-9, "ngpus={ngpus} {sanitize:?} err={err}");
            }
        }
    }
}
