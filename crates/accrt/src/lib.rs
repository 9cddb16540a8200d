//! # acc-runtime — the multi-GPU OpenACC runtime system
//!
//! The paper's runtime (§IV-A, Fig. 5) has two components that this crate
//! implements against the simulated machine of `acc-gpusim`:
//!
//! * the **data loader** (§IV-C, [`loader`]) — called at data-region
//!   entry/exit, on `update` directives, and before every kernel launch;
//!   it materialises each array on each GPU under the placement policy
//!   the translator chose (replica-based by default, distribution-based
//!   for `localaccess` arrays) and skips reloads when the access pattern
//!   is unchanged between kernel calls;
//! * the **inter-GPU communication manager** (§IV-D, [`comm`]) — called
//!   just after every kernel wave; it reconciles replicated arrays using
//!   the two-level dirty-bit maps, replays buffered write-miss records on
//!   the owning GPUs, and performs the final inter-GPU level of the
//!   hierarchical reduction for `reductiontoarray` destinations.
//!
//! Execution follows the BSP model of §III-A: the iteration space is
//! equally divided, every GPU runs its sub-range concurrently (one OS
//! thread per simulated GPU), then communication and a global barrier.
//!
//! Time is simulated: kernel durations come from the interpreter's work
//! counters through the device models, transfer durations from the PCIe
//! bus model. The run's [`Trace`] splits the total into the KERNELS /
//! CPU-GPU / GPU-GPU categories of the paper's Fig. 8 and counts its
//! launches and transfer volumes; the [`Profiler`] adds the host-side
//! facts the event stream does not carry.

pub mod comm;
pub mod engine;
pub mod exec;
pub mod loader;
pub mod mapper;
pub mod profiler;
pub mod ranges;
pub mod state;

use acc_compiler::CompiledProgram;
use acc_gpusim::{Machine, MemError};
use acc_kernel_ir::{Buffer, ExecError, Value};

pub use acc_obs::{Trace, TraceLevel};
pub use engine::{CompiledKernel, Engine, EngineStats};
pub use profiler::Profiler;
pub use ranges::RangeSet;

/// The names most programs driving the runtime need:
/// `use acc_runtime::prelude::*;`.
pub mod prelude {
    pub use crate::{
        run_program, CompiledKernel, Engine, EngineStats, ExecConfig, ExecMode, RunError,
        RunReport, SanitizeLevel, Schedule, Trace, TraceLevel,
    };
}

/// How to execute the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Offload parallel loops to `ngpus` simulated GPUs (the proposal and
    /// the single-GPU OpenACC/CUDA baselines).
    Gpu,
    /// Run parallel loops as OpenMP-style CPU parallel regions (the
    /// paper's baseline). Data directives become no-ops.
    CpuParallel,
}

/// How much runtime auditing of the compiler's multi-GPU consistency
/// verdicts to perform during GPU-mode interpretation.
///
/// The sanitizer is a pure observer: it never changes buffers, simulated
/// times or work counters. Violations surface as
/// [`RunError::SanitizeViolation`] and as typed `acc-obs` events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SanitizeLevel {
    /// No runtime auditing (the default).
    #[default]
    Off,
    /// Audit elided-miss-check stores: every unchecked store to a
    /// distributed array must land in the executing GPU's owned
    /// partition, or the static write-locality proof was unsound.
    Stores,
    /// `Stores` plus load auditing: every read of a distributed array
    /// must stay inside the thread's declared `localaccess` window
    /// `[stride*i - left, stride*(i+1) + right)`. Catches annotations
    /// that under-declare the true read footprint — which run silently
    /// (but wrong on >1 GPU) because small GPU counts keep the whole
    /// array resident.
    Full,
}

impl SanitizeLevel {
    /// Whether elided-store auditing is on.
    pub fn checks_stores(self) -> bool {
        !matches!(self, SanitizeLevel::Off)
    }

    /// Whether `localaccess`-window load auditing is on.
    pub fn checks_loads(self) -> bool {
        matches!(self, SanitizeLevel::Full)
    }
}

/// How the task mapper divides each parallel loop's iteration space
/// among the GPUs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Schedule {
    /// The paper's equal static division (§IV-B2). The default; runs are
    /// bit-identical to a runtime without the mapper.
    #[default]
    Equal,
    /// Counter-feedback proportional splitting: each kernel's previous
    /// launch supplies measured per-GPU cost (interpreter work counters
    /// priced through the device model), and the next launch's ranges
    /// are cut so every GPU gets an equal share of the predicted cost.
    /// The first launch of a kernel falls back to the equal division.
    /// See `docs/scheduling.md`.
    CostModel,
    /// Pipelined wavefront over the equal static division: for launches
    /// whose every loop-carried dependence the compiler proved *local*
    /// (`CarriedLocal` with a distance inside the declared halo), the
    /// GPUs run in partition order, each fed its left halo with the rows
    /// its predecessors just wrote. Functional results stay bit-identical
    /// to the sequential loop; launches the proof does not license fall
    /// back to the parallel equal division. See `docs/analysis.md`.
    Wavefront,
}

/// Runtime configuration.
///
/// Construct with [`ExecConfig::gpus`] or [`ExecConfig::openmp`] and
/// refine with the builder methods:
///
/// ```
/// use acc_runtime::prelude::*;
///
/// let cfg = ExecConfig::gpus(3)
///     .chunk_bytes(1 << 20)
///     .loader_reuse(false)
///     .tracing(TraceLevel::Spans);
/// ```
///
/// The struct is `#[non_exhaustive]`: fields stay readable, but new
/// options can be added without breaking downstream constructors.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ExecConfig {
    /// Number of GPUs to use (must not exceed the machine's).
    pub ngpus: usize,
    pub mode: ExecMode,
    /// Second-level dirty-bit chunk size in bytes (paper default: 1 MB).
    pub chunk_bytes: usize,
    /// Write-miss buffer capacity, in records, per GPU per launch.
    pub miss_capacity: usize,
    /// Ablation switch: when false, the data loader reloads every
    /// required range before every launch instead of skipping ranges that
    /// are already resident (paper §IV-C: "the data loader can avoid
    /// additional data movement ... when the read memory access pattern
    /// in the next kernel call is the same").
    pub loader_reuse: bool,
    /// How much structured-event detail the run retains in
    /// [`RunReport::trace`]. Phase totals and counters are accumulated
    /// regardless.
    pub tracing: TraceLevel,
    /// Run the functional half of the communication phase (replica-run
    /// application, miss replay, reduction merge) on one host thread per
    /// destination GPU instead of serially. Simulated times, transfer
    /// events and array contents are identical either way — the serial
    /// path exists as the reference for equivalence tests and as an
    /// ablation switch.
    pub parallel_comm: bool,
    /// Runtime auditing of static elision verdicts and `localaccess`
    /// windows (GPU mode only; the OpenMP baseline has no partitions to
    /// audit against).
    pub sanitize: SanitizeLevel,
    /// How the task mapper divides each parallel loop among the GPUs.
    pub schedule: Schedule,
    /// Consume the compiler's static inter-launch comm-elision facts
    /// ([`acc_compiler::CommPlan`]): replica syncs the whole-program
    /// dataflow analysis proved unobservable are skipped, their dirty
    /// bits kept accumulating, and the reconciliation deferred to the
    /// next operation that can actually observe the array (a host flush,
    /// an `update`, or a loader fill). Off by default. Under
    /// [`SanitizeLevel::Full`] elision is re-armed: the sync runs
    /// normally and the accumulated dirty runs are first audited against
    /// the fact's claimed per-GPU partitions
    /// ([`RunError::ElisionUnsound`] on escape), so a Full-sanitize run
    /// is bit-identical to one with elision off.
    pub comm_elision: bool,
    /// Double-buffered halo overlap: loader-phase peer halo fills of
    /// arrays the compiler's [`acc_compiler::OverlapPlan`] proved safe
    /// (distributed, read-only this launch, every verdict race-free) are
    /// priced concurrently with the same wave's kernel phase instead of
    /// extending the synchronous loader critical path. Purely a pricing
    /// change: the functional copies still happen in program order, so
    /// array contents are unconditionally identical with the knob on or
    /// off. Off by default. Under [`SanitizeLevel::Full`] the
    /// synchronous path is re-armed, so a Full-sanitize run is
    /// bit-identical (arrays *and* event stream) to one with overlap
    /// off.
    pub overlap: bool,
}

impl ExecConfig {
    /// GPU execution on `n` GPUs with paper defaults.
    pub fn gpus(n: usize) -> ExecConfig {
        ExecConfig {
            ngpus: n,
            mode: ExecMode::Gpu,
            chunk_bytes: acc_kernel_ir::dirty::DEFAULT_CHUNK_BYTES,
            miss_capacity: 1 << 22,
            loader_reuse: true,
            tracing: TraceLevel::Off,
            parallel_comm: true,
            sanitize: SanitizeLevel::Off,
            schedule: Schedule::Equal,
            comm_elision: false,
            overlap: false,
        }
    }

    /// The OpenMP baseline.
    pub fn openmp() -> ExecConfig {
        ExecConfig {
            ngpus: 0,
            mode: ExecMode::CpuParallel,
            ..ExecConfig::gpus(0)
        }
    }

    /// Set the second-level dirty-bit chunk size in bytes.
    pub fn chunk_bytes(mut self, bytes: usize) -> ExecConfig {
        self.chunk_bytes = bytes;
        self
    }

    /// Set the per-GPU write-miss buffer capacity, in records.
    pub fn miss_capacity(mut self, records: usize) -> ExecConfig {
        self.miss_capacity = records;
        self
    }

    /// Enable or disable loader reuse of resident ranges (ablation).
    pub fn loader_reuse(mut self, reuse: bool) -> ExecConfig {
        self.loader_reuse = reuse;
        self
    }

    /// Set the event-retention level for [`RunReport::trace`].
    pub fn tracing(mut self, level: TraceLevel) -> ExecConfig {
        self.tracing = level;
        self
    }

    /// Enable or disable host-parallel execution of the communication
    /// phase's functional work (simulated results are unaffected).
    pub fn parallel_comm(mut self, parallel: bool) -> ExecConfig {
        self.parallel_comm = parallel;
        self
    }

    /// Set the runtime-sanitizer level.
    pub fn sanitize(mut self, level: SanitizeLevel) -> ExecConfig {
        self.sanitize = level;
        self
    }

    /// Set the task-mapper schedule.
    pub fn schedule(mut self, schedule: Schedule) -> ExecConfig {
        self.schedule = schedule;
        self
    }

    /// Enable or disable static inter-launch communication elision.
    pub fn comm_elision(mut self, on: bool) -> ExecConfig {
        self.comm_elision = on;
        self
    }

    /// Enable or disable double-buffered halo-fill/compute overlap.
    pub fn overlap(mut self, on: bool) -> ExecConfig {
        self.overlap = on;
        self
    }
}

/// Runtime errors.
///
/// `#[non_exhaustive]`: downstream matches need a wildcard arm so new
/// failure modes can be reported without a breaking change.
///
/// Every variant carries a stable diagnostic code (`ACC-RNNN`,
/// [`RunError::code`]) in the same family as `acc-lint`'s `ACC-E/W/I`
/// scheme and `acc-serve`'s `ACC-SNNN` — tools print `[code] message`
/// so scripts can match on the code while the prose stays free to
/// improve.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunError {
    /// Source-to-IR compilation failed ([`Engine::compile`]).
    Compile(String),
    /// Kernel or host interpretation failed.
    Exec(ExecError),
    /// Device memory error (including out-of-memory).
    Mem(MemError),
    /// Wrong number or type of inputs.
    BadInputs(String),
    /// A `localaccess` parameter evaluated to an invalid value.
    BadLocalAccess(String),
    /// A buffered write-miss record targets an element no GPU's window
    /// covers.
    MissOutsideCoverage { array: String, idx: i64 },
    /// `present` clause for an array that is not device-resident.
    NotPresent(String),
    /// More GPUs requested than the machine has.
    TooManyGpus { requested: usize, available: usize },
    /// The runtime sanitizer observed an access that contradicts the
    /// static analysis (an elided store left its owner partition) or the
    /// program's annotations (a load left its `localaccess` window).
    /// Carries the first violation; `hits` counts all of them.
    SanitizeViolation {
        array: String,
        gpu: usize,
        record: acc_kernel_ir::SanitizeRecord,
        hits: u64,
    },
    /// The `SanitizeLevel::Full` comm-elision audit caught a dirty run
    /// outside the partition the elision fact claimed for its GPU — the
    /// static inter-launch dataflow proof was unsound (or a fact was
    /// fault-injected), and skipping the sync would have left observably
    /// stale replicas.
    ElisionUnsound {
        array: String,
        gpu: usize,
        /// The escaping dirty element run `[lo, hi)`.
        run: (i64, i64),
        /// The per-GPU partition the fact claimed all writes stay in.
        claim: (i64, i64),
    },
    /// A runtime premise of a static dependence proof does not hold: the
    /// compiler proved a kernel's indirect accesses disjoint on the
    /// condition that the bound array (e.g. a CSR `row_ptr`) is
    /// elementwise non-decreasing, and the actual input is not. Running
    /// anyway could silently race, so the launch is refused.
    PremiseViolated {
        array: String,
        /// First offending element index `i` with `a[i] > a[i+1]`.
        idx: usize,
    },
    /// The `SanitizeLevel::Full` carried-distance audit caught a load
    /// outside the window the compiler's `CarriedLocal { distance }`
    /// verdict claimed: the proved distance interval (or a fault-injected
    /// one) under-states the dependence, so the wavefront/overlap
    /// decisions it licensed are unsound. The launch is refused before
    /// any GPU's writes are synchronised, so no corrupted array escapes.
    CarriedDistanceViolated {
        array: String,
        gpu: usize,
        /// The offending access, with the claimed per-thread window.
        record: acc_kernel_ir::SanitizeRecord,
        /// Total carried-claim violations this launch (uncapped).
        hits: u64,
    },
}

impl RunError {
    /// The stable diagnostic code for this error (`ACC-RNNN`).
    pub fn code(&self) -> &'static str {
        match self {
            RunError::Compile(_) => "ACC-R010",
            RunError::Exec(_) => "ACC-R001",
            RunError::Mem(_) => "ACC-R002",
            RunError::BadInputs(_) => "ACC-R003",
            RunError::BadLocalAccess(_) => "ACC-R004",
            RunError::MissOutsideCoverage { .. } => "ACC-R005",
            RunError::NotPresent(_) => "ACC-R006",
            RunError::TooManyGpus { .. } => "ACC-R007",
            RunError::SanitizeViolation { .. } => "ACC-R008",
            RunError::ElisionUnsound { .. } => "ACC-R009",
            RunError::PremiseViolated { .. } => "ACC-R011",
            RunError::CarriedDistanceViolated { .. } => "ACC-R012",
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Compile(m) => write!(f, "compile error: {m}"),
            RunError::Exec(e) => write!(f, "execution error: {e}"),
            RunError::Mem(e) => write!(f, "device memory error: {e}"),
            RunError::BadInputs(m) => write!(f, "bad inputs: {m}"),
            RunError::BadLocalAccess(m) => write!(f, "invalid localaccess: {m}"),
            RunError::MissOutsideCoverage { array, idx } => write!(
                f,
                "write-miss to `{array}`[{idx}] is outside every GPU's resident window"
            ),
            RunError::NotPresent(a) => write!(f, "present({a}) but `{a}` is not on the device"),
            RunError::TooManyGpus {
                requested,
                available,
            } => write!(f, "requested {requested} GPUs, machine has {available}"),
            RunError::SanitizeViolation {
                array,
                gpu,
                record,
                hits,
            } => {
                let what = match record.kind {
                    acc_kernel_ir::SanitizeKind::LoadOutsideWindow => {
                        "read outside its declared localaccess window"
                    }
                    acc_kernel_ir::SanitizeKind::StoreOutsideOwn => {
                        "unchecked store outside the owner partition"
                    }
                    // Carried escapes surface as `CarriedDistanceViolated`;
                    // this arm only renders if a caller builds the generic
                    // variant by hand.
                    acc_kernel_ir::SanitizeKind::CarriedDistanceEscape => {
                        "load outside the claimed carried-distance window"
                    }
                };
                write!(
                    f,
                    "sanitizer: {what}: `{array}`[{}] by thread {} on gpu {gpu}, allowed [{}, {}) ({hits} violation{} total)",
                    record.idx,
                    record.tid,
                    record.window.0,
                    record.window.1,
                    if *hits == 1 { "" } else { "s" }
                )
            }
            RunError::ElisionUnsound {
                array,
                gpu,
                run,
                claim,
            } => write!(
                f,
                "comm-elision audit: `{array}` gpu {gpu} dirtied [{}, {}) outside its claimed partition [{}, {})",
                run.0, run.1, claim.0, claim.1
            ),
            RunError::PremiseViolated { array, idx } => write!(
                f,
                "dependence premise violated: `{array}` must be elementwise non-decreasing \
                 (monotone-window disjointness proof), but `{array}`[{idx}] > `{array}`[{}]",
                idx + 1
            ),
            RunError::CarriedDistanceViolated {
                array,
                gpu,
                record,
                hits,
            } => write!(
                f,
                "carried-distance audit: `{array}`[{}] loaded by thread {} on gpu {gpu} escapes \
                 the claimed carried window [{}, {}) ({hits} violation{} total) — the \
                 `CarriedLocal` distance is mislabeled",
                record.idx,
                record.tid,
                record.window.0,
                record.window.1,
                if *hits == 1 { "" } else { "s" }
            ),
        }
    }
}
impl std::error::Error for RunError {}

impl From<ExecError> for RunError {
    fn from(e: ExecError) -> RunError {
        RunError::Exec(e)
    }
}
impl From<MemError> for RunError {
    fn from(e: MemError) -> RunError {
        RunError::Mem(e)
    }
}

/// Per-GPU peak memory report (Fig. 9): user arrays vs runtime metadata.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuMemReport {
    pub user_peak: u64,
    pub system_peak: u64,
}

/// The outcome of one program run.
#[derive(Debug)]
pub struct RunReport {
    /// Final host arrays (same order as the program's array parameters).
    pub arrays: Vec<Buffer>,
    /// Final host scalar frame (useful for scalar outputs/diagnostics).
    pub locals: Vec<Value>,
    /// Phase split and the host-side facts the event stream does not
    /// carry (work counters, pool allocations, comm wall clock).
    pub profile: Profiler,
    /// Per-GPU peak device-memory usage.
    pub mem: Vec<GpuMemReport>,
    /// The structured event stream: the store of phase totals and event
    /// counters at every [`ExecConfig::tracing`] level, whose retained
    /// detail that level sets; export with
    /// [`Trace::chrome_trace`] / [`Trace::summary_table`].
    pub trace: Trace,
}

impl RunReport {
    /// Fetch a final array by program index.
    pub fn array(&self, idx: usize) -> &Buffer {
        &self.arrays[idx]
    }

    /// Total simulated time (Fig. 7 measures the parallel-region part).
    pub fn total_time(&self) -> f64 {
        self.profile.time.total()
    }
}

/// Run a compiled program on a machine.
///
/// `scalars` are the by-value inputs (program scalar-parameter order),
/// `arrays` the host arrays (program array-parameter order; returned,
/// possibly modified, in the report). The machine is reset first.
///
/// This is the historical one-shot entry point: every call gets a fresh
/// scratch pool and a fresh mapper history, so repeated calls are
/// independent and bit-identical. A long-running service should hold an
/// [`Engine`] instead, which shares the compilation cache, the scratch
/// pools and (under [`Schedule::CostModel`]) the mapper history across
/// jobs — see [`Engine::launch`].
pub fn run_program(
    machine: &mut Machine,
    cfg: &ExecConfig,
    prog: &CompiledProgram,
    scalars: Vec<Value>,
    arrays: Vec<Buffer>,
) -> Result<RunReport, RunError> {
    let mut pool = comm::StagingPool::default();
    run_with(
        machine,
        cfg,
        prog,
        scalars,
        arrays,
        mapper::TaskMapper::shared(prog.kernels.len()),
        &mut pool,
    )
}

/// The shared core under [`run_program`] and [`Engine::launch`]: input
/// validation, machine reset, then one [`exec::Run`] with the mapper
/// history and scratch pool the caller lends.
pub(crate) fn run_with(
    machine: &mut Machine,
    cfg: &ExecConfig,
    prog: &CompiledProgram,
    scalars: Vec<Value>,
    arrays: Vec<Buffer>,
    mapper: mapper::SharedMapper,
    pool: &mut comm::StagingPool,
) -> Result<RunReport, RunError> {
    if cfg.mode == ExecMode::Gpu && (cfg.ngpus == 0 || cfg.ngpus > machine.n_gpus()) {
        return Err(RunError::TooManyGpus {
            requested: cfg.ngpus,
            available: machine.n_gpus(),
        });
    }
    if scalars.len() != prog.scalar_params.len() {
        return Err(RunError::BadInputs(format!(
            "expected {} scalar inputs, got {}",
            prog.scalar_params.len(),
            scalars.len()
        )));
    }
    if arrays.len() != prog.array_params.len() {
        return Err(RunError::BadInputs(format!(
            "expected {} array inputs, got {}",
            prog.array_params.len(),
            arrays.len()
        )));
    }
    for (v, (name, ty)) in scalars.iter().zip(&prog.scalar_params) {
        if v.ty() != *ty {
            return Err(RunError::BadInputs(format!(
                "scalar `{name}` expects {ty}, got {}",
                v.ty()
            )));
        }
    }
    for (b, (name, ty)) in arrays.iter().zip(&prog.array_params) {
        if b.ty() != *ty {
            return Err(RunError::BadInputs(format!(
                "array `{name}` expects {ty} elements, got {}",
                b.ty()
            )));
        }
    }

    // Dependence-proof premises: a kernel was proved race-free on the
    // condition that these (i32) bound arrays are elementwise
    // non-decreasing. Auditing the inputs costs one linear scan per
    // premise array, so it rides the sanitizer switch; `Off` trusts the
    // caller the same way it trusts the elision facts.
    if cfg.mode == ExecMode::Gpu && cfg.sanitize.checks_stores() {
        for &arr in &prog.monotone_premises {
            let (name, _) = &prog.array_params[arr];
            let vals = arrays[arr].to_i32_vec();
            if let Some(idx) = vals.windows(2).position(|w| w[0] > w[1]) {
                return Err(RunError::PremiseViolated {
                    array: name.clone(),
                    idx,
                });
            }
        }
    }

    machine.reset();
    // At `Spans` level the bus keeps its own transfer journal, so tests
    // can cross-check the recorder's spans against what the bus actually
    // scheduled.
    machine.bus.set_journal(cfg.tracing.keeps_spans());
    let run = exec::Run::new(machine, cfg, prog, scalars, arrays, mapper, pool);
    run.run()
}
