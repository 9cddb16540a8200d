//! The host-side facts of a run that its event stream does not carry.
//!
//! Simulated phase times and event counters live in the run's
//! `acc_obs::Trace` (`RunReport::trace`): read them with
//! `trace.totals()` and `trace.counters()`.

use acc_kernel_ir::OpCounters;
use acc_obs::PhaseTotals;

/// Run-wide profile: the phase split plus what only the runtime knows.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    /// Simulated time per phase, mirroring Fig. 8's categories: KERNELS,
    /// CPU-GPU and GPU-GPU, plus sequential host code. A copy of
    /// `trace.totals()`, set once when the run finishes.
    pub time: PhaseTotals,
    /// Aggregated kernel work counters over all launches and GPUs.
    pub kernel_counters: OpCounters,
    /// Aggregated host work counters.
    pub host_counters: OpCounters,
    /// Staging buffers the replica-sync pool actually allocated (or
    /// grew); reuse keeps this near the GPU count for iterative programs.
    pub staging_allocs: u64,
    /// Loader/copy scratch buffers the pool actually allocated (or
    /// grew) during this run — window-grow moves, peer-sourced fills and
    /// the serial replica-copy reference path all draw from it.
    pub scratch_allocs: u64,
    /// Host wall-clock seconds spent inside the communication phase
    /// (functional work + pricing), as opposed to the *simulated*
    /// `time.gpu_gpu`.
    pub comm_wall_s: f64,
}
