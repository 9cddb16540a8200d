//! The host-program executor: walks the translated [`HostOp`] tree,
//! interprets sequential host code, and orchestrates BSP kernel launches
//! (loader phase → parallel kernel phase → communication phase → barrier,
//! paper §III-A Fig. 3).

use acc_compiler::{ArrayConfig, CompiledKernel, CompiledProgram, HostOp, ParamSrc, Placement};
use acc_compiler::affine::AccessPattern;
use acc_compiler::hostgen::CompiledClause;
use acc_gpusim::{Gpu, Machine};
use acc_kernel_ir as ir;
use acc_obs::{
    InferredAnnotation, LaunchSpan, MapperDecision, PhaseKind, Recorder, SanitizeEvent,
    WavefrontRound,
};
use ir::interp::{eval_host_expr, rmw_apply, run_host_block, run_kernel_range};
use ir::{
    BufSanitize, Buffer, BufSlot, DirtyMap, ExecCtx, Kernel, MissRecord, OpCounters,
    SanitizeKind, SanitizeRecord, Value,
};

use crate::mapper::SharedMapper;
use crate::profiler::Profiler;
use crate::state::{split_tasks, ArrayState};
use crate::{ExecConfig, ExecMode, GpuMemReport, RunError, RunReport, SanitizeLevel, Schedule};

/// Host-level control flow signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

/// Per-launch, per-array resolved placement information.
pub(crate) struct ArrLaunch {
    /// Program array index.
    pub arr: usize,
    /// Resolved placement for this launch.
    pub placement: Placement,
    /// Per-GPU required (to-load) global ranges.
    pub required: Vec<(i64, i64)>,
    /// Per-GPU owned global ranges (covering partition; used for checked
    /// stores and write-miss routing).
    pub own: Vec<(i64, i64)>,
    /// Per-GPU window to materialise.
    pub window: Vec<(i64, i64)>,
    /// Whether this kernel writes the array.
    pub writes: bool,
    /// Whether replica-sync dirty maps are needed.
    pub needs_dirty: bool,
    /// Runtime-sanitizer checks for this array (same on every GPU).
    pub sanitize: BufSanitize,
    /// Per-GPU element partitions a static comm-elision fact claims all
    /// of this launch's writes stay inside (`None`: no applicable fact —
    /// the replica sync runs normally).
    pub elide: Option<Vec<(i64, i64)>>,
    /// Whether this launch's loader-phase peer halo fills of the array
    /// are priced concurrently with the kernel phase (double-buffered
    /// overlap): the overlap knob is on, the sanitizer is not re-arming
    /// the synchronous path, and a compiler [`OverlapFact`] licensed it.
    pub overlap: bool,
}

/// What one GPU returns from its kernel job.
#[derive(Default)]
struct JobOut {
    counters: OpCounters,
    per_buf_bytes: Vec<(u64, u64)>,
    partials: Vec<Value>,
    misses: Vec<MissRecord>,
    dirty_back: Vec<Option<DirtyMap>>,
    sanitize_log: Vec<SanitizeRecord>,
    sanitize_hits: u64,
    ran: bool,
}


/// One GPU's kernel job: everything the worker thread needs, with the
/// dirty maps temporarily moved out of the engine state.
struct Job {
    tasks: (i64, i64),
    params: Vec<Value>,
    binds: Vec<JobBind>,
    miss_capacity: usize,
    /// Pooled write-miss buffer (capacity recycled across launches).
    miss_buf: Vec<MissRecord>,
    /// Per-buffer sanitizer config; empty disables sanitizing.
    sanitize: Vec<BufSanitize>,
}

struct JobBind {
    handle: acc_gpusim::BufferHandle,
    window_lo: i64,
    own: (i64, i64),
    dirty: Option<DirtyMap>,
}

/// One program execution in flight. Short-lived: borrows the machine,
/// the config and (since the [`Engine`](crate::Engine) redesign) the
/// scratch pool and the per-program mapper history from its caller —
/// [`run_program`](crate::run_program) lends fresh ones per call, a
/// long-lived `Engine` lends pooled/shared ones across jobs.
pub(crate) struct Run<'a> {
    pub machine: &'a mut Machine,
    pub cfg: &'a ExecConfig,
    pub prog: &'a CompiledProgram,
    pub locals: Vec<Value>,
    pub host_arrays: Vec<Buffer>,
    pub arrays: Vec<ArrayState>,
    /// The structured event stream: the store of phase times and event
    /// counters.
    pub rec: Recorder,
    /// Aggregated interpreter work counters (not part of the stream).
    pub kernel_counters: OpCounters,
    pub host_counters: OpCounters,
    /// Id of the launch currently executing (valid inside `launch`).
    pub cur_launch: u64,
    pub now: f64,
    /// Per-kernel split history for [`Schedule::CostModel`]; unused (and
    /// never consulted) under [`Schedule::Equal`]. Shared behind a lock
    /// so an `Engine` can carry one history across requests.
    mapper: SharedMapper,
    /// Reusable staging/scratch/miss buffers, lent by the caller (the
    /// replica-staging allocation count surfaces as
    /// `Profiler::staging_allocs`).
    pub(crate) staging: &'a mut crate::comm::StagingPool,
    /// Pool counter values at run start, so the profile reports this
    /// run's allocations even when the pool is warm from earlier jobs.
    base_staging_allocs: u64,
    base_scratch_allocs: u64,
    /// Host wall-clock seconds spent inside communication phases
    /// (including deferred elided syncs).
    pub(crate) comm_wall_s: f64,
}

impl<'a> Run<'a> {
    pub fn new(
        machine: &'a mut Machine,
        cfg: &'a ExecConfig,
        prog: &'a CompiledProgram,
        scalars: Vec<Value>,
        host_arrays: Vec<Buffer>,
        mapper: SharedMapper,
        staging: &'a mut crate::comm::StagingPool,
    ) -> Run<'a> {
        let ngpus = if cfg.mode == ExecMode::Gpu {
            cfg.ngpus
        } else {
            0
        };
        let arrays = host_arrays
            .iter()
            .map(|b| ArrayState::new(b.ty(), b.len(), ngpus))
            .collect();
        let mut locals: Vec<Value> = prog.locals.iter().map(|(_, t)| t.zero()).collect();
        for (i, v) in scalars.into_iter().enumerate() {
            locals[i] = v;
        }
        let (base_staging_allocs, base_scratch_allocs) = (staging.allocs, staging.scratch_allocs);
        Run {
            machine,
            cfg,
            prog,
            locals,
            host_arrays,
            arrays,
            rec: Recorder::new(cfg.tracing),
            kernel_counters: OpCounters::default(),
            host_counters: OpCounters::default(),
            cur_launch: 0,
            now: 0.0,
            mapper,
            staging,
            base_staging_allocs,
            base_scratch_allocs,
            comm_wall_s: 0.0,
        }
    }

    pub fn run(mut self) -> Result<RunReport, RunError> {
        let prog = self.prog;
        // Surface every inferred-and-consumed `localaccess` annotation as
        // a typed event up front: placement is a compile-time fact.
        for ck in &prog.kernels {
            for cfg in &ck.configs {
                if cfg.inferred_used {
                    let la = cfg
                        .localaccess
                        .as_ref()
                        .expect("inferred_used implies a localaccess");
                    self.rec.inferred_annotation(InferredAnnotation {
                        kernel: ck.kernel.name.clone(),
                        array: cfg.name.clone(),
                        pragma: acc_compiler::render_annotation(&cfg.name, la, &prog.locals),
                        at: 0.0,
                    });
                }
            }
        }
        self.exec_ops(&prog.host)?;
        // Sequential host time from the aggregate host counters, appended
        // to the timeline as one phase span (host statements interleave
        // with the simulated phases but are priced in aggregate).
        let host_time = self.machine.cpu.serial_time(&self.host_counters);
        self.rec
            .phase(None, PhaseKind::Host, self.now, self.now + host_time);
        let trace = self.rec.finish();
        let profile = Profiler {
            time: trace.totals(),
            kernel_counters: self.kernel_counters,
            host_counters: self.host_counters,
            staging_allocs: self.staging.allocs - self.base_staging_allocs,
            scratch_allocs: self.staging.scratch_allocs - self.base_scratch_allocs,
            comm_wall_s: self.comm_wall_s,
        };
        let c = trace.counters();
        debug_assert_eq!(c.h2d_bytes, self.machine.bus.h2d_bytes);
        debug_assert_eq!(c.d2h_bytes, self.machine.bus.d2h_bytes);
        debug_assert_eq!(c.p2p_bytes, self.machine.bus.p2p_bytes);
        let mem = self
            .machine
            .gpus
            .iter()
            .map(|g| {
                let (user_peak, system_peak) = g.memory.peak_by_class();
                GpuMemReport {
                    user_peak,
                    system_peak,
                }
            })
            .collect();
        Ok(RunReport {
            arrays: self.host_arrays,
            locals: self.locals,
            profile,
            mem,
            trace,
        })
    }

    // ---------------- host interpretation ----------------

    fn host_ctx<'b>(host_arrays: &'b mut [Buffer]) -> ExecCtx<'b> {
        let bufs: Vec<BufSlot<'b>> = host_arrays.iter_mut().map(BufSlot::whole).collect();
        let n = bufs.len();
        ExecCtx {
            params: Vec::new(),
            bufs,
            reduction_partials: Vec::new(),
            miss_buf: Vec::new(),
            miss_capacity: usize::MAX,
            counters: OpCounters::default(),
            per_buf_bytes: vec![(0, 0); n],
            sanitize: Vec::new(),
            sanitize_log: Vec::new(),
            sanitize_hits: 0,
        }
    }

    pub(crate) fn eval_host(&mut self, e: &ir::Expr) -> Result<Value, RunError> {
        let mut ctx = Self::host_ctx(&mut self.host_arrays);
        let v = eval_host_expr(e, &mut self.locals, &mut ctx)?;
        self.host_counters.merge(&ctx.counters);
        Ok(v)
    }

    pub(crate) fn eval_host_i64(&mut self, e: &ir::Expr) -> Result<i64, RunError> {
        self.eval_host(e)?
            .as_index()
            .ok_or_else(|| RunError::BadInputs("non-integer bound expression".into()))
    }

    fn eval_host_bool(&mut self, e: &ir::Expr) -> Result<bool, RunError> {
        self.eval_host(e)?
            .as_bool()
            .ok_or_else(|| RunError::BadInputs("non-boolean condition".into()))
    }

    fn exec_plain(&mut self, s: &ir::Stmt) -> Result<(), RunError> {
        let mut ctx = Self::host_ctx(&mut self.host_arrays);
        run_host_block(std::slice::from_ref(s), &mut self.locals, &mut ctx)?;
        self.host_counters.merge(&ctx.counters);
        Ok(())
    }

    fn exec_ops(&mut self, ops: &[HostOp]) -> Result<Flow, RunError> {
        for op in ops {
            match op {
                HostOp::Plain(ir::Stmt::Break) => return Ok(Flow::Break),
                HostOp::Plain(ir::Stmt::Continue) => return Ok(Flow::Continue),
                HostOp::Plain(s) => self.exec_plain(s)?,
                HostOp::If { cond, then_, else_ } => {
                    let c = self.eval_host_bool(cond)?;
                    let f = self.exec_ops(if c { then_ } else { else_ })?;
                    if f != Flow::Normal {
                        return Ok(f);
                    }
                }
                HostOp::While { cond, body } => loop {
                    if !self.eval_host_bool(cond)? {
                        break;
                    }
                    match self.exec_ops(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                    }
                },
                HostOp::DataEnter { region, clauses } => self.data_enter(*region, clauses)?,
                HostOp::DataExit { region } => self.data_exit(*region)?,
                HostOp::Launch { kernel } => self.launch(*kernel)?,
                HostOp::Update {
                    to_host,
                    to_device,
                } => self.update(to_host, to_device)?,
                HostOp::Return => return Ok(Flow::Return),
            }
        }
        Ok(Flow::Normal)
    }

    // ---------------- data regions / update ----------------

    fn data_enter(&mut self, region: usize, clauses: &[CompiledClause]) -> Result<(), RunError> {
        if self.cfg.mode == ExecMode::CpuParallel {
            return Ok(());
        }
        use acc_minic::directive::DataClauseKind as K;
        for c in clauses {
            for s in &c.sections {
                let range = match &s.range {
                    None => None,
                    Some((a, b)) => {
                        let lo = self.eval_host_i64(a)?;
                        let len = self.eval_host_i64(b)?;
                        Some((lo, lo + len))
                    }
                };
                let st = &mut self.arrays[s.array];
                if c.kind == K::Present && st.region_depth == 0 {
                    return Err(RunError::NotPresent(
                        self.prog.array_params[s.array].0.clone(),
                    ));
                }
                if st.region_depth == 0 {
                    st.init_from_host = matches!(c.kind, K::Copy | K::CopyIn | K::Present);
                }
                st.region_depth += 1;
                // Entries without a section only balance the depth at
                // exit; `copy`/`copyout` entries also flush the section
                // back to the host.
                let copyout_range = if matches!(c.kind, K::Copy | K::CopyOut) {
                    Some(range.unwrap_or((0, st.len as i64)))
                } else {
                    None
                };
                st.exit_stack.push((region, copyout_range));
            }
        }
        Ok(())
    }

    fn data_exit(&mut self, region: usize) -> Result<(), RunError> {
        if self.cfg.mode == ExecMode::CpuParallel {
            return Ok(());
        }
        let t0 = self.now;
        let mut end = t0;
        for arr in 0..self.arrays.len() {
            // Pop every obligation this region registered for the array.
            loop {
                let st = &mut self.arrays[arr];
                let Some(pos) = st.exit_stack.iter().rposition(|(r, _)| *r == region) else {
                    break;
                };
                let (_, copyout) = st.exit_stack.remove(pos);
                if let Some((lo, hi)) = copyout {
                    let e = self.flush_to_host(arr, lo, hi, t0)?;
                    end = end.max(e);
                }
                let st = &mut self.arrays[arr];
                st.region_depth -= 1;
                if st.region_depth == 0 {
                    self.free_array_devices(arr)?;
                }
            }
        }
        self.rec.phase(None, PhaseKind::Data, t0, end);
        self.now = end;
        Ok(())
    }

    fn update(
        &mut self,
        to_host: &[acc_compiler::hostgen::Section],
        to_device: &[acc_compiler::hostgen::Section],
    ) -> Result<(), RunError> {
        if self.cfg.mode == ExecMode::CpuParallel {
            return Ok(());
        }
        let t0 = self.now;
        let mut end = t0;
        for s in to_host {
            let (lo, hi) = self.resolve_section(s)?;
            let e = self.flush_to_host(s.array, lo, hi, t0)?;
            end = end.max(e);
        }
        for s in to_device {
            let (lo, hi) = self.resolve_section(s)?;
            let e = self.push_to_device(s.array, lo, hi, t0)?;
            end = end.max(e);
        }
        self.rec.phase(None, PhaseKind::Data, t0, end);
        self.now = end;
        Ok(())
    }

    fn resolve_section(
        &mut self,
        s: &acc_compiler::hostgen::Section,
    ) -> Result<(i64, i64), RunError> {
        match &s.range {
            None => Ok((0, self.arrays[s.array].len as i64)),
            Some((a, b)) => {
                let lo = self.eval_host_i64(a)?;
                let len = self.eval_host_i64(b)?;
                Ok((lo, lo + len))
            }
        }
    }

    // ---------------- kernel launch ----------------

    fn launch(&mut self, kidx: usize) -> Result<(), RunError> {
        let prog = self.prog;
        let ck = &prog.kernels[kidx];
        self.cur_launch = self.rec.launch_begin();
        match self.cfg.mode {
            ExecMode::CpuParallel => self.launch_cpu(ck),
            ExecMode::Gpu => self.launch_gpu(kidx, ck),
        }
    }

    /// OpenMP-baseline execution: the whole iteration space runs as one
    /// CPU parallel region over the host arrays.
    fn launch_cpu(&mut self, ck: &CompiledKernel) -> Result<(), RunError> {
        let lo = self.eval_host_i64(&ck.lo)?;
        let hi = self.eval_host_i64(&ck.hi)?;
        let params = self.gather_params(ck)?;

        let mut bufs: Vec<&mut Buffer> = Vec::with_capacity(ck.buf_map.len());
        {
            // Disjoint &mut borrows of the selected host arrays.
            let mut rest: &mut [Buffer] = &mut self.host_arrays;
            let mut base = 0usize;
            let mut picks: Vec<(usize, &mut Buffer)> = Vec::new();
            let mut order: Vec<usize> = ck.buf_map.clone();
            order.sort_unstable();
            for arr in order {
                let rel = arr - base;
                let (left, right) = rest.split_at_mut(rel + 1);
                picks.push((arr, &mut left[rel]));
                rest = right;
                base = arr + 1;
            }
            for &arr in &ck.buf_map {
                let pos = picks.iter().position(|(a, _)| *a == arr).unwrap();
                let (_, b) = picks.remove(pos);
                bufs.push(b);
            }
        }
        let slots: Vec<BufSlot> = bufs.into_iter().map(BufSlot::whole).collect();
        let n = slots.len();
        let mut ctx = ExecCtx {
            params,
            bufs: slots,
            reduction_partials: ck
                .kernel
                .reductions
                .iter()
                .map(|r| ir::interp::rmw_identity(r.op, r.ty))
                .collect(),
            miss_buf: Vec::new(),
            miss_capacity: self.cfg.miss_capacity,
            counters: OpCounters::default(),
            per_buf_bytes: vec![(0, 0); n],
            sanitize: Vec::new(),
            sanitize_log: Vec::new(),
            sanitize_hits: 0,
        };
        run_kernel_range(&ck.kernel, &mut ctx, lo, hi)?;
        let counters = ctx.counters;
        let per_buf_bytes = std::mem::take(&mut ctx.per_buf_bytes);
        let partials = std::mem::take(&mut ctx.reduction_partials);
        drop(ctx);

        // Memory pricing: per-buffer efficiency from the translator's
        // classification against the CPU cache.
        let cpu = &self.machine.cpu;
        let mut terms = Vec::new();
        for (kbuf, cfg) in ck.configs.iter().enumerate() {
            let resident = self.host_arrays[cfg.array].size_bytes() as u64;
            let (lb, sb) = per_buf_bytes[kbuf];
            terms.push((lb, cpu_read_eff(cpu, cfg, resident)));
            terms.push((sb, cpu_write_eff(cpu, cfg, resident)));
        }
        let t = cpu.parallel_region_time_split(&counters, &terms);
        self.rec
            .phase(Some(self.cur_launch), PhaseKind::Kernel, self.now, self.now + t);
        self.now += t;
        self.kernel_counters.merge(&counters);
        self.apply_scalar_reductions(ck, &[partials])?;
        Ok(())
    }

    /// Multi-GPU BSP launch: loader phase, parallel kernel phase,
    /// communication phase, barrier.
    fn launch_gpu(&mut self, kidx: usize, ck: &CompiledKernel) -> Result<(), RunError> {
        let ngpus = self.cfg.ngpus;
        let lo = self.eval_host_i64(&ck.lo)?;
        let hi = self.eval_host_i64(&ck.hi)?;
        // Task mapping. `Schedule::Equal` takes the paper's static
        // division directly — the mapper is never consulted and no
        // mapper events are emitted, keeping the default bit-identical
        // to a runtime without the cost model.
        let use_mapper = self.cfg.schedule == Schedule::CostModel;
        let (tasks, predicted_s, from_history) = if use_mapper {
            let plan = self
                .mapper
                .lock()
                .expect("mapper lock poisoned")
                .plan(kidx, lo, hi, ngpus);
            (plan.tasks, plan.predicted_s, plan.from_history)
        } else {
            (split_tasks(lo, hi, ngpus), Vec::new(), false)
        };
        let params = self.gather_params(ck)?;

        // Arrays used by this kernel but not inside any data region get an
        // implicit per-launch `copy` region (OpenACC default behaviour —
        // and the performance trap data regions exist to avoid).
        let mut implicit: Vec<usize> = Vec::new();
        for cfg in &ck.configs {
            if self.arrays[cfg.array].region_depth == 0 {
                implicit.push(cfg.array);
                let st = &mut self.arrays[cfg.array];
                st.init_from_host = true;
                st.region_depth = 1;
            }
        }

        // Wavefront schedule: when the compiler proved every carried
        // dependence of this launch *local* (distance inside the declared
        // halo), the GPUs run sequentially in partition order, each fed
        // its left halo with the rows its predecessors just wrote, so
        // dependent outer iterations pipeline across the GPUs with the
        // exact semantics of the sequential loop. Pricing is an honest
        // pipeline: GPU g starts once GPU g-1 finished *and* g's halo
        // feed landed. Launches the proof does not license fall back to
        // the parallel equal division.
        let wavefront = self.cfg.schedule == Schedule::Wavefront
            && ngpus > 1
            && acc_compiler::wavefront_eligible(ck);

        // Resolve per-array launch placement.
        let binfo = self.resolve_bindings(kidx, ck, &tasks, wavefront)?;

        // ---- loader phase ----
        let t0 = self.now;
        let (t1, bg_end) = self.loader_phase(ck, &binfo, t0)?;
        self.rec
            .phase(Some(self.cur_launch), PhaseKind::Loader, t0, t1);

        // ---- kernel phase ----
        let mut jobs: Vec<Option<Job>> = Vec::with_capacity(ngpus);
        #[allow(clippy::needless_range_loop)] // g indexes several parallel tables
        for g in 0..ngpus {
            if tasks[g].0 >= tasks[g].1 {
                jobs.push(None);
                continue;
            }
            let mut binds = Vec::with_capacity(binfo.len());
            for bi in &binfo {
                let ga = &mut self.arrays[bi.arr].gpu[g];
                binds.push(JobBind {
                    handle: ga.handle.expect("loader materialised the window"),
                    window_lo: ga.window.0,
                    own: bi.own[g],
                    dirty: ga.dirty.take(),
                });
            }
            jobs.push(Some(Job {
                tasks: tasks[g],
                params: params.clone(),
                binds,
                miss_capacity: self.cfg.miss_capacity,
                miss_buf: self.staging.take_misses(),
                sanitize: if self.cfg.sanitize == SanitizeLevel::Off {
                    Vec::new()
                } else {
                    binfo.iter().map(|bi| bi.sanitize).collect()
                },
            }));
        }

        let kernel = &ck.kernel;
        let mut outs: Vec<Result<JobOut, ir::ExecError>> = Vec::with_capacity(ngpus);
        // Per-GPU kernel start times (the barrier `t1` on the parallel
        // path; staggered under the wavefront) and wavefront-priced
        // durations.
        let mut starts = vec![t1; ngpus];
        let mut wf_tg: Option<Vec<f64>> = None;
        if wavefront {
            let mut tgs = vec![0.0f64; ngpus];
            let mut cursor = t1;
            for (g, job) in jobs.into_iter().enumerate() {
                let mut start_g = cursor;
                let mut fed = 0u64;
                if g > 0 {
                    // Refresh this GPU's left halo — [required.0, own.0)
                    // of every written distributed array — from the
                    // predecessors that own those rows. The copies become
                    // ready when the previous GPU's turn ended.
                    for bi in &binfo {
                        if !(bi.writes && matches!(bi.placement, Placement::Distributed)) {
                            continue;
                        }
                        let (halo_lo, halo_hi) = (bi.required[g].0, bi.own[g].0);
                        if halo_lo >= halo_hi {
                            continue;
                        }
                        for h in (0..g).rev() {
                            let lo = halo_lo.max(bi.own[h].0);
                            let hi = halo_hi.min(bi.own[h].1);
                            if lo >= hi {
                                continue;
                            }
                            let end = self.xfer_p2p(bi.arr, h, g, lo, hi, cursor, "wavefront")?;
                            fed += ((hi - lo) as u64) * self.arrays[bi.arr].elem() as u64;
                            start_g = start_g.max(end);
                        }
                    }
                }
                let res = match job {
                    None => Ok(JobOut::default()),
                    Some(job) => run_gpu_job(&mut self.machine.gpus[g], kernel, job),
                };
                if let Ok(out) = &res {
                    if out.ran {
                        let spec = &self.machine.gpus[g].spec;
                        let mut terms = Vec::new();
                        for (kbuf, cfg) in ck.configs.iter().enumerate() {
                            let w = binfo[kbuf].window[g];
                            let resident =
                                ((w.1 - w.0).max(0) as u64) * self.arrays[cfg.array].elem() as u64;
                            let (lb, sb) = out.per_buf_bytes[kbuf];
                            terms.push((lb, gpu_read_eff(spec, cfg, resident)));
                            terms.push((sb, gpu_write_eff(spec, cfg, resident)));
                        }
                        let tg = spec.kernel_time_split(&out.counters, &terms);
                        self.rec.wavefront_round(WavefrontRound {
                            launch: self.cur_launch,
                            kernel: ck.kernel.name.clone(),
                            gpu: g,
                            round: g,
                            fed_bytes: fed,
                            start: start_g,
                            end: start_g + tg,
                        });
                        starts[g] = start_g;
                        tgs[g] = tg;
                        cursor = start_g + tg;
                    }
                }
                outs.push(res);
            }
            wf_tg = Some(tgs);
        } else {
            let gpus = &mut self.machine.gpus[..ngpus];
            std::thread::scope(|s| {
                let mut handles = Vec::with_capacity(ngpus);
                for (gpu, job) in gpus.iter_mut().zip(jobs) {
                    handles.push(s.spawn(move || match job {
                        None => Ok(JobOut::default()),
                        Some(job) => run_gpu_job(gpu, kernel, job),
                    }));
                }
                for h in handles {
                    outs.push(h.join().expect("gpu worker panicked"));
                }
            });
        }

        // Return dirty maps to the state, collect results.
        let mut job_outs = Vec::with_capacity(ngpus);
        for (g, out) in outs.into_iter().enumerate() {
            let mut out = match out {
                Ok(o) => o,
                Err(e) => return Err(RunError::Exec(e)),
            };
            for (bi, dm) in binfo.iter().zip(out.dirty_back.drain(..)) {
                self.arrays[bi.arr].gpu[g].dirty = dm;
            }
            job_outs.push(out);
        }

        // Sanitizer verdicts: every retained violation becomes a typed
        // observability event, then the run fails on the first one (the
        // results would be silently wrong without the audit).
        let mut first_violation: Option<(usize, SanitizeRecord)> = None;
        let mut total_hits = 0u64;
        for (g, out) in job_outs.iter().enumerate() {
            total_hits += out.sanitize_hits;
            for r in &out.sanitize_log {
                self.rec.sanitize(SanitizeEvent {
                    launch: self.cur_launch,
                    array: self.prog.array_params[binfo[r.buf as usize].arr].0.clone(),
                    gpu: g,
                    kind: match r.kind {
                        SanitizeKind::LoadOutsideWindow => "load-outside-window",
                        SanitizeKind::StoreOutsideOwn => "store-outside-own",
                        SanitizeKind::CarriedDistanceEscape => "carried-distance-escape",
                    },
                    tid: r.tid,
                    idx: r.idx,
                    window: r.window,
                    at: t1,
                });
            }
            if first_violation.is_none() {
                if let Some(r) = out.sanitize_log.first() {
                    first_violation = Some((g, *r));
                }
            }
        }
        if let Some((g, r)) = first_violation {
            let array = self.prog.array_params[binfo[r.buf as usize].arr].0.clone();
            // Refusing here — before the communication phase and before
            // any flush — means no array state the violation may have
            // corrupted ever escapes the devices.
            return Err(match r.kind {
                SanitizeKind::CarriedDistanceEscape => RunError::CarriedDistanceViolated {
                    array,
                    gpu: g,
                    record: r,
                    hits: total_hits,
                },
                _ => RunError::SanitizeViolation {
                    array,
                    gpu: g,
                    record: r,
                    hits: total_hits,
                },
            });
        }

        // Kernel-phase duration = slowest GPU; every GPU that ran gets a
        // launch span on its own timeline starting at the barrier `t1`.
        let mut tk = 0.0f64;
        let mut measured_s = vec![0.0f64; ngpus];
        for (g, out) in job_outs.iter().enumerate() {
            if !out.ran {
                continue;
            }
            let tg = match &wf_tg {
                // The wavefront loop already priced this GPU's turn (it
                // needed the duration to schedule the successor's feed).
                Some(tgs) => tgs[g],
                None => {
                    let spec = &self.machine.gpus[g].spec;
                    let mut terms = Vec::new();
                    for (kbuf, cfg) in ck.configs.iter().enumerate() {
                        let w = binfo[kbuf].window[g];
                        let resident =
                            ((w.1 - w.0).max(0) as u64) * self.arrays[cfg.array].elem() as u64;
                        let (lb, sb) = out.per_buf_bytes[kbuf];
                        terms.push((lb, gpu_read_eff(spec, cfg, resident)));
                        terms.push((sb, gpu_write_eff(spec, cfg, resident)));
                    }
                    spec.kernel_time_split(&out.counters, &terms)
                }
            };
            // Kernel-phase duration runs to the last finisher; under the
            // wavefront the staggered starts make that the final GPU.
            tk = tk.max(starts[g] + tg - t1);
            measured_s[g] = tg;
            self.kernel_counters.merge(&out.counters);
            self.rec.launch_span(LaunchSpan {
                launch: self.cur_launch,
                kernel: ck.kernel.name.clone(),
                gpu: g,
                rows: tasks[g],
                start: starts[g],
                end: starts[g] + tg,
            });
        }
        if job_outs.iter().all(|o| !o.ran) {
            // Degenerate empty launch still pays one launch overhead.
            tk = self.machine.gpus[0].spec.launch_overhead_s;
        }
        if use_mapper {
            // One decision per launch: the ranges this launch actually
            // used, the history's prediction, and the measured cost the
            // next launch of this kernel will be cut from.
            self.rec.mapper_decision(MapperDecision {
                launch: self.cur_launch,
                kernel: ck.kernel.name.clone(),
                ranges: tasks.clone(),
                predicted_s,
                measured_s: measured_s.clone(),
                from_history,
                at: t1,
            });
            let overhead = self.machine.gpus[0].spec.launch_overhead_s;
            self.mapper
                .lock()
                .expect("mapper lock poisoned")
                .record(kidx, &tasks, &measured_s, overhead);
        }
        self.rec
            .phase(Some(self.cur_launch), PhaseKind::Kernel, t1, t1 + tk);
        // Background halo fills that the loader priced past the barrier
        // run under the kernel phase; the wave cannot advance until both
        // the slowest kernel and the last in-flight fill are done. A
        // fill that outlives the kernel is loader time on the critical
        // path; the part that ran under the kernel is what the overlap
        // saved against loading synchronously.
        let t2 = (t1 + tk).max(bg_end);
        self.rec
            .phase(Some(self.cur_launch), PhaseKind::Loader, t1 + tk, t2);
        self.rec.overlap_hidden((bg_end - t1).min(tk));

        // Scalar reductions merge back into host locals.
        let partials: Vec<Vec<Value>> = job_outs
            .iter()
            .filter(|o| o.ran)
            .map(|o| o.partials.clone())
            .collect();
        self.apply_scalar_reductions(ck, &partials)?;

        // Device writes make the host copy stale until flushed.
        for bi in &binfo {
            if bi.writes {
                self.arrays[bi.arr].host_stale = true;
            }
        }

        // ---- communication phase ----
        let misses: Vec<Vec<MissRecord>> = job_outs.into_iter().map(|o| o.misses).collect();
        let wall = std::time::Instant::now();
        let t3 = self.comm_phase(ck, &binfo, &misses, t2)?;
        self.comm_wall_s += wall.elapsed().as_secs_f64();
        // The replay only reads the records; reclaim the buffers so the
        // next launch (or the pool's next job) skips the allocation.
        self.staging.put_back_misses(misses);
        self.rec
            .phase(Some(self.cur_launch), PhaseKind::Comm, t2, t3);
        self.now = t3;

        // Close implicit regions (copy-out + free).
        for arr in implicit {
            let t0 = self.now;
            let st = &self.arrays[arr];
            let writes = ck
                .configs
                .iter()
                .any(|c| c.array == arr && c.mode.writes());
            let end = if writes {
                self.flush_to_host(arr, 0, st.len as i64, t0)?
            } else {
                t0
            };
            self.rec.phase(None, PhaseKind::Data, t0, end);
            self.now = end;
            self.arrays[arr].region_depth = 0;
            self.free_array_devices(arr)?;
        }
        Ok(())
    }

    fn gather_params(&mut self, ck: &CompiledKernel) -> Result<Vec<Value>, RunError> {
        let mut out = Vec::with_capacity(ck.param_src.len());
        for src in &ck.param_src {
            match src {
                ParamSrc::HostLocal(l) => out.push(self.locals[l.0 as usize]),
            }
        }
        Ok(out)
    }

    fn apply_scalar_reductions(
        &mut self,
        ck: &CompiledKernel,
        partials_per_gpu: &[Vec<Value>],
    ) -> Result<(), RunError> {
        for (slot, target) in ck.red_targets.iter().enumerate() {
            let op = ck.kernel.reductions[slot].op;
            let mut acc = self.locals[target.0 as usize];
            for partials in partials_per_gpu {
                acc = rmw_apply(op, acc, partials[slot])?;
            }
            self.locals[target.0 as usize] = acc;
        }
        Ok(())
    }

    /// Resolve per-array placement, windows and ownership for a launch.
    fn resolve_bindings(
        &mut self,
        kidx: usize,
        ck: &CompiledKernel,
        tasks: &[(i64, i64)],
        wavefront: bool,
    ) -> Result<Vec<ArrLaunch>, RunError> {
        let ngpus = tasks.len();
        let instrument = self.prog.options.instrument;
        let mut out = Vec::with_capacity(ck.configs.len());
        for (kbuf, cfg) in ck.configs.iter().enumerate() {
            let n = self.arrays[cfg.array].len as i64;
            let clamp = |x: i64| x.clamp(0, n);
            let mut la_params = None;
            let (required, own, window) = match (&cfg.placement, &cfg.localaccess) {
                (Placement::Distributed, Some(la)) => {
                    let stride = self.eval_host_i64(&la.stride)?;
                    let left = self.eval_host_i64(&la.left)?;
                    let right = self.eval_host_i64(&la.right)?;
                    la_params = Some((stride, left, right));
                    if stride < 1 || left < 0 || right < 0 {
                        return Err(RunError::BadLocalAccess(format!(
                            "`{}`: stride({stride}) left({left}) right({right})",
                            cfg.name
                        )));
                    }
                    let mut required = Vec::with_capacity(ngpus);
                    let mut own = Vec::with_capacity(ngpus);
                    let mut window = Vec::with_capacity(ngpus);
                    // Covering partition boundaries: the first owner
                    // reaches down to 0, the last up to n.
                    // Under the cost model the cut points move between
                    // launches, so a tight window would pay one
                    // transfer-latency round for every few-element
                    // boundary shift. Padding the read range by a slice
                    // of its own length keeps small shifts inside
                    // already-valid data; the extra bytes are cheap next
                    // to the per-transfer latency they avoid.
                    let cost_model = self.cfg.schedule == crate::Schedule::CostModel;
                    let slack = |len: i64| {
                        if cost_model {
                            (len / 8).max(left.max(right)).max(1)
                        } else {
                            0
                        }
                    };
                    // A distributed array whose whole footprint is below
                    // the bus's bandwidth·latency product is
                    // latency-dominated: re-slicing it every launch costs
                    // more in transfer rounds than replicating it once.
                    // Under the cost model, read such arrays in full.
                    let bus = &self.machine.bus;
                    let whole_read = cost_model
                        && (n as u64) * self.arrays[cfg.array].elem() as u64
                            <= (bus.h2d_bw * bus.latency) as u64;
                    for (g, &(tlo, thi)) in tasks.iter().enumerate() {
                        if tlo >= thi {
                            required.push((0, 0));
                            own.push((0, 0));
                            window.push((0, 0));
                            continue;
                        }
                        let req = if whole_read {
                            (0, n)
                        } else {
                            let pad = slack(stride * (thi - tlo));
                            (
                                clamp(stride * tlo - left - pad),
                                clamp(stride * thi + right + pad),
                            )
                        };
                        let own_lo = if g == 0 { 0 } else { clamp(stride * tlo) };
                        // Find the next non-empty task to bound ownership.
                        let own_hi = match tasks[g + 1..].iter().find(|(a, b)| a < b) {
                            Some(&(nlo, _)) => clamp(stride * nlo),
                            None => n,
                        };
                        let o = (own_lo, own_hi.max(own_lo));
                        required.push(req);
                        own.push(o);
                        window.push((req.0.min(o.0), req.1.max(o.1)));
                    }
                    (required, own, window)
                }
                (Placement::Distributed, None) => unreachable!("distribution requires localaccess"),
                _ => {
                    // Replicated / reduction-private: active GPUs hold
                    // the whole array. GPUs with an empty partition get
                    // empty windows too — they run no kernel, so
                    // materialising (or syncing) a replica there would
                    // only fabricate allocations and comm traffic.
                    let whole = (0i64, n);
                    let active = |&(a, b): &(i64, i64)| if a < b { whole } else { (0, 0) };
                    (
                        tasks.iter().map(active).collect::<Vec<_>>(),
                        tasks.iter().map(active).collect::<Vec<_>>(),
                        tasks.iter().map(active).collect::<Vec<_>>(),
                    )
                }
            };
            let writes = cfg.mode.writes();
            let needs_dirty = instrument
                && ngpus > 1
                && writes
                && matches!(cfg.placement, Placement::Replicated);
            // The audits only make sense on distributed arrays: checked
            // stores handle their own misses, and replicated arrays own
            // (and keep resident) the whole window.
            let sanitize = BufSanitize {
                load_window: la_params.filter(|_| self.cfg.sanitize.checks_loads()),
                // Carried-distance audit: under `Full`, every
                // `CarriedLocal { distance }` claim is cross-validated at
                // runtime — a load must stay within the proved distance
                // of the loading thread's own stride window, or the
                // verdict (and everything it licensed) was mislabeled.
                carried_window: cfg
                    .lint
                    .verdict
                    .carried_distance()
                    .and_then(|d| d.halo_need())
                    .and_then(|(lw, rw)| la_params.map(|(s, _, _)| (s, lw * s, rw * s)))
                    .filter(|_| self.cfg.sanitize.checks_loads()),
                check_stores: self.cfg.sanitize.checks_stores()
                    && writes
                    && cfg.miss_check_elided
                    && matches!(cfg.placement, Placement::Distributed),
            };
            // Static comm-elision claim: the per-GPU element partitions
            // the fact asserts every write of this launch stays inside.
            // Only materialised when the runtime could act on it — the
            // facts assume the equal static schedule's launch-invariant
            // partitions, and without dirty maps there is no sync to
            // skip.
            let elide = if self.cfg.comm_elision
                && needs_dirty
                && self.cfg.schedule == Schedule::Equal
            {
                let stride = self
                    .prog
                    .comm_plan
                    .fact(kidx, kbuf)
                    .map(|fact| fact.stride.clone());
                match stride {
                    Some(stride) => {
                        let s = self.eval_host_i64(&stride)?;
                        if s >= 1 {
                            Some(
                                tasks
                                    .iter()
                                    .map(|&(a, b)| (clamp(s * a), clamp(s * b.max(a))))
                                    .collect::<Vec<_>>(),
                            )
                        } else {
                            None
                        }
                    }
                    None => None,
                }
            } else {
                None
            };
            // Double-buffered halo overlap: only when the knob is on,
            // `SanitizeLevel::Full` is not re-arming the synchronous
            // path, the launch is not a wavefront (its staggered turns
            // feed halos over the same links, so a fill still in flight
            // would delay the pipeline instead of hiding under it), and
            // the compiler's dataflow pass granted an `OverlapFact` for
            // this (kernel, buffer) — distributed with a declared halo
            // window, read-only this launch, every verdict in the wave
            // race-free.
            let overlap = self.cfg.overlap
                && self.cfg.sanitize != SanitizeLevel::Full
                && !wavefront
                && matches!(cfg.placement, Placement::Distributed)
                && self.prog.overlap_plan.fact(kidx, kbuf).is_some();
            out.push(ArrLaunch {
                arr: cfg.array,
                placement: cfg.placement.clone(),
                required,
                own,
                window,
                writes,
                needs_dirty,
                sanitize,
                elide,
                overlap,
            });
        }
        Ok(out)
    }
}

/// Execute one GPU's portion of a kernel. Runs on a worker thread with
/// exclusive access to that GPU.
fn run_gpu_job(
    gpu: &mut Gpu,
    kernel: &Kernel,
    mut job: Job,
) -> Result<JobOut, ir::ExecError> {
    let handles: Vec<_> = job.binds.iter().map(|b| b.handle).collect();
    let bufs = gpu
        .memory
        .get_many_mut(&handles)
        .expect("loader materialised all windows");
    let mut slots = Vec::with_capacity(bufs.len());
    for (buf, bind) in bufs.into_iter().zip(job.binds.iter_mut()) {
        slots.push(BufSlot {
            data: buf,
            window_lo: bind.window_lo,
            own: bind.own,
            dirty: bind.dirty.as_mut(),
        });
    }
    let n = slots.len();
    let mut ctx = ExecCtx {
        params: std::mem::take(&mut job.params),
        bufs: slots,
        reduction_partials: kernel
            .reductions
            .iter()
            .map(|r| ir::interp::rmw_identity(r.op, r.ty))
            .collect(),
        miss_buf: std::mem::take(&mut job.miss_buf),
        miss_capacity: job.miss_capacity,
        counters: OpCounters::default(),
        per_buf_bytes: vec![(0, 0); n],
        sanitize: std::mem::take(&mut job.sanitize),
        sanitize_log: Vec::new(),
        sanitize_hits: 0,
    };
    run_kernel_range(kernel, &mut ctx, job.tasks.0, job.tasks.1)?;
    let out = JobOut {
        counters: ctx.counters,
        per_buf_bytes: std::mem::take(&mut ctx.per_buf_bytes),
        partials: std::mem::take(&mut ctx.reduction_partials),
        misses: std::mem::take(&mut ctx.miss_buf),
        dirty_back: Vec::new(),
        sanitize_log: std::mem::take(&mut ctx.sanitize_log),
        sanitize_hits: ctx.sanitize_hits,
        ran: true,
    };
    drop(ctx);
    let mut out = out;
    out.dirty_back = job.binds.into_iter().map(|b| b.dirty).collect();
    Ok(out)
}

/// Effective-bandwidth fraction for a GPU read of one array.
fn gpu_read_eff(spec: &acc_gpusim::GpuSpec, cfg: &ArrayConfig, resident: u64) -> f64 {
    if cfg.layout_transformed {
        return 1.0;
    }
    match cfg.read_pattern {
        AccessPattern::Broadcast | AccessPattern::Coalesced => 1.0,
        AccessPattern::Strided(s) => 1.0 / (s.min(32) as f64),
        AccessPattern::StridedDyn => 1.0 / 8.0,
        AccessPattern::Irregular => spec.gather_efficiency(resident),
    }
}

/// Effective-bandwidth fraction for a GPU write of one array.
fn gpu_write_eff(spec: &acc_gpusim::GpuSpec, cfg: &ArrayConfig, resident: u64) -> f64 {
    match cfg.write_pattern {
        AccessPattern::Broadcast | AccessPattern::Coalesced => 1.0,
        AccessPattern::Strided(s) => 1.0 / (s.min(32) as f64),
        AccessPattern::StridedDyn => 1.0 / 8.0,
        AccessPattern::Irregular => spec.gather_efficiency(resident),
    }
}

/// CPU-side read efficiency (strides matter less; gathers priced against
/// the LLC).
fn cpu_read_eff(cpu: &acc_gpusim::CpuSpec, cfg: &ArrayConfig, resident: u64) -> f64 {
    match cfg.read_pattern {
        AccessPattern::Broadcast | AccessPattern::Coalesced => 1.0,
        AccessPattern::Strided(_) | AccessPattern::StridedDyn => 0.8,
        AccessPattern::Irregular => cpu.gather_efficiency(resident),
    }
}

/// CPU-side write efficiency.
fn cpu_write_eff(cpu: &acc_gpusim::CpuSpec, cfg: &ArrayConfig, resident: u64) -> f64 {
    match cfg.write_pattern {
        AccessPattern::Broadcast | AccessPattern::Coalesced => 1.0,
        AccessPattern::Strided(_) | AccessPattern::StridedDyn => 0.8,
        AccessPattern::Irregular => cpu.gather_efficiency(resident),
    }
}
