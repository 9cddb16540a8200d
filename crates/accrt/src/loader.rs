//! The data loader (paper §IV-C).
//!
//! Before every kernel launch the loader guarantees that "all the data
//! which are potentially read by the kernel running on each GPU \[are\]
//! loaded into the corresponding GPU memory". Placement follows the
//! translator's array configuration information:
//!
//! * **replica-based** — the whole array is materialised on every GPU
//!   (the default policy);
//! * **distribution-based** — only the `localaccess`-derived sub-array of
//!   the GPU's assigned iterations is materialised;
//! * **reduction-private** — GPU 0 holds the live content, every other
//!   GPU an identity-filled private copy to accumulate into.
//!
//! Reloads are skipped when the resident ranges already cover the
//! requirement — "this is common in iterative algorithms" and is the
//! reason iterative kernels only pay the CPU→GPU transfer once.

use acc_compiler::{CompiledKernel, Placement};
use acc_gpusim::memory::AllocClass;
use acc_gpusim::Endpoint;
use acc_kernel_ir::interp::rmw_identity;
use acc_kernel_ir::{DirtyMap, Ty};
use acc_obs::{LoaderDecision, OverlapWindow, TransferKind, TransferSpan};

use crate::exec::{ArrLaunch, Run};
use crate::ranges::RangeSet;
use crate::RunError;

/// One peer halo fill the loader priced in the background (double-
/// buffered overlap): emitted as an [`OverlapWindow`] once the
/// synchronous loader end is known.
struct BgFill {
    arr: usize,
    gpu: usize,
    bytes: u64,
    start: f64,
    end: f64,
}

impl<'a> Run<'a> {
    /// Run the loader for one launch. Returns `(t1, bg_end)`: the
    /// simulated end of the synchronous phase (transfers scheduled from
    /// `t0`), and the end of the last background halo fill the overlap
    /// knob licensed out of the critical path (`bg_end == t1` when
    /// nothing overlapped). The caller's barrier waits on
    /// `max(t1 + kernel, bg_end)`.
    pub(crate) fn loader_phase(
        &mut self,
        ck: &CompiledKernel,
        binfo: &[ArrLaunch],
        t0: f64,
    ) -> Result<(f64, f64), RunError> {
        let ngpus = self.cfg.ngpus;
        let mut end = t0;
        let mut bg: Vec<BgFill> = Vec::new();

        // Pass 1: windows (and metadata allocations).
        for (kbuf, bi) in binfo.iter().enumerate() {
            for g in 0..ngpus {
                // Reduction-private scratch copies (every GPU but the
                // first) are runtime-created, so they count as System
                // memory in the Fig. 9 split.
                let class = if g > 0
                    && matches!(bi.placement, Placement::ReductionPrivate(_))
                {
                    AllocClass::System
                } else {
                    AllocClass::User
                };
                let e = self.ensure_window(bi.arr, g, bi.window[g], class, t0)?;
                end = end.max(e);
            }
            // Replica-sync dirty maps (System memory, Fig. 9). GPUs with
            // an empty partition run no kernel, write nothing, and so
            // need no write-tracking metadata.
            if bi.needs_dirty {
                for g in 0..ngpus {
                    if bi.window[g].0 < bi.window[g].1 {
                        self.ensure_dirty_map(bi.arr, g)?;
                    }
                }
            }
            // Write-miss system buffers (idle GPUs buffer no misses).
            let cfg = &ck.configs[kbuf];
            let needs_miss_buf = self.prog.options.instrument
                && ngpus > 1
                && bi.writes
                && matches!(bi.placement, Placement::Distributed)
                && !cfg.miss_check_elided;
            if needs_miss_buf {
                for g in 0..ngpus {
                    if bi.window[g].0 < bi.window[g].1 {
                        self.ensure_miss_acct(bi.arr, g)?;
                    }
                }
            }
        }

        // Pass 2: contents.
        for bi in binfo {
            match bi.placement {
                Placement::ReductionPrivate(op) => {
                    // GPU 0 carries the live value; the rest are identity.
                    if bi.required[0].0 < bi.required[0].1 {
                        let e = self.fill_required(bi.arr, 0, bi.required[0], t0, false, &mut bg)?;
                        end = end.max(e);
                    }
                    let ty = self.arrays[bi.arr].ty;
                    for g in 1..ngpus {
                        if bi.required[g].0 >= bi.required[g].1 {
                            continue;
                        }
                        let e = self.fill_identity(bi.arr, g, rmw_identity(op, ty), t0)?;
                        end = end.max(e);
                    }
                }
                _ => {
                    for g in 0..ngpus {
                        if bi.required[g].0 >= bi.required[g].1 {
                            continue;
                        }
                        let e =
                            self.fill_required(bi.arr, g, bi.required[g], t0, bi.overlap, &mut bg)?;
                        end = end.max(e);
                    }
                }
            }
        }
        // Background fills were priced on the bus like any other
        // loader-phase transfer (contention with the synchronous
        // traffic preserved); only their ends left the critical path.
        // With `t1` now known, each becomes an `OverlapWindow`:
        // `hidden_s` is the fill's own tail past the synchronous phase
        // end. The launch's saving needs the kernel time too, so the
        // caller counts it.
        let mut bg_end = end;
        for f in bg {
            bg_end = bg_end.max(f.end);
            self.rec.overlap_window(OverlapWindow {
                launch: self.cur_launch,
                array: self.prog.array_params[f.arr].0.clone(),
                gpu: f.gpu,
                bytes: f.bytes,
                hidden_s: (f.end - end).max(0.0),
                start: f.start,
                end: f.end,
            });
        }
        Ok((end, bg_end))
    }

    /// Make sure GPU `g` holds array `arr` over at least `want`.
    /// Exclusive device data that would be dropped is flushed to the host
    /// first.
    fn ensure_window(
        &mut self,
        arr: usize,
        g: usize,
        want: (i64, i64),
        class: AllocClass,
        t0: f64,
    ) -> Result<f64, RunError> {
        let mut end = t0;
        if want.0 >= want.1 {
            return Ok(end);
        }
        {
            let ga = &self.arrays[arr].gpu[g];
            if ga.handle.is_some() && ga.window.0 <= want.0 && ga.window.1 >= want.1 {
                return Ok(end);
            }
        }
        // Under the cost-model mapper the per-GPU iteration ranges (and
        // with them the distributed windows) shift between launches.
        // Reallocating fresh would drop everything already resident and
        // reload it over PCIe every launch — so instead grow the window
        // to the union, move the resident bytes with one device-local
        // copy, and keep the valid set. The equal schedule never takes
        // this path: its windows are launch-invariant per kernel, and
        // skipping it keeps that schedule's behavior bit-identical.
        if self.cfg.schedule == crate::Schedule::CostModel {
            if let Some(old_handle) = self.arrays[arr].gpu[g].handle {
                let owin = self.arrays[arr].gpu[g].window;
                let elem = self.arrays[arr].elem();
                let ty = self.arrays[arr].ty;
                let union = (owin.0.min(want.0), owin.1.max(want.1));
                let staged = {
                    let bytes = self.machine.gpus[g].memory.get(old_handle)?.bytes();
                    let mut buf = self.staging.take_scratch(bytes.len());
                    buf.extend_from_slice(bytes);
                    buf
                };
                let new_handle = self.machine.gpus[g].memory.alloc(
                    ty,
                    (union.1 - union.0) as usize,
                    class,
                )?;
                let db = self.machine.gpus[g].memory.get_mut(new_handle)?;
                let off = (owin.0 - union.0) as usize * elem;
                db.bytes_mut()[off..off + staged.len()].copy_from_slice(&staged);
                self.machine.gpus[g].memory.free(old_handle)?;
                let cost = self.machine.gpus[g]
                    .spec
                    .local_copy_time(staged.len() as u64);
                self.staging.put_back_scratch(staged);
                let ga = &mut self.arrays[arr].gpu[g];
                ga.handle = Some(new_handle);
                ga.window = union;
                return Ok(t0 + cost);
            }
        }
        // Flush data that exists only on this GPU.
        let exclusive = {
            let st = &self.arrays[arr];
            let mut ex = st.gpu[g].valid.clone();
            for (h, other) in st.gpu.iter().enumerate() {
                if h != g && !other.red_private {
                    ex.subtract(&other.valid);
                }
            }
            ex
        };
        for (lo, hi) in exclusive.iter().collect::<Vec<_>>() {
            let e = self.xfer_d2h(arr, g, lo, hi, t0, "evict")?;
            end = end.max(e);
        }
        // Re-allocate the window.
        let ty = self.arrays[arr].ty;
        let old = self.arrays[arr].gpu[g].handle.take();
        if let Some(h) = old {
            self.machine.gpus[g].memory.free(h)?;
        }
        let len = (want.1 - want.0) as usize;
        let handle = self.machine.gpus[g].memory.alloc(ty, len, class)?;
        let ga = &mut self.arrays[arr].gpu[g];
        ga.handle = Some(handle);
        ga.window = want;
        ga.valid.clear();
        ga.red_private = false;
        Ok(end)
    }

    fn ensure_dirty_map(&mut self, arr: usize, g: usize) -> Result<(), RunError> {
        let (len, elem) = {
            let st = &self.arrays[arr];
            (st.len, st.elem())
        };
        if self.arrays[arr].gpu[g].dirty.is_none() {
            let dm = DirtyMap::new(len, elem, self.cfg.chunk_bytes);
            let meta = dm.metadata_bytes();
            let acct = self.machine.gpus[g].memory.alloc(
                Ty::I32,
                meta.div_ceil(4),
                AllocClass::System,
            )?;
            let ga = &mut self.arrays[arr].gpu[g];
            ga.dirty = Some(dm);
            ga.dirty_acct = Some(acct);
        }
        Ok(())
    }

    fn ensure_miss_acct(&mut self, arr: usize, g: usize) -> Result<(), RunError> {
        if self.arrays[arr].gpu[g].miss_acct.is_none() {
            let rec = 8 + self.arrays[arr].elem();
            let bytes = self.cfg.miss_capacity * rec;
            let acct =
                self.machine.gpus[g]
                    .memory
                    .alloc(Ty::I32, bytes.div_ceil(4), AllocClass::System)?;
            self.arrays[arr].gpu[g].miss_acct = Some(acct);
        }
        Ok(())
    }

    /// Load the missing parts of `req` onto GPU `g`: peer GPUs that hold
    /// current device data are preferred; otherwise the host copy is the
    /// source (`copyin` semantics); `create`-style arrays materialise as
    /// zeros without traffic.
    ///
    /// With `overlap` set, peer halo fills are priced in the background:
    /// the functional copy still happens here (program order — array
    /// contents never depend on the knob), the transfer is still
    /// scheduled on the bus from the same ready time (contention with
    /// synchronous traffic preserved), but its end is pushed to `bg`
    /// instead of extending the returned synchronous end. Host loads
    /// stay synchronous either way — only the peer refills the
    /// `OverlapFact` proved unobservable may hide under compute.
    #[allow(clippy::too_many_arguments)]
    fn fill_required(
        &mut self,
        arr: usize,
        g: usize,
        req: (i64, i64),
        t0: f64,
        overlap: bool,
        bg: &mut Vec<BgFill>,
    ) -> Result<f64, RunError> {
        if req.0 >= req.1 {
            return Ok(t0);
        }
        let mut end = t0;
        let elem = self.arrays[arr].elem() as u64;
        let mut missing = if self.cfg.loader_reuse {
            let ga = &self.arrays[arr].gpu[g];
            ga.valid.missing_in(req.0, req.1)
        } else {
            // Ablation: no reuse — treat everything as missing, except
            // data that exists nowhere else (dropping the reuse of
            // device-written data would change semantics, not just
            // performance).
            let ga = &self.arrays[arr].gpu[g];
            if self.arrays[arr].host_stale {
                ga.valid.missing_in(req.0, req.1)
            } else {
                crate::ranges::RangeSet::of(req.0, req.1)
            }
        };
        if missing.is_empty() {
            // Clean reuse of the resident window — the §IV-C fast path.
            self.rec.loader_decision(LoaderDecision {
                launch: self.cur_launch,
                array: self.prog.array_params[arr].0.clone(),
                gpu: g,
                reused: true,
                bytes_moved: 0,
                at: t0,
            });
            return Ok(end);
        }
        // Data is about to move: a pending (elided) replica sync must
        // land before any peer or host copy of this array is treated as
        // a fill source. The missing set is recomputed afterwards — the
        // sync itself does not change any GPU's valid set, but keeping
        // the ordering explicit costs nothing. The clean-reuse fast path
        // above never observes another GPU's data, so it stays elided.
        let t0 = self.ensure_synced(arr, t0)?;
        end = end.max(t0);
        let mut bytes_moved = 0u64;
        // While the host copy is current, the loader always loads from CPU
        // memory (paper §IV-C). Once device writes have made it stale,
        // peer GPUs holding current device data become the sources.
        if self.arrays[arr].host_stale {
            let ngpus = self.cfg.ngpus;
            // Nearest-neighbour halo routing: on a hierarchical
            // topology, prefer peers reached over intra-island links
            // before peers behind the root complex or the inter-node
            // fabric (ties broken by index, so the order is total).
            // Valid ranges shared by several peers hold identical bytes
            // — reconciliation preceded this fill — so source choice
            // only moves the transfer onto cheaper segments. Flat
            // presets keep the seed's ascending-index order.
            let mut order: Vec<usize> = (0..ngpus).filter(|&h| h != g).collect();
            if self.machine.bus.is_hierarchical() {
                let bus = &self.machine.bus;
                order.sort_by_key(|&h| (bus.distance(g, h), h));
            }
            for h in order {
                if missing.is_empty() {
                    break;
                }
                let avail = {
                    let other = &self.arrays[arr].gpu[h];
                    if other.red_private {
                        RangeSet::new()
                    } else {
                        let mut a = other.valid.clone();
                        a.intersect(&missing);
                        a
                    }
                };
                for (lo, hi) in avail.iter().collect::<Vec<_>>() {
                    let e = self.xfer_p2p(arr, h, g, lo, hi, t0, "fill")?;
                    if overlap {
                        bg.push(BgFill {
                            arr,
                            gpu: g,
                            bytes: (hi - lo) as u64 * elem,
                            start: t0,
                            end: e,
                        });
                    } else {
                        end = end.max(e);
                    }
                    missing.remove(lo, hi);
                    bytes_moved += (hi - lo) as u64 * elem;
                }
            }
        }
        // Host source.
        if self.arrays[arr].init_from_host {
            for (lo, hi) in missing.iter().collect::<Vec<_>>() {
                let e = self.xfer_h2d(arr, g, lo, hi, t0, "load")?;
                end = end.max(e);
                bytes_moved += (hi - lo) as u64 * elem;
            }
        } else {
            // `create`: fresh zeroed allocation already matches.
            let ga = &mut self.arrays[arr].gpu[g];
            for (lo, hi) in missing.iter().collect::<Vec<_>>() {
                ga.valid.insert(lo, hi);
            }
        }
        self.rec.loader_decision(LoaderDecision {
            launch: self.cur_launch,
            array: self.prog.array_params[arr].0.clone(),
            gpu: g,
            reused: false,
            bytes_moved,
            at: end,
        });
        Ok(end)
    }

    /// Fill a reduction-private copy with the operator identity. Emits
    /// the GPU's `LoaderDecision` for this launch×array — the identity
    /// fill is a device-local materialisation, so it moves zero bus
    /// bytes, but skipping the event would leave reduction-private GPUs
    /// unaccounted in the per-launch decision stream.
    fn fill_identity(
        &mut self,
        arr: usize,
        g: usize,
        identity: acc_kernel_ir::Value,
        t0: f64,
    ) -> Result<f64, RunError> {
        let handle = self.arrays[arr].gpu[g].handle.expect("window ensured");
        let bytes = {
            let buf = self.machine.gpus[g].memory.get_mut(handle)?;
            buf.fill(identity);
            buf.size_bytes() as u64
        };
        let cost = self.machine.gpus[g].spec.local_copy_time(bytes / 2);
        let ga = &mut self.arrays[arr].gpu[g];
        ga.valid.clear();
        ga.red_private = true;
        self.rec.loader_decision(LoaderDecision {
            launch: self.cur_launch,
            array: self.prog.array_params[arr].0.clone(),
            gpu: g,
            reused: false,
            bytes_moved: 0,
            at: t0 + cost,
        });
        Ok(t0 + cost)
    }

    // ---------------- transfers ----------------

    /// Host → device `[lo, hi)` (global elements). Functional copy plus
    /// bus-scheduled timing; emits a [`TransferSpan`].
    pub(crate) fn xfer_h2d(
        &mut self,
        arr: usize,
        g: usize,
        lo: i64,
        hi: i64,
        ready: f64,
        why: &'static str,
    ) -> Result<f64, RunError> {
        if lo >= hi {
            return Ok(ready);
        }
        let st = &self.arrays[arr];
        let elem = st.elem();
        let wlo = st.gpu[g].window.0;
        let handle = st.gpu[g].handle.expect("window ensured");
        let host = &self.host_arrays[arr];
        let dev = self.machine.gpus[g].memory.get_mut(handle)?;
        dev.copy_range_from((lo - wlo) as usize, host, lo as usize, (hi - lo) as usize);
        let bytes = ((hi - lo) as usize * elem) as u64;
        let (start, end) = self
            .machine
            .bus
            .transfer(Endpoint::Host, Endpoint::Gpu(g), bytes, ready);
        self.rec.transfer(TransferSpan {
            kind: TransferKind::H2D,
            array: self.prog.array_params[arr].0.clone(),
            bytes,
            src: None,
            dst: Some(g),
            why,
            start,
            end,
        });
        self.arrays[arr].gpu[g].valid.insert(lo, hi);
        Ok(end)
    }

    /// Device → host `[lo, hi)`.
    pub(crate) fn xfer_d2h(
        &mut self,
        arr: usize,
        g: usize,
        lo: i64,
        hi: i64,
        ready: f64,
        why: &'static str,
    ) -> Result<f64, RunError> {
        if lo >= hi {
            return Ok(ready);
        }
        let st = &self.arrays[arr];
        let elem = st.elem();
        let wlo = st.gpu[g].window.0;
        let handle = st.gpu[g].handle.expect("window materialised");
        let dev = self.machine.gpus[g].memory.get(handle)?;
        let host = &mut self.host_arrays[arr];
        host.copy_range_from(lo as usize, dev, (lo - wlo) as usize, (hi - lo) as usize);
        let bytes = ((hi - lo) as usize * elem) as u64;
        let (start, end) = self
            .machine
            .bus
            .transfer(Endpoint::Gpu(g), Endpoint::Host, bytes, ready);
        self.rec.transfer(TransferSpan {
            kind: TransferKind::D2H,
            array: self.prog.array_params[arr].0.clone(),
            bytes,
            src: Some(g),
            dst: None,
            why,
            start,
            end,
        });
        Ok(end)
    }

    /// Device → device `[lo, hi)` (through a staging copy; the simulated
    /// bus still prices it as one peer transfer).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn xfer_p2p(
        &mut self,
        arr: usize,
        src: usize,
        dst: usize,
        lo: i64,
        hi: i64,
        ready: f64,
        why: &'static str,
    ) -> Result<f64, RunError> {
        if lo >= hi {
            return Ok(ready);
        }
        let elem = self.arrays[arr].elem();
        let staged: Vec<u8> = {
            let ga = &self.arrays[arr].gpu[src];
            let sb = self.machine.gpus[src].memory.get(ga.handle.expect("src window"))?;
            let off = (lo - ga.window.0) as usize * elem;
            let bytes = &sb.bytes()[off..off + (hi - lo) as usize * elem];
            let mut buf = self.staging.take_scratch(bytes.len());
            buf.extend_from_slice(bytes);
            buf
        };
        let nbytes = staged.len() as u64;
        {
            let ga = &self.arrays[arr].gpu[dst];
            let db = self.machine.gpus[dst]
                .memory
                .get_mut(ga.handle.expect("dst window"))?;
            let off = (lo - ga.window.0) as usize * elem;
            db.bytes_mut()[off..off + staged.len()].copy_from_slice(&staged);
        }
        self.staging.put_back_scratch(staged);
        let (start, end) = self.machine.bus.transfer(
            Endpoint::Gpu(src),
            Endpoint::Gpu(dst),
            nbytes,
            ready,
        );
        self.rec.transfer(TransferSpan {
            kind: TransferKind::P2P,
            array: self.prog.array_params[arr].0.clone(),
            bytes: nbytes,
            src: Some(src),
            dst: Some(dst),
            why,
            start,
            end,
        });
        self.arrays[arr].gpu[dst].valid.insert(lo, hi);
        Ok(end)
    }

    /// Copy device-authoritative data for `[lo, hi)` back into the host
    /// copy (`update host` / region-exit copy-out).
    pub(crate) fn flush_to_host(
        &mut self,
        arr: usize,
        lo: i64,
        hi: i64,
        t0: f64,
    ) -> Result<f64, RunError> {
        // Flush takes ranges from the first GPU whose valid set covers
        // them, so an elided replica sync must be reconciled first.
        let t0 = self.ensure_synced(arr, t0)?;
        let mut end = t0;
        let mut remaining = RangeSet::of(lo.max(0), hi.min(self.arrays[arr].len as i64));
        let ngpus = self.arrays[arr].gpu.len();
        for g in 0..ngpus {
            if remaining.is_empty() {
                break;
            }
            let take = {
                let ga = &self.arrays[arr].gpu[g];
                if ga.red_private {
                    RangeSet::new()
                } else {
                    let mut t = ga.valid.clone();
                    t.intersect(&remaining);
                    t
                }
            };
            for (a, b) in take.iter().collect::<Vec<_>>() {
                let e = self.xfer_d2h(arr, g, a, b, t0, "flush")?;
                end = end.max(e);
                remaining.remove(a, b);
            }
        }
        // Ranges valid nowhere were never materialised on the device; the
        // host copy is already the logical content.
        Ok(end)
    }

    /// Push host data for `[lo, hi)` into every materialised device window
    /// (`update device`).
    pub(crate) fn push_to_device(
        &mut self,
        arr: usize,
        lo: i64,
        hi: i64,
        t0: f64,
    ) -> Result<f64, RunError> {
        // Host data overwrites device replicas below; reconcile any
        // deferred sync first so dirty bits don't survive the overwrite.
        let t0 = self.ensure_synced(arr, t0)?;
        let mut end = t0;
        let ngpus = self.arrays[arr].gpu.len();
        for g in 0..ngpus {
            let (wlo, whi, have) = {
                let ga = &self.arrays[arr].gpu[g];
                (ga.window.0, ga.window.1, ga.handle.is_some())
            };
            if !have {
                continue;
            }
            let a = lo.max(wlo);
            let b = hi.min(whi);
            if a < b {
                let e = self.xfer_h2d(arr, g, a, b, t0, "update")?;
                end = end.max(e);
            }
        }
        Ok(end)
    }

    /// Free all device allocations for an array (region fully exited).
    pub(crate) fn free_array_devices(&mut self, arr: usize) -> Result<(), RunError> {
        // With no device copies left, the host copy is authoritative again.
        self.arrays[arr].host_stale = false;
        self.arrays[arr].sync_pending = false;
        let ngpus = self.arrays[arr].gpu.len();
        for g in 0..ngpus {
            let ga = &mut self.arrays[arr].gpu[g];
            let handles = [ga.handle.take(), ga.dirty_acct.take(), ga.miss_acct.take()];
            ga.valid.clear();
            ga.dirty = None;
            ga.red_private = false;
            ga.window = (0, 0);
            for h in handles.into_iter().flatten() {
                self.machine.gpus[g].memory.free(h)?;
            }
        }
        Ok(())
    }
}
