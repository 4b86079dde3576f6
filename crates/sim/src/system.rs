//! The assembled machine and its cycle loop.

use std::collections::VecDeque;
use std::ops::Range;

use dx100_common::flags::{FlagBoard, FlagId};
use dx100_common::hash::{HashMap, HashSet};
use dx100_common::sleep::all_asleep_until;
use dx100_common::{Addr, CoreId, Cycle, DelayQueue, LineAddr, ReqId, Sleep, TraceHandle};
use dx100_core::isa::{Instruction, RegId, TileId};
use dx100_core::{Dx100Engine, MemPorts, MemoryImage};
use dx100_cpu::{Core, CoreOp, MemKind};
use dx100_dram::{DramSystem, MemRequest};
use dx100_mem::{Access, DramBound, MemoryHierarchy, Requester};
use dx100_prefetch::Dmp;

use crate::config::{SystemConfig, DEFAULT_TRACE_CAPACITY};
use crate::driver::NullDriver;
use crate::epoch::EpochSampler;
use crate::profile::{RunTelemetry, SystemProfile};
use crate::region::{RegionCoherence, RegionGrant};
use crate::stats::RunStats;

/// A memory request's id: the top byte names the DX100 instance that sent
/// it, or [`HIER`], and the rest is the instance's own id, so a response
/// from the LLC or from DRAM finds its engine without a lookup.
const ENGINE_ID_SHIFT: u32 = 56;

/// Top byte of the cache hierarchy's DRAM requests (misses and
/// write-backs), whose responses need only their line and direction.
const HIER: usize = 0xff;

/// The id of instance `e_idx`'s request `id` outside the engine.
fn req_id(e_idx: usize, id: ReqId) -> ReqId {
    debug_assert!(e_idx <= HIER && id >> ENGINE_ID_SHIFT == 0);
    ((e_idx as u64) << ENGINE_ID_SHIFT) | id
}

/// The inverse of [`req_id`]: `(e_idx, id)`.
fn split_req_id(id: ReqId) -> (usize, ReqId) {
    (
        (id >> ENGINE_ID_SHIFT) as usize,
        id & ((1 << ENGINE_ID_SHIFT) - 1),
    )
}

/// Page granularity of the directory's H-bits (4 KiB).
const PAGE_SHIFT: u32 = 12;

/// What a core's MMIO stores carry to its DX100 instance. Everything a
/// core sends to an engine — register writes, tile writes, instructions —
/// applies in the order it landed: an instruction stalled on region
/// acquisition snapshots its scalar registers at delivery, so a younger
/// register write overtaking it would corrupt the snapshot.
#[derive(Debug, Clone)]
enum Mmio {
    Instr {
        instr: Instruction,
        flag: Option<FlagId>,
    },
    Reg {
        reg: RegId,
        value: u64,
    },
    Tile {
        tile: TileId,
        data: Vec<u64>,
    },
}

/// The full simulated system.
pub struct System {
    cfg: SystemConfig,
    clock: Cycle,
    cores: Vec<Core>,
    hier: MemoryHierarchy,
    dram: DramSystem,
    engines: Vec<Dx100Engine>,
    core_engine: Vec<usize>,
    dmp: Option<Dmp>,
    flags: FlagBoard,
    image: MemoryImage,
    /// Sent MMIO messages with their instance, indexed by the signal of
    /// the store that lands them; taken when it does.
    mmio_sent: Vec<Option<(usize, Mmio)>>,
    dram_retry: VecDeque<MemRequest>,
    spd_fills: DelayQueue<LineAddr>,
    region: RegionCoherence,
    /// Pages whose data the host produced through its caches (the
    /// directory's page-level H-bits): DX100 accesses to these route via
    /// the LLC, where misses allocate, capturing any reuse.
    host_pages: HashSet<u64>,
    /// Per-engine in-order MMIO queues: every landed message waits here
    /// until the older ones have applied. On a multi-instance machine
    /// region acquisition may delay the head, but never reorders; with
    /// one instance a queue drains in the cycle its messages land.
    mmio_queues: Vec<VecDeque<Mmio>>,
    /// Per engine: while its queue head waits out a region acquisition,
    /// the cycle it completes (multi-instance only).
    acquired_at: Vec<Option<Cycle>>,
    /// (engine, handle) → region base, for release on retire
    /// (multi-instance only).
    region_pins: HashMap<(usize, u64), Addr>,
    roi_start: Cycle,
    roi_snapshot: Option<RunStats>,
    issue_scratch: Vec<(CoreId, dx100_cpu::MemIssue)>,
    to_dram_scratch: Vec<DramBound>,
    /// Write-backs evicted by DRAM/SPD fills, reused across cycles.
    wb_scratch: Vec<DramBound>,
    /// Read lines completed by DRAM this tick, reused across cycles.
    fill_scratch: Vec<LineAddr>,
    /// Sleep state of each core under activity gating (`cycle_skip`); the
    /// hierarchy and the DRAM system gate their caches and channels.
    core_sleep: Vec<Sleep>,
    /// Sleep state of each DX100 engine.
    engine_sleep: Vec<Sleep>,
    /// Cycles before this one pass with every unit asleep: `step` only
    /// advances the clock. Cleared by every program-facing mutation (see
    /// [`System::wake`]).
    all_asleep_until: Cycle,
    /// Telemetry: cycles on which no unit ticked. Deliberately not part of
    /// [`RunStats`], which must stay bit-identical with gating off.
    skipped_cycles: u64,
    /// Telemetry: entries into the everything-asleep path.
    skip_events: u64,
    /// Root trace handle when tracing is on; components hold child handles.
    trace_root: Option<TraceHandle>,
    /// Separate sink for profile counter events (`"ph":"C"`). Kept out of
    /// `trace_root` so [`RunStats::trace`] stays byte-identical with
    /// profiling on or off; consumers merge it into the Chrome trace at
    /// write time via [`RunTelemetry::counters`].
    profile_trace: Option<TraceHandle>,
    /// Epoch time-series sampler when epoch sampling is on.
    sampler: Option<EpochSampler>,
}

impl System {
    /// Builds the machine over an application memory image.
    pub fn new(cfg: SystemConfig, image: MemoryImage) -> Self {
        let mut cores: Vec<Core> = (0..cfg.cores)
            .map(|c| Core::new(c, cfg.core.clone()))
            .collect();
        let mut hier = MemoryHierarchy::new(cfg.hierarchy.clone());
        let mut dram = DramSystem::new(cfg.dram.clone());
        let mut engines = Vec::new();
        if let Some(dxcfg) = &cfg.dx100 {
            assert!(cfg.dx100_instances < HIER, "too many DX100 instances");
            for i in 0..cfg.dx100_instances {
                let mut e = Dx100Engine::new(dxcfg.clone(), &cfg.dram);
                e.set_spd_base(dx100_core::engine::SPD_REGION_BASE + ((i as u64) << 40));
                e.preload_ptes(0, image.high_water());
                engines.push(e);
            }
        }
        let instances = engines.len().max(1);
        let per = cfg.cores.div_ceil(instances);
        let core_engine = (0..cfg.cores).map(|c| c / per).collect();
        let dmp = cfg.dmp.map(|d| Dmp::new(d, cfg.cores));
        let mmio_queues = (0..engines.len()).map(|_| VecDeque::new()).collect();
        let acquired_at = vec![None; engines.len()];
        let trace_root = cfg
            .obs
            .trace
            .then(|| TraceHandle::root(DEFAULT_TRACE_CAPACITY));
        if let Some(root) = &trace_root {
            dram.attach_trace(root, cfg.cpu_cycles_per_dram_tick);
            hier.attach_trace(root);
            for (c, core) in cores.iter_mut().enumerate() {
                core.set_trace(root.track(format!("core{c}")));
            }
            for (i, engine) in engines.iter_mut().enumerate() {
                engine.set_trace(root.track(format!("DX100.{i}")));
            }
        }
        let mut profile_trace = None;
        if cfg.obs.profile {
            for core in &mut cores {
                core.enable_profile();
            }
            hier.enable_profile();
            dram.enable_profile();
            for engine in &mut engines {
                engine.enable_profile();
            }
            profile_trace = Some(TraceHandle::root(DEFAULT_TRACE_CAPACITY));
        }
        let sampler = cfg.obs.epoch_cycles.map(|e| EpochSampler::new(e, 0));
        if cfg.cycle_skip {
            hier.enable_gating();
            dram.enable_gating();
        }
        let engine_sleep = vec![Sleep::default(); engines.len()];
        System {
            clock: 0,
            cores,
            hier,
            dram,
            engines,
            core_engine,
            dmp,
            flags: FlagBoard::new(),
            image,
            mmio_sent: Vec::new(),
            dram_retry: VecDeque::new(),
            spd_fills: DelayQueue::new(),
            region: RegionCoherence::new(),
            host_pages: HashSet::default(),
            mmio_queues,
            acquired_at,
            region_pins: HashMap::default(),
            roi_start: 0,
            roi_snapshot: None,
            issue_scratch: Vec::new(),
            to_dram_scratch: Vec::new(),
            wb_scratch: Vec::new(),
            fill_scratch: Vec::new(),
            core_sleep: vec![Sleep::default(); cfg.cores],
            engine_sleep,
            all_asleep_until: 0,
            skipped_cycles: 0,
            skip_events: 0,
            trace_root,
            profile_trace,
            sampler,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Program-facing API (the "software" view of the machine)
    // ------------------------------------------------------------------

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cfg.cores
    }

    /// Allocates a synchronization flag.
    pub fn alloc_flag(&mut self) -> FlagId {
        self.flags.alloc()
    }

    /// Reads a flag.
    pub fn flag(&self, f: FlagId) -> bool {
        self.flags.get(f)
    }

    /// Declares `[base, base + bytes)` as host-produced: a preceding phase
    /// of the application wrote it through the cores' caches, so the
    /// coherence directory's page-level H-bits are set and DX100 accesses
    /// to these pages route via the LLC rather than directly to DRAM.
    /// LLC misses on this path allocate, so cross-tile reuse is captured —
    /// a false-positive H-bit costs one LLC lookup, exactly the paper's
    /// stated trade-off. Kernels call this for arrays the host computes
    /// between offload phases (CG's `x`, hash-join build tables, UME mesh
    /// values); data only ever touched by DX100 keeps the direct-DRAM path.
    pub fn mark_host_resident(&mut self, base: Addr, bytes: u64) {
        self.wake();
        let first = base >> PAGE_SHIFT;
        let last = (base + bytes.max(1) - 1) >> PAGE_SHIFT;
        for p in first..=last {
            self.host_pages.insert(p);
        }
    }

    /// Appends literal micro-ops to a core's program.
    pub fn push_ops<I: IntoIterator<Item = CoreOp>>(&mut self, core: CoreId, ops: I) {
        self.wake();
        self.cores[core].channel_mut().push_ops(ops);
    }

    /// Appends a loop to a core's program: `body(i, ops)` appends element
    /// `i`'s micro-ops to `ops`, for each `i` in `elems` in order. The
    /// core generates elements as it dispatches, a batch at a time, so a
    /// loop over millions of elements never materializes its trace.
    pub fn push_loop(
        &mut self,
        core: CoreId,
        elems: Range<usize>,
        body: impl FnMut(usize, &mut VecDeque<CoreOp>) + Send + 'static,
    ) {
        self.wake();
        self.cores[core].channel_mut().push_loop(elems, body);
    }

    /// Blocks the core on `flag` (the `wait` API; `spin` charges poll
    /// instructions, modeling OpenMP critical sections).
    pub fn push_wait(&mut self, core: CoreId, flag: FlagId, spin: bool) {
        self.push_ops(core, [CoreOp::WaitFlag { flag, spin }]);
    }

    /// Sends a DX100 instruction from `core`: three timed 64-bit MMIO
    /// stores; the instruction enters the accelerator when the last beat
    /// lands. `flag` is set when the instruction retires.
    pub fn send_instruction(&mut self, core: CoreId, instr: Instruction, flag: Option<FlagId>) {
        self.send_mmio(core, 3, Mmio::Instr { instr, flag });
    }

    /// Writes a whole scratchpad tile from `core`. The *data* lands when the
    /// trailing MMIO beat completes; the time for producing the elements
    /// themselves should be modeled with store ops pushed beforehand (a
    /// tile job's produce loop in the workloads crate).
    pub fn send_tile_write(&mut self, core: CoreId, tile: TileId, data: Vec<u64>) {
        self.send_mmio(core, 1, Mmio::Tile { tile, data });
    }

    /// Writes a DX100 scalar register from `core` (one timed MMIO store).
    pub fn send_reg_write(&mut self, core: CoreId, reg: RegId, value: u64) {
        self.send_mmio(core, 1, Mmio::Reg { reg, value });
    }

    /// Pushes `beats` timed MMIO stores onto `core`; `msg` joins its
    /// instance's queue when the last one lands.
    fn send_mmio(&mut self, core: CoreId, beats: usize, msg: Mmio) {
        let latency = self
            .cfg
            .dx100
            .as_ref()
            .expect("MMIO store on a machine without DX100")
            .mmio_latency as u16;
        let signal = self.mmio_sent.len() as u32;
        self.mmio_sent.push(Some((self.core_engine[core], msg)));
        let ops = (1..=beats).map(|beat| CoreOp::Mmio {
            latency,
            signal: (beat == beats).then_some(signal),
        });
        self.push_ops(core, ops);
    }

    /// DX100 instance serving `core`.
    pub fn engine_of_core(&self, core: CoreId) -> usize {
        self.core_engine[core]
    }

    /// Mutable access to a DX100 instance (functional setup: tiles, PTEs).
    pub fn dx100(&mut self, instance: usize) -> &mut Dx100Engine {
        self.wake();
        &mut self.engines[instance]
    }

    /// Shared access to a DX100 instance (reading result tiles).
    pub fn dx100_ref(&self, instance: usize) -> &Dx100Engine {
        &self.engines[instance]
    }

    /// The application memory image (functional data).
    pub fn image(&mut self) -> &mut MemoryImage {
        self.wake();
        &mut self.image
    }

    /// Shared view of the memory image.
    pub fn image_ref(&self) -> &MemoryImage {
        &self.image
    }

    /// Consumes the system, returning the final memory image (result
    /// verification).
    pub fn into_image(self) -> MemoryImage {
        self.image
    }

    /// The DMP prefetcher, when configured.
    pub fn dmp_mut(&mut self) -> Option<&mut Dmp> {
        self.wake();
        self.dmp.as_mut()
    }

    /// Memory-mapped address of a scratchpad element as seen by `core`.
    pub fn spd_elem_addr(&self, core: CoreId, tile: TileId, i: usize) -> Addr {
        self.engines[self.core_engine[core]].tile_elem_addr(tile, i)
    }

    /// Whether every core has drained.
    pub fn cores_idle(&self) -> bool {
        self.cores.iter().all(|c| c.is_done())
    }

    /// Starts the region of interest: clears all statistics.
    pub fn roi_begin(&mut self) {
        self.settle(self.clock);
        self.roi_start = self.clock;
        for c in &mut self.cores {
            c.reset_stats();
        }
        self.hier.reset_stats();
        self.dram.reset_stats();
        for e in &mut self.engines {
            e.reset_stats();
        }
        if let Some(s) = &mut self.sampler {
            s.rebase(self.clock);
        }
    }

    /// Ends the region of interest, snapshotting statistics.
    pub fn roi_end(&mut self) {
        self.settle(self.clock);
        self.roi_snapshot = Some(self.collect_stats());
    }

    // ------------------------------------------------------------------
    // The cycle loop
    // ------------------------------------------------------------------

    /// Steps the machine until `pred` holds, checking it before each step,
    /// so it does not step when `pred` already holds. This is a program's
    /// barrier: `run_until(System::cores_idle)` ends a phase, and
    /// `run_until(|sys| sys.flag(f))` waits for one tile.
    ///
    /// # Panics
    /// As [`System::finish`].
    pub fn run_until(&mut self, mut pred: impl FnMut(&System) -> bool) {
        while !pred(self) {
            self.step();
            self.assert_below_max_cycles();
        }
    }

    /// Steps at least once and until the machine drains, then returns the
    /// run's statistics: the [`System::roi_end`] snapshot if there is one,
    /// else everything since the last [`System::roi_begin`], with trace and
    /// epoch samples attached.
    ///
    /// # Panics
    /// Panics if the simulation reaches the configured `max_cycles` (a
    /// deadlocked program) or a DX100 engine halts on a runtime error.
    pub fn finish(&mut self) -> RunStats {
        loop {
            self.step();
            if self.is_drained() {
                break;
            }
            self.assert_below_max_cycles();
        }
        self.finalize_observability()
    }

    /// Alias of [`System::finish`] for callers that pass a [`NullDriver`].
    pub fn run(&mut self, _: &mut NullDriver) -> RunStats {
        self.finish()
    }

    fn assert_below_max_cycles(&self) {
        assert!(
            self.clock < self.cfg.max_cycles,
            "simulation exceeded {} cycles — deadlocked program?\n{}",
            self.cfg.max_cycles,
            self.debug_snapshot()
        );
    }

    /// Closes open trace spans, records the final (partial) epoch, and
    /// attaches both to the run's statistics.
    fn finalize_observability(&mut self) -> RunStats {
        self.settle(self.clock);
        let now = self.clock;
        if self.trace_root.is_some() {
            for c in &mut self.cores {
                c.finish_trace(now);
            }
            for e in &mut self.engines {
                e.finish_trace(now);
            }
        }
        let mut stats = self
            .roi_snapshot
            .take()
            .unwrap_or_else(|| self.collect_stats());
        if self.sampler.is_some() {
            let cumulative = self.collect_stats();
            let depth = self.dx100_queue_depth();
            if let Some(s) = &mut self.sampler {
                s.finish(now, &cumulative, depth);
                stats.epochs = s.take_samples();
            }
        }
        // Final counter sample at the last cycle, sampler or not, so a
        // profiled trace always carries the counter tracks.
        self.emit_profile_counters(now, self.dx100_queue_depth());
        if let Some(root) = &self.trace_root {
            stats.trace = Some(root.snapshot());
        }
        stats
    }

    /// Row Table column entries buffered across all DX100 instances.
    fn dx100_queue_depth(&self) -> u64 {
        self.engines.iter().map(|e| e.queue_depth() as u64).sum()
    }

    fn is_drained(&self) -> bool {
        self.cores.iter().all(|c| c.is_done())
            && self.hier.is_idle()
            && self.dram.is_idle()
            && self.engines.iter().all(|e| e.is_idle())
            && self.dram_retry.is_empty()
            && self.spd_fills.is_empty()
            && self.mmio_queues.iter().all(|q| q.is_empty())
    }

    /// Accumulated `(skipped_cycles, skip_events)` cycle-skip telemetry.
    pub fn skip_stats(&self) -> (u64, u64) {
        (self.skipped_cycles, self.skip_events)
    }

    /// Rolls every component's cycle attribution into one
    /// [`SystemProfile`], or `None` when `obs.profile` is off. Checks the
    /// MECE contract on collection: each component's buckets must sum to
    /// exactly the cycles (or DRAM ticks) it was timed for, which also
    /// catches a slept span left uncredited. Call after a settle.
    fn collect_profile(&self) -> Option<SystemProfile> {
        if !self.cfg.obs.profile {
            return None;
        }
        let elapsed = self.clock - self.roi_start;
        let mut cores = dx100_cpu::CoreProfile::default();
        let mut live = 0u64;
        for c in &self.cores {
            let p = c.profile()?;
            debug_assert_eq!(
                p.attributed(),
                c.stats().cycles,
                "core {} attribution is not MECE",
                c.id()
            );
            live += p.attributed();
            cores.merge(p);
        }
        let core_drained = elapsed * self.cores.len() as u64 - live;
        let engines = if self.engines.is_empty() {
            None
        } else {
            let mut agg = dx100_core::EngineProfile::default();
            for e in &self.engines {
                let p = e.profile()?;
                debug_assert_eq!(p.attributed(), elapsed, "DX100 attribution is not MECE");
                agg.merge(p);
            }
            Some(agg)
        };
        let dram_ticks = self.dram.stats().ticks;
        let dram: Vec<dx100_dram::ChannelProfile> = self
            .dram
            .channel_profiles()
            .into_iter()
            .map(|p| {
                let p = p?;
                debug_assert_eq!(p.attributed(), dram_ticks, "DRAM attribution is not MECE");
                Some(p.clone())
            })
            .collect::<Option<_>>()?;
        Some(SystemProfile {
            elapsed,
            num_cores: self.cores.len(),
            cores,
            core_drained,
            engines,
            dram,
            caches: self.hier.profile()?,
        })
    }

    /// Gating counters plus (when profiling is on) the full cycle
    /// attribution — everything deliberately kept outside [`RunStats`].
    /// Credits every sleeping unit's span first; the units stay asleep.
    pub fn telemetry(&mut self) -> RunTelemetry {
        self.settle(self.clock);
        RunTelemetry {
            skipped_cycles: self.skipped_cycles,
            skip_events: self.skip_events,
            profile: self.collect_profile(),
            counters: self.profile_trace.as_ref().map(|t| t.snapshot()),
        }
    }

    /// Emits Chrome-trace counter tracks (`"ph":"C"`) for the headline
    /// utilization series, into the profile-only sink. Called only at epoch
    /// boundaries and at finalization: settle points whose cycles are never
    /// elided, so the emitted series is bit-identical with gating on or
    /// off.
    fn emit_profile_counters(&self, now: Cycle, dx100_depth: u64) {
        let Some(root) = &self.profile_trace else {
            return;
        };
        let active: u64 = self
            .cores
            .iter()
            .filter_map(|c| c.profile())
            .map(|p| p.active)
            .sum();
        let cmd: u64 = self
            .dram
            .channel_profiles()
            .into_iter()
            .flatten()
            .map(|p| p.cmd_ticks)
            .sum();
        root.counter("profile", "core_active_cycles", now, active);
        root.counter("profile", "dram_cmd_ticks", now, cmd);
        root.counter("profile", "dx100_queue_depth", now, dx100_depth);
    }

    /// Credits every sleeping unit's span up to cycle `to` and leaves it
    /// asleep: statistics are about to be read (epoch boundary, ROI
    /// boundary, end of run, telemetry). Idempotent.
    fn settle(&mut self, to: Cycle) {
        for (s, core) in self.core_sleep.iter_mut().zip(&mut self.cores) {
            if let Some((from, to)) = s.settle(to) {
                core.credit_idle_span(from, to);
            }
        }
        for (s, e) in self.engine_sleep.iter_mut().zip(&mut self.engines) {
            if let Some((from, to)) = s.settle(to) {
                e.credit_idle_span(from, to);
            }
        }
        self.hier.settle(to);
        self.dram
            .settle(to.div_ceil(self.cfg.cpu_cycles_per_dram_tick));
    }

    /// Wakes every unit, crediting slept spans up to the current cycle
    /// from the state before the program's mutation: program-facing methods
    /// that can change machine state call this *before* mutating, so the
    /// change is seen on the very next cycle.
    fn wake(&mut self) {
        let now = self.clock;
        for c in 0..self.cores.len() {
            self.wake_core(c, now);
        }
        for e in 0..self.engines.len() {
            self.wake_engine(e, now);
        }
        self.hier.wake_all(now);
        self.dram
            .wake_all(now.div_ceil(self.cfg.cpu_cycles_per_dram_tick));
        self.all_asleep_until = 0;
    }

    /// Wakes core `c` for an input; its slept span ends at `to`, which is
    /// the current cycle if the core's slot in it is still ahead and the
    /// next cycle otherwise.
    fn wake_core(&mut self, c: usize, to: Cycle) {
        if let Some((from, to)) = self.core_sleep[c].wake(to) {
            self.cores[c].credit_idle_span(from, to);
        }
    }

    /// Wakes engine `e` for an input; `to` as in [`System::wake_core`].
    fn wake_engine(&mut self, e: usize, to: Cycle) {
        if let Some((from, to)) = self.engine_sleep[e].wake(to) {
            self.engines[e].credit_idle_span(from, to);
        }
    }

    /// Wakes every sleeping core whose awaited flag is now set. Cores before
    /// `first_unticked` had their slot in this cycle and saw the flag clear,
    /// so their spans end at `now + 1`; the rest tick in this cycle.
    fn wake_flag_waiters(&mut self, now: Cycle, first_unticked: usize) {
        for c in 0..self.cores.len() {
            if self.cores[c]
                .waiting_on()
                .is_some_and(|f| self.flags.get(f))
            {
                let to = if c < first_unticked { now + 1 } else { now };
                self.wake_core(c, to);
            }
        }
    }

    /// `None` unless every unit sleeps and no glue work is due at the
    /// current cycle; otherwise the first cycle at which anything can
    /// happen — the earliest unit timer, link message, scratchpad fill or
    /// delayed MMIO delivery — capped at the next epoch boundary (samples
    /// land on the same cycles as an ungated run) and at `max_cycles` (the
    /// deadlock panic fires at the same cycle). DRAM channels tick only on
    /// every `cpu_cycles_per_dram_tick`-th cycle, so an awake channel counts
    /// as asleep until its next tick.
    fn everything_asleep_until(&self) -> Option<Cycle> {
        let now = self.clock;
        let m = self.cfg.cpu_cycles_per_dram_tick;
        // Engines first: on accelerated runs they are the unit most often
        // awake, so the common failing check ends after one load.
        let mut until = all_asleep_until(self.engine_sleep.iter().chain(&self.core_sleep))?;
        until = until.min(self.hier.asleep_until()?);
        until = until.min(self.dram.next_tick_due()?.saturating_mul(m));
        if !self.dram_retry.is_empty() || self.dmp.as_ref().is_some_and(|d| d.has_pending()) {
            return None;
        }
        // In-order MMIO delivery: only a head still acquiring its region is
        // inert (any other head may apply or request a region at once).
        for (q, acquired_at) in self.mmio_queues.iter().zip(&self.acquired_at) {
            match acquired_at {
                Some(t) if *t > now => until = until.min(*t),
                _ if !q.is_empty() => return None,
                _ => {}
            }
        }
        if let Some(t) = self.spd_fills.next_ready_at() {
            until = until.min(t);
        }
        if let Some(s) = &self.sampler {
            until = until.min(s.next_boundary());
        }
        Some(until.min(self.cfg.max_cycles))
    }

    /// Advances the machine one CPU cycle.
    ///
    /// With `cycle_skip` on, each core, cache, DRAM channel and DX100
    /// engine is gated: after a tick that did no work it asks its own
    /// `next_event` once and sleeps until then, or until an input reaches
    /// it, and its slept span is credited with its batch rule when it
    /// wakes. A cycle on which every unit sleeps costs a compare and an
    /// increment. A barrier ([`System::run_until`]) still checks its
    /// predicate before every cycle, so a program sees the same clock
    /// values as on an ungated run.
    fn step(&mut self) {
        if self.clock < self.all_asleep_until {
            self.skipped_cycles += 1;
            self.clock += 1;
            return;
        }
        let now = self.clock;
        let gating = self.cfg.cycle_skip;

        // --- Cores tick and issue memory operations. ---
        let mut issues = std::mem::take(&mut self.issue_scratch);
        issues.clear();
        for c in 0..self.cores.len() {
            if !self.core_sleep[c].due(now) {
                continue;
            }
            self.wake_core(c, now);
            let sets = self.flags.set_count();
            let worked = self.cores[c].tick(now, &mut self.flags, &mut |iss| issues.push((c, iss)));
            if self.flags.set_count() != sets {
                self.wake_flag_waiters(now, c + 1);
            }
            if gating {
                let (core, flags) = (&mut self.cores[c], &self.flags);
                self.core_sleep[c].after_tick(now, worked, |t| core.next_event(t, flags));
            }
        }
        for (c, iss) in issues.drain(..) {
            if let (Some(dmp), MemKind::Load) = (&mut self.dmp, iss.kind) {
                dmp.on_core_load(c, iss.addr, &self.image);
            }
            let access = Access {
                id: iss.seq,
                line: LineAddr::containing(iss.addr),
                is_write: matches!(iss.kind, MemKind::Store | MemKind::Atomic),
                stream: iss.stream,
                is_prefetch: false,
                requester: Requester::Core(c),
            };
            self.hier.core_access(access, now);
        }
        self.issue_scratch = issues;

        // --- Landed MMIO messages queue on their engine and apply in order. ---
        for c in 0..self.cores.len() {
            if !self.cores[c].has_mmio_signals() {
                continue;
            }
            for signal in self.cores[c].drain_mmio_signals() {
                let (engine, msg) = self.mmio_sent[signal as usize]
                    .take()
                    .expect("MMIO message landed twice");
                self.mmio_queues[engine].push_back(msg);
            }
        }
        self.deliver_mmio(now);

        // --- DMP prefetch injection. ---
        if let Some(dmp) = &mut self.dmp {
            for _ in 0..2 {
                if let Some((core, line)) = dmp.pop_prefetch() {
                    self.hier.inject_prefetch_l2(core, line, now);
                } else {
                    break;
                }
            }
        }

        // --- Cache hierarchy. ---
        let mut to_dram = std::mem::take(&mut self.to_dram_scratch);
        to_dram.clear();
        self.hier.tick(now, &mut to_dram);

        // --- DX100 engines. ---
        {
            let dram_now = now / self.cfg.cpu_cycles_per_dram_tick;
            let (engines, hier, dram) = (&mut self.engines, &mut self.hier, &mut self.dram);
            for (e_idx, engine) in engines.iter_mut().enumerate() {
                let sleep = &mut self.engine_sleep[e_idx];
                if !sleep.due(now) {
                    continue;
                }
                if let Some((from, to)) = sleep.wake(now) {
                    engine.credit_idle_span(from, to);
                }
                let mut ports = SystemPorts {
                    e_idx,
                    hier,
                    dram,
                    dram_now,
                    host_pages: &self.host_pages,
                };
                let worked = engine.tick(now, &mut self.image, &mut ports);
                if let Some(err) = engine.error() {
                    panic!("DX100 instance {e_idx} halted: {err}");
                }
                if gating {
                    sleep.after_tick(now, worked, |t| engine.next_event(t));
                }
            }
        }
        // Engine retirements → flags + region releases. Every core's slot
        // in this cycle has passed.
        let sets = self.flags.set_count();
        for e_idx in 0..self.engines.len() {
            for (handle, flag) in self.engines[e_idx].drain_retired() {
                if let Some(f) = flag {
                    self.flags.set(f);
                }
                if let Some(base) = self.region_pins.remove(&(e_idx, handle)) {
                    self.region.release(e_idx, base);
                }
            }
        }
        if self.flags.set_count() != sets {
            self.wake_flag_waiters(now, self.cores.len());
        }
        // Engine LLC responses.
        while let Some((id, _w)) = self.hier.pop_dx100_response() {
            let (e_idx, id) = split_req_id(id);
            self.wake_engine(e_idx, now + 1);
            self.engines[e_idx].mem_response(id);
        }

        // --- Route LLC↔DRAM traffic (with SPD-region interception). ---
        self.route_to_dram(&mut to_dram);
        self.to_dram_scratch = to_dram;

        // Retry DRAM enqueues that hit a full buffer: peek to probe for
        // space, pop exactly once on success.
        let dram_now = now / self.cfg.cpu_cycles_per_dram_tick;
        while let Some(&req) = self.dram_retry.front() {
            if !self.dram.try_enqueue(req, dram_now) {
                break;
            }
            self.dram_retry.pop_front();
        }

        // --- Scratchpad-region fills (core reads of gathered tiles). ---
        let mut extra = std::mem::take(&mut self.wb_scratch);
        extra.clear();
        while let Some(line) = self.spd_fills.pop_ready(now) {
            self.hier.dram_fill(line, now, &mut extra);
        }
        if !extra.is_empty() {
            self.route_to_dram(&mut extra);
        }
        self.wb_scratch = extra;

        // --- DRAM tick (every other CPU cycle). ---
        if now.is_multiple_of(self.cfg.cpu_cycles_per_dram_tick) {
            self.dram.tick(dram_now);
            let mut fills = std::mem::take(&mut self.fill_scratch);
            fills.clear();
            while let Some(resp) = self.dram.pop_response() {
                match split_req_id(resp.id) {
                    (HIER, _) if !resp.is_write => fills.push(resp.line),
                    (HIER, _) => {}
                    (e_idx, id) => {
                        self.wake_engine(e_idx, now + 1);
                        self.engines[e_idx].mem_response(id);
                    }
                }
            }
            let mut extra = std::mem::take(&mut self.wb_scratch);
            extra.clear();
            for line in fills.drain(..) {
                self.hier.dram_fill(line, now, &mut extra);
            }
            if !extra.is_empty() {
                self.route_to_dram(&mut extra);
            }
            self.wb_scratch = extra;
            self.fill_scratch = fills;
        }

        // --- Core memory responses. ---
        while let Some(resp) = self.hier.pop_core_response() {
            self.wake_core(resp.core, now + 1);
            self.cores[resp.core].mem_complete(resp.id, now);
        }

        // --- Epoch boundary: snapshot interval metrics. ---
        if self.sampler.as_ref().is_some_and(|s| s.due(now)) {
            self.settle(now + 1);
            let cumulative = self.collect_stats();
            let depth = self.dx100_queue_depth();
            if let Some(s) = &mut self.sampler {
                s.sample(now, &cumulative, depth);
            }
            self.emit_profile_counters(now, depth);
        }

        self.clock += 1;
        if gating {
            if let Some(until) = self.everything_asleep_until() {
                if until > self.clock {
                    self.all_asleep_until = until;
                    self.skip_events += 1;
                    self.dram
                        .sleep_through(until.div_ceil(self.cfg.cpu_cycles_per_dram_tick));
                }
            }
        }
    }

    /// Applies each engine's landed MMIO messages strictly in order. On a
    /// multi-instance machine an indirect instruction first acquires its
    /// region, which may stall or delay the queue's head but never lets a
    /// younger message overtake it. Runs before the engines' slots, so a
    /// delivery wakes its engine into this very cycle.
    fn deliver_mmio(&mut self, now: Cycle) {
        let multi = self.engines.len() > 1;
        for e in 0..self.mmio_queues.len() {
            while let Some(head) = self.mmio_queues[e].front() {
                let region = match head {
                    Mmio::Instr { instr, .. } if multi => region_base(instr),
                    _ => None,
                };
                if let Some((base, write)) = region {
                    let held = match self.acquired_at[e] {
                        Some(t) => now >= t,
                        None => match self.region.request(e, base, write) {
                            RegionGrant::Immediate => true,
                            RegionGrant::AfterAcquire => {
                                self.acquired_at[e] = Some(now + self.cfg.region_acquire_latency);
                                false
                            }
                            RegionGrant::Defer => false,
                        },
                    };
                    if !held {
                        break;
                    }
                    self.acquired_at[e] = None;
                }
                let msg = self.mmio_queues[e].pop_front().expect("probed head");
                self.wake_engine(e, now);
                match msg {
                    Mmio::Instr { instr, flag } => {
                        let handle = self.engines[e]
                            .push_instruction(instr, flag)
                            .unwrap_or_else(|err| {
                                panic!("illegal instruction reached DX100: {err}")
                            });
                        if let Some((base, _)) = region {
                            self.region_pins.entry((e, handle)).or_insert(base);
                        }
                    }
                    Mmio::Reg { reg, value } => self.engines[e].write_reg(reg, value),
                    Mmio::Tile { tile, data } => self.engines[e].write_tile(tile, &data),
                }
            }
        }
    }

    fn route_to_dram(&mut self, bound: &mut Vec<DramBound>) {
        let now = self.clock;
        let dram_now = now / self.cfg.cpu_cycles_per_dram_tick;
        for d in bound.drain(..) {
            let addr = d.line.base();
            // SPD-region reads are served by the accelerator's scratchpad.
            if let Some(e_idx) = self.engines.iter().position(|e| e.is_spd_addr(addr)) {
                if !d.is_write {
                    let latency = self
                        .cfg
                        .dx100
                        .as_ref()
                        .expect("a scratchpad address implies a DX100 config")
                        .spd_read_latency;
                    // Routing runs after the engines' slots.
                    self.wake_engine(e_idx, now + 1);
                    self.engines[e_idx].note_spd_cached(d.line);
                    self.spd_fills.push_at(now + latency, d.line);
                }
                continue;
            }
            let req = MemRequest {
                id: req_id(HIER, 0),
                line: d.line,
                is_write: d.is_write,
            };
            if !self.dram.try_enqueue(req, dram_now) {
                self.dram_retry.push_back(req);
            }
        }
    }

    /// One-line machine-state summary for deadlock diagnosis.
    fn debug_snapshot(&self) -> String {
        let cores: Vec<String> = self
            .cores
            .iter()
            .map(|c| {
                format!(
                    "core{}(done={} issued={} waits={})",
                    c.id(),
                    c.is_done(),
                    c.stats().mem_ops_issued,
                    c.stats().wait_cycles
                )
            })
            .collect();
        format!(
            "cycle={} {} hier_idle={} dram_idle={} retry={} spd_fills={}",
            self.clock,
            cores.join(" "),
            self.hier.is_idle(),
            self.dram.is_idle(),
            self.dram_retry.len(),
            self.spd_fills.len()
        ) + &format!(" | hier: {}", self.hier.debug_state())
            + &self
                .engines
                .iter()
                .enumerate()
                .map(|(i, e)| format!(" | dx{}: {}", i, e.debug_state()))
                .collect::<String>()
    }

    /// Collects statistics since the last [`System::roi_begin`].
    pub fn collect_stats(&self) -> RunStats {
        let mut core = dx100_cpu::CoreStats::default();
        for c in &self.cores {
            core.merge(c.stats());
        }
        let mut dxs = None;
        if !self.engines.is_empty() {
            let mut agg = dx100_core::Dx100Stats::default();
            for e in &self.engines {
                agg.merge(e.stats());
            }
            dxs = Some(agg);
        }
        RunStats {
            cycles: self.clock - self.roi_start,
            instructions: core.instructions,
            core,
            dram: self.dram.stats(),
            dram_channels: self.cfg.dram.organization.channels,
            hierarchy: self.hier.stats(),
            dx100: dxs,
            dmp_prefetches: self.dmp.as_ref().map(|d| d.issued).unwrap_or(0),
            epochs: Vec::new(),
            trace: None,
        }
    }
}

/// Region operand of *indirect* memory-access instructions: `(base, is_write)`.
///
/// Only indirect accesses participate in the SWMR region protocol. Streaming
/// accesses (`SLD`/`SST`) deliberately do not: their footprints are affine
/// slices that software already partitions disjointly between instances and
/// synchronizes at phase boundaries (flags / `WaitCoresIdle`), and regions
/// are keyed at array granularity — an exclusive grant per streaming store
/// would falsely serialize two instances writing disjoint halves of the same
/// output array. Indirect accesses, whose footprint is data-dependent and
/// unpartitionable, are the ones that need hardware ordering.
fn region_base(instr: &Instruction) -> Option<(Addr, bool)> {
    match instr {
        Instruction::Ild { base, .. } => Some((*base, false)),
        Instruction::Ist { base, .. } | Instruction::Irmw { base, .. } => Some((*base, true)),
        Instruction::Sld { .. }
        | Instruction::Sst { .. }
        | Instruction::Aluv { .. }
        | Instruction::Alus { .. }
        | Instruction::Rng { .. } => None,
    }
}

/// DX100's view of the memory system, per instance.
struct SystemPorts<'a> {
    e_idx: usize,
    hier: &'a mut MemoryHierarchy,
    dram: &'a mut DramSystem,
    dram_now: Cycle,
    host_pages: &'a HashSet<u64>,
}

impl MemPorts for SystemPorts<'_> {
    fn snoop(&self, line: LineAddr) -> bool {
        self.hier.contains(line) || self.host_pages.contains(&(line.base() >> PAGE_SHIFT))
    }

    fn invalidate(&mut self, line: LineAddr) -> bool {
        self.hier.invalidate(line)
    }

    fn llc_request(&mut self, id: ReqId, line: LineAddr, is_write: bool, now: Cycle) {
        let access = Access {
            id: req_id(self.e_idx, id),
            line,
            is_write,
            stream: 0,
            is_prefetch: false,
            requester: Requester::Dx100,
        };
        self.hier.llc_access(access, now);
    }

    fn dram_try_request(&mut self, id: ReqId, line: LineAddr, is_write: bool, _now: Cycle) -> bool {
        let req = MemRequest {
            id: req_id(self.e_idx, id),
            line,
            is_write,
        };
        self.dram.try_enqueue(req, self.dram_now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parallel sweep executor moves whole simulation jobs — including
    /// a constructed [`System`] — onto worker threads.
    #[test]
    fn system_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<System>();
    }

    #[test]
    fn request_ids_carry_their_route() {
        let (last, big) = (HIER - 1, (1 << ENGINE_ID_SHIFT) - 1);
        assert_eq!(split_req_id(req_id(last, big)), (last, big));
        assert_eq!(split_req_id(req_id(0, 7)), (0, 7));
        assert_eq!(split_req_id(req_id(HIER, 0)).0, HIER);
    }
}
