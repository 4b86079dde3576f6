//! The timed DX100 engine: Figure 2(b) assembled — controller/scoreboard,
//! stream unit, indirect unit, ALU, range fuser, TLB, coherency agent — and
//! clocked against the memory system through [`MemPorts`].

use std::collections::VecDeque;

use dx100_common::flags::FlagId;
use dx100_common::hash::HashSet;
use dx100_common::{Addr, Cycle, LineAddr, ReqId, SpanTracker, TraceHandle};
use dx100_dram::DramConfig;

use crate::alu_unit::AluUnit;
use crate::config::Dx100Config;
use crate::controller::{unit_of, Controller, DispatchedInstr, Unit};
use crate::functional::ExecError;
use crate::indirect::IndirectUnit;
use crate::isa::{Instruction, RegId, TileId};
use crate::memimg::MemoryImage;
use crate::ports::MemPorts;
use crate::profile::EngineProfile;
use crate::range_fuser::RangeFuser;
use crate::regfile::RegFile;
use crate::scratchpad::{Scratchpad, Tile};
use crate::stats::Dx100Stats;
use crate::stream_unit::StreamUnit;
use crate::tlb::Tlb;

/// Base virtual address of the memory-mapped scratchpad data region
/// (Figure 6). Tiles are laid out contiguously, 8 bytes per element.
pub const SPD_REGION_BASE: Addr = 0x4000_0000_0000;

/// Bytes per scratchpad element in the memory-mapped view.
pub const SPD_ELEM_BYTES: u64 = 8;

/// Request-id allocator shared by the units. A response finds its unit
/// through the unit's own in-flight record, so the allocator keeps only
/// the next id and a count of live ones (the profile's `wait_mem` test).
#[derive(Clone, Debug, Default)]
pub struct IdAlloc {
    next: ReqId,
    live: usize,
}

impl IdAlloc {
    /// Allocates the next id.
    pub fn alloc(&mut self) -> ReqId {
        let id = self.next;
        self.next += 1;
        self.live += 1;
        id
    }

    /// Releases a live id: its request was refused (buffer full) or its
    /// response arrived.
    pub fn release(&mut self) {
        self.live -= 1;
    }

    /// Live ids: allocated and not yet released.
    pub fn outstanding(&self) -> usize {
        self.live
    }
}

/// The timed DX100 accelerator instance.
#[derive(Clone, Debug)]
pub struct Dx100Engine {
    cfg: Dx100Config,
    spd: Scratchpad,
    regs: RegFile,
    controller: Controller,
    stream: StreamUnit,
    indirect: IndirectUnit,
    alu: AluUnit,
    range: RangeFuser,
    tlb: Tlb,
    ids: IdAlloc,
    resp_inbox: VecDeque<ReqId>,
    retired: Vec<(u64, Option<FlagId>)>,
    /// Handles retiring within one tick (a buffer reused across ticks).
    retiring: Vec<u64>,
    /// Scratchpad lines the cores have cached (coherency agent V bits).
    spd_cached: HashSet<LineAddr>,
    stats: Dx100Stats,
    next_handle: u64,
    halted: Option<ExecError>,
    spd_base: Addr,
    /// Event sink for tile-phase tracing (`None` = tracing disabled).
    trace: Option<TraceHandle>,
    /// One tracker per phase in [`PHASE_NAMES`] order.
    phase_spans: [SpanTracker; 3],
    /// `(fill, issue)` activity counters at the previous tick.
    prev_phase_counts: [u64; 2],
    /// Cycle attribution (`None` = profiling disabled). Lives outside
    /// [`Dx100Stats`] so RunStats stay byte-identical with profiling on.
    profile: Option<EngineProfile>,
}

/// Tile phases traced per engine, in `phase_spans` order: index fetch +
/// snoop (`fill`), coalesced line issue (`issue`), response write-back
/// (`drain`).
const PHASE_NAMES: [&str; 3] = ["fill", "issue", "drain"];

impl Dx100Engine {
    /// Builds an engine whose Row Table mirrors `dram`'s bank geometry.
    pub fn new(cfg: Dx100Config, dram: &DramConfig) -> Self {
        Dx100Engine {
            spd: Scratchpad::new(cfg.num_tiles, cfg.tile_elems),
            regs: RegFile::new(),
            controller: Controller::new(),
            stream: StreamUnit::new(cfg.stream_rate, cfg.request_table_entries),
            indirect: IndirectUnit::new(cfg.clone(), dram.organization.clone()),
            alu: AluUnit::new(cfg.alu_lanes),
            range: RangeFuser::new(cfg.range_rate),
            tlb: Tlb::new(cfg.tlb_entries),
            ids: IdAlloc::default(),
            resp_inbox: VecDeque::new(),
            retired: Vec::new(),
            retiring: Vec::new(),
            spd_cached: HashSet::default(),
            stats: Dx100Stats::default(),
            next_handle: 0,
            halted: None,
            spd_base: SPD_REGION_BASE,
            trace: None,
            phase_spans: [SpanTracker::default(); 3],
            prev_phase_counts: [0; 2],
            profile: None,
            cfg,
        }
    }

    /// Turns on cycle attribution for this engine.
    pub fn enable_profile(&mut self) {
        self.profile = Some(EngineProfile::default());
    }

    /// The attribution profile, when profiling is enabled.
    pub fn profile(&self) -> Option<&EngineProfile> {
        self.profile.as_ref()
    }

    /// Attaches an event sink; contiguous stretches of tile-phase activity
    /// (`fill`, `issue`, `drain`) become `dx100` spans.
    pub fn set_trace(&mut self, handle: TraceHandle) {
        self.trace = Some(handle);
    }

    /// Closes any phase span still open at end of run.
    pub fn finish_trace(&mut self, now: Cycle) {
        if let Some(t) = self.trace.clone() {
            for (i, name) in PHASE_NAMES.iter().enumerate() {
                self.phase_spans[i].finish(now, &t, "dx100", name);
            }
        }
    }

    /// Relocates this instance's memory-mapped scratchpad region (multiple
    /// DX100 instances occupy disjoint regions).
    pub fn set_spd_base(&mut self, base: Addr) {
        self.spd_base = base;
    }

    /// The configuration in use.
    pub fn config(&self) -> &Dx100Config {
        &self.cfg
    }

    /// Writes a scalar register (core MMIO store to the RF region).
    pub fn write_reg(&mut self, id: RegId, v: u64) {
        self.regs.write(id, v);
    }

    /// Writes a whole tile from the host side.
    pub fn write_tile(&mut self, id: TileId, values: &[u64]) {
        self.spd.write_tile(id, values);
    }

    /// Shared view of a tile.
    pub fn tile(&self, id: TileId) -> &Tile {
        self.spd.tile(id)
    }

    /// Transfers PTEs covering `[base, base+size)` to the accelerator TLB
    /// (the once-per-application setup API of Section 3.6).
    pub fn preload_ptes(&mut self, base: Addr, size: u64) {
        self.tlb.preload_range(base, size);
    }

    /// Memory-mapped address of element `i` of `tile` in the scratchpad
    /// data region (what cores load when consuming gathered data).
    pub fn tile_elem_addr(&self, tile: TileId, i: usize) -> Addr {
        self.spd_base
            + (tile.index() * self.cfg.tile_elems) as u64 * SPD_ELEM_BYTES
            + i as u64 * SPD_ELEM_BYTES
    }

    /// Whether `addr` falls inside the scratchpad data region.
    pub fn is_spd_addr(&self, addr: Addr) -> bool {
        addr >= self.spd_base
            && addr
                < self.spd_base + (self.cfg.num_tiles * self.cfg.tile_elems) as u64 * SPD_ELEM_BYTES
    }

    /// Records that the cores cached a scratchpad line (coherency agent V
    /// bit). The glue calls this when serving SPD-region fills.
    pub fn note_spd_cached(&mut self, line: LineAddr) {
        self.spd_cached.insert(line);
    }

    /// Submits an instruction with its register operands resolved now.
    /// `flag` is set on the flag board when the instruction retires.
    ///
    /// # Errors
    /// Rejects ISA-illegal instructions.
    pub fn push_instruction(
        &mut self,
        instr: Instruction,
        flag: Option<FlagId>,
    ) -> Result<u64, ExecError> {
        instr.validate()?;
        let handle = self.next_handle;
        self.next_handle += 1;
        let (r1, r2, r3) = match instr {
            Instruction::Sld { rs1, rs2, rs3, .. } | Instruction::Sst { rs1, rs2, rs3, .. } => (
                self.regs.read(rs1),
                self.regs.read(rs2),
                self.regs.read(rs3),
            ),
            Instruction::Alus { rs, .. } => (self.regs.read(rs), 0, 0),
            Instruction::Rng { rs1, .. } => (self.regs.read(rs1), 0, 0),
            _ => (0, 0, 0),
        };
        self.controller.receive(DispatchedInstr {
            handle,
            instr,
            r1,
            r2,
            r3,
            flag,
        });
        Ok(handle)
    }

    /// Delivers a memory completion from the system glue (which wakes a
    /// sleeping engine first).
    pub fn mem_response(&mut self, id: ReqId) {
        self.resp_inbox.push_back(id);
    }

    /// Instructions that retired since the last drain: `(handle, flag)`.
    pub fn drain_retired(&mut self) -> std::vec::Drain<'_, (u64, Option<FlagId>)> {
        self.retired.drain(..)
    }

    /// Whether every queue and unit is empty.
    pub fn is_idle(&self) -> bool {
        self.controller.is_idle()
            && self.stream.is_idle()
            && self.indirect.is_idle()
            && self.alu.is_idle()
            && self.range.is_idle()
            && self.resp_inbox.is_empty()
    }

    /// Diagnostic summary of queue occupancy.
    pub fn debug_state(&self) -> String {
        format!(
            "ctl(q={} infl={}) stream_idle={} indirect[{}] alu_idle={} rng_idle={} inbox={}",
            self.controller.queued(),
            self.controller.in_flight(),
            self.stream.is_idle(),
            self.indirect.debug_state(),
            self.alu.is_idle(),
            self.range.is_idle(),
            self.resp_inbox.len()
        )
    }

    /// Engine statistics.
    pub fn stats(&self) -> &Dx100Stats {
        &self.stats
    }

    /// Clears statistics (ROI boundary).
    pub fn reset_stats(&mut self) {
        self.stats = Dx100Stats::default();
        self.prev_phase_counts = [0; 2];
        if self.profile.is_some() {
            self.profile = Some(EngineProfile::default());
        }
    }

    /// Row Table occupancy: buffered column entries awaiting issue.
    pub fn queue_depth(&self) -> usize {
        self.indirect.buffered_columns()
    }

    /// A runtime error that halted the engine, if any.
    pub fn error(&self) -> Option<ExecError> {
        self.halted
    }

    /// Whether the next `tick` would change no state other than re-running
    /// the phase-span trace update with frozen counters (which
    /// [`Self::credit_idle_span`] replays exactly for a skipped span).
    pub fn quiescent(&self, now: Cycle) -> bool {
        if self.halted.is_some() {
            return true; // tick returns immediately
        }
        self.resp_inbox.is_empty()
            && self.retired.is_empty()
            && !self.controller.dispatchable()
            && self.stream.quiescent(&self.spd)
            && self.indirect.quiescent(now, &self.spd)
            && self.alu.quiescent(&self.spd)
            && self.range.quiescent(&self.spd)
    }

    /// Earliest cycle ≥ `now` at which `tick` might not be a pure no-op, or
    /// `None` when the engine wakes only on external input (a memory
    /// response or a newly received instruction).
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.halted.is_some() {
            return None;
        }
        if !self.quiescent(now) {
            return Some(now);
        }
        self.indirect.next_time_event(now)
    }

    /// Replays the per-tick phase-span trace update for a quiescent span
    /// `[from, to)`. With frozen counters the update is edge-triggered: the
    /// first tick may open or close spans (counter deltas versus the last
    /// active tick), and every later tick sees zero deltas — so one update
    /// at `from` plus one at `from + 1` reproduces the whole span.
    pub fn credit_idle_span(&mut self, from: Cycle, to: Cycle) {
        let n = to - from;
        if self.halted.is_some() {
            if let Some(p) = &mut self.profile {
                p.halted += n;
            }
            return;
        }
        // Attribution: the span is quiescent by certificate, so the
        // classification a per-cycle tick would compute is frozen — one
        // batched credit is bit-identical to `n` ticks.
        let outstanding = self.ids.outstanding();
        let depth = self.indirect.buffered_columns() as u64;
        let draining = self.indirect.pending_responses() > 0;
        if let Some(p) = &mut self.profile {
            p.row_table_depth.record_n(depth, n);
            if outstanding > 0 {
                p.wait_mem += n;
            } else {
                p.idle += n;
            }
            if draining {
                p.drain_ticks += n;
            }
        }
        let Some(t) = self.trace.clone() else {
            return;
        };
        let cur = [
            self.stats.snoop_hits + self.stats.snoop_misses,
            self.stats.indirect_line_reads + self.stats.indirect_line_writes,
        ];
        let drain = self.indirect.pending_responses() > 0;
        let first = [
            cur[0] > self.prev_phase_counts[0],
            cur[1] > self.prev_phase_counts[1],
            drain,
        ];
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            self.phase_spans[i].update(first[i], from, &t, "dx100", name);
        }
        self.prev_phase_counts = cur;
        if to > from + 1 {
            let rest = [false, false, drain];
            for (i, name) in PHASE_NAMES.iter().enumerate() {
                self.phase_spans[i].update(rest[i], from + 1, &t, "dx100", name);
            }
        }
    }

    /// Advances one CPU cycle. Returns whether the tick visibly did work:
    /// routed a response, dispatched or retired an instruction, or moved a
    /// counter. `false` is a hint, not a certificate: some unit steps (tile
    /// sizing, say) progress without a counter, which [`Self::next_event`]
    /// then reports.
    pub fn tick(&mut self, now: Cycle, mem: &mut MemoryImage, ports: &mut dyn MemPorts) -> bool {
        if self.halted.is_some() {
            if let Some(p) = &mut self.profile {
                p.halted += 1;
            }
            return false;
        }
        let stats_before = self.stats;
        let mut worked = !self.resp_inbox.is_empty();
        // Cycle attribution: classify before any state changes so the
        // class matches what `credit_idle_span` computes for a skipped
        // span (whose inputs are exactly this pre-tick state).
        if self.profile.is_some() {
            self.classify_tick(now);
        }
        let mut retiring = std::mem::take(&mut self.retiring);

        // 1. Route completed memory requests.
        while let Some(id) = self.resp_inbox.pop_front() {
            self.ids.release();
            if self.indirect.owns(id) {
                self.indirect.push_response(id);
            } else if let Some(h) = self.stream.on_response(id, &mut self.spd, mem) {
                retiring.push(h);
            }
        }

        // 2. Dispatch (up to two instructions per cycle).
        for _ in 0..2 {
            let Some(d) = self.controller.try_dispatch() else {
                break;
            };
            worked = true;
            // Coherency agent: invalidate any host-cached scratchpad lines
            // of the instruction's tiles.
            let (dests, sources) = (d.instr.dest_tiles(), d.instr.source_tiles());
            for t in dests.into_iter().chain(sources) {
                self.invalidate_tile_lines(t, ports);
            }
            for t in dests {
                self.spd.begin_produce_unsized(t);
            }
            match unit_of(&d.instr) {
                Unit::Stream => self.stream.enqueue(d),
                Unit::Indirect => self.indirect.enqueue(d),
                Unit::Alu => self.alu.enqueue(d),
                Unit::Range => self.range.enqueue(d),
            }
        }

        // 3. Unit pipelines.
        if let Some(h) = self.stream.step(
            now,
            &mut self.spd,
            mem,
            ports,
            &mut self.ids,
            &mut self.stats,
        ) {
            retiring.push(h);
        }
        self.indirect
            .fill_step(now, &mut self.spd, ports, &mut self.tlb, &mut self.stats);
        self.indirect
            .request_step(now, ports, &mut self.ids, &mut self.stats, 4);
        self.indirect
            .response_step(&mut self.spd, mem, &mut retiring);
        self.indirect.poll_retired(&mut retiring);
        match self.alu.step(&mut self.spd) {
            Ok(Some(h)) => retiring.push(h),
            Ok(None) => {}
            Err(e) => {
                self.halted = Some(e);
                return true;
            }
        }
        match self.range.step(&mut self.spd) {
            Ok(Some(h)) => retiring.push(h),
            Ok(None) => {}
            Err(e) => {
                self.halted = Some(e);
                return true;
            }
        }

        // 4. Retire.
        worked |= !retiring.is_empty();
        for h in retiring.drain(..) {
            let (dests, flag) = self.controller.retire(h);
            for d in dests {
                self.spd.set_ready(d);
            }
            self.retired.push((h, flag));
            self.stats.instructions_retired += 1;
        }
        self.retiring = retiring;

        // 5. Tile-phase activity: fill/issue from counter deltas, drain
        //    from outstanding indirect responses. Feeds both the trace
        //    spans and the profiled phase-residency counters.
        if self.trace.is_some() || self.profile.is_some() {
            let cur = [
                self.stats.snoop_hits + self.stats.snoop_misses,
                self.stats.indirect_line_reads + self.stats.indirect_line_writes,
            ];
            let active = [
                cur[0] > self.prev_phase_counts[0],
                cur[1] > self.prev_phase_counts[1],
                self.indirect.pending_responses() > 0,
            ];
            if let Some(p) = &mut self.profile {
                p.fill_ticks += active[0] as u64;
                p.issue_ticks += active[1] as u64;
                p.drain_ticks += active[2] as u64;
            }
            if let Some(t) = self.trace.clone() {
                for (i, name) in PHASE_NAMES.iter().enumerate() {
                    self.phase_spans[i].update(active[i], now, &t, "dx100", name);
                }
            }
            self.prev_phase_counts = cur;
        }
        worked || self.stats != stats_before
    }

    /// Computes this tick's attribution class from the pre-tick state: the
    /// same per-unit quiescence predicates [`Dx100Engine::quiescent`] uses,
    /// so elided spans and real ticks classify identically.
    fn classify_tick(&mut self, now: Cycle) {
        let stream_q = self.stream.quiescent(&self.spd);
        let indirect_q = self.indirect.quiescent(now, &self.spd);
        let alu_q = self.alu.quiescent(&self.spd);
        let range_q = self.range.quiescent(&self.spd);
        let quiesc = self.resp_inbox.is_empty()
            && self.retired.is_empty()
            && !self.controller.dispatchable()
            && stream_q
            && indirect_q
            && alu_q
            && range_q;
        let outstanding = self.ids.outstanding();
        let depth = self.indirect.buffered_columns() as u64;
        let p = self.profile.as_mut().expect("caller checked");
        p.row_table_depth.record(depth);
        p.stream_busy += !stream_q as u64;
        p.indirect_busy += !indirect_q as u64;
        p.alu_busy += !alu_q as u64;
        p.range_busy += !range_q as u64;
        if !quiesc {
            p.active += 1;
        } else if outstanding > 0 {
            p.wait_mem += 1;
        } else {
            p.idle += 1;
        }
    }

    fn invalidate_tile_lines(&mut self, tile: TileId, ports: &mut dyn MemPorts) {
        if self.spd_cached.is_empty() {
            return;
        }
        let start = self.tile_elem_addr(tile, 0);
        let end = start + self.cfg.tile_elems as u64 * SPD_ELEM_BYTES;
        let lines = LineAddr::containing(start)..=LineAddr::containing(end - 1);
        // Only touch lines the coherency agent knows are cached (V bits).
        // Invalidations of distinct lines are independent, so the set's
        // iteration order never reaches the simulated state.
        let invalidations = &mut self.stats.coherency_invalidations;
        self.spd_cached.retain(|line| {
            if !lines.contains(line) {
                return true;
            }
            ports.invalidate(*line);
            *invalidations += 1;
            false
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::FunctionalDx100;
    use crate::ports::TestPorts;
    use dx100_common::{AluOp, DType};

    const T0: TileId = TileId::new(0);
    const T1: TileId = TileId::new(1);
    const T2: TileId = TileId::new(2);
    const T3: TileId = TileId::new(3);
    const R0: RegId = RegId::new(0);
    const R1: RegId = RegId::new(1);
    const R2: RegId = RegId::new(2);

    fn small_cfg() -> Dx100Config {
        let mut cfg = Dx100Config::paper();
        cfg.tile_elems = 256;
        cfg
    }

    fn run_engine(
        engine: &mut Dx100Engine,
        mem: &mut MemoryImage,
        ports: &mut TestPorts,
        max_cycles: Cycle,
    ) {
        for now in 0..max_cycles {
            while let Some(id) = ports.pop_ready(now) {
                engine.mem_response(id);
            }
            engine.tick(now, mem, ports);
            if let Some(e) = engine.error() {
                panic!("engine halted: {e}");
            }
            if engine.is_idle() {
                return;
            }
        }
        panic!("engine did not drain in {max_cycles} cycles");
    }

    /// End-to-end gather: SLD indices, ILD values; compare with functional.
    #[test]
    fn timed_gather_matches_functional() {
        let dram = DramConfig::ddr4_3200_2ch();
        let mut mem = MemoryImage::new();
        let a = mem.alloc("A", DType::U32, 4096);
        let b = mem.alloc("B", DType::U32, 128);
        for i in 0..4096 {
            mem.write_elem(a, i, i.wrapping_mul(2654435761) & 0xffff);
        }
        for i in 0..128 {
            mem.write_elem(b, i, (i * 97 + 13) % 4096);
        }
        let program = [
            Instruction::sld(DType::U32, b.base(), T0, R0, R1, R2),
            Instruction::ild(DType::U32, a.base(), T1, T0),
        ];

        // Functional reference.
        let mut fx = FunctionalDx100::new(small_cfg());
        fx.write_reg(R0, 0);
        fx.write_reg(R1, 1);
        fx.write_reg(R2, 128);
        let mut fmem_expect: Vec<u64> = Vec::new();
        {
            let mut mem2 = MemoryImage::new();
            let a2 = mem2.alloc("A", DType::U32, 4096);
            let b2 = mem2.alloc("B", DType::U32, 128);
            for i in 0..4096 {
                mem2.write_elem(a2, i, i.wrapping_mul(2654435761) & 0xffff);
            }
            for i in 0..128 {
                mem2.write_elem(b2, i, (i * 97 + 13) % 4096);
            }
            let prog2 = [
                Instruction::sld(DType::U32, b2.base(), T0, R0, R1, R2),
                Instruction::ild(DType::U32, a2.base(), T1, T0),
            ];
            fx.run(&prog2, &mut mem2).unwrap();
            fmem_expect.extend_from_slice(fx.tile(T1).valid());
        }

        // Timed engine.
        let mut engine = Dx100Engine::new(small_cfg(), &dram);
        engine.preload_ptes(0, mem.high_water());
        engine.write_reg(R0, 0);
        engine.write_reg(R1, 1);
        engine.write_reg(R2, 128);
        for instr in program {
            engine.push_instruction(instr, None).unwrap();
        }
        let mut ports = TestPorts::new(30);
        run_engine(&mut engine, &mut mem, &mut ports, 50_000);
        assert_eq!(engine.tile(T1).valid(), &fmem_expect[..]);
        assert_eq!(engine.stats().instructions_retired, 2);
        // Coalescing: 128 gathered words over 4096×4B = far fewer lines
        // than words.
        assert!(engine.stats().indirect_line_reads <= 128);
    }

    #[test]
    fn timed_scatter_rmw_matches_functional() {
        let dram = DramConfig::ddr4_3200_2ch();
        let make_mem = || {
            let mut mem = MemoryImage::new();
            let a = mem.alloc("A", DType::U32, 512);
            (mem, a)
        };
        let (mut mem, a) = make_mem();
        let idx: Vec<u64> = (0..64).map(|i| (i * 31 + 7) % 512).collect();
        let vals: Vec<u64> = (0..64).map(|i| i + 1000).collect();

        // Functional.
        let (mut fmem, fa) = make_mem();
        let mut fx = FunctionalDx100::new(small_cfg());
        fx.write_tile(T0, &idx);
        fx.write_tile(T1, &vals);
        fx.run(
            &[
                Instruction::ist(DType::U32, fa.base(), T0, T1),
                Instruction::irmw(DType::U32, AluOp::Add, fa.base(), T0, T1),
            ],
            &mut fmem,
        )
        .unwrap();

        // Timed.
        let mut engine = Dx100Engine::new(small_cfg(), &dram);
        engine.preload_ptes(0, mem.high_water());
        engine.write_tile(T0, &idx);
        engine.write_tile(T1, &vals);
        engine
            .push_instruction(Instruction::ist(DType::U32, a.base(), T0, T1), None)
            .unwrap();
        engine
            .push_instruction(
                Instruction::irmw(DType::U32, AluOp::Add, a.base(), T0, T1),
                None,
            )
            .unwrap();
        let mut ports = TestPorts::new(25);
        run_engine(&mut engine, &mut mem, &mut ports, 100_000);
        assert_eq!(mem.to_vec(a), fmem.to_vec(fa));
        assert!(engine.stats().indirect_line_writes > 0);
    }

    #[test]
    fn full_pipeline_with_alu_condition_and_range() {
        // Conditional gather over fused ranges:
        //   bounds lo[k]=k*4, hi[k]=k*4+3; cond = (k % 2 == 0) via ALU.
        let dram = DramConfig::ddr4_3200_2ch();
        let mut mem = MemoryImage::new();
        let a = mem.alloc("A", DType::U32, 256);
        for i in 0..256 {
            mem.write_elem(a, i, 7000 + i);
        }
        let lows: Vec<u64> = (0..16u64).map(|k| k * 4).collect();
        let highs: Vec<u64> = (0..16u64).map(|k| k * 4 + 3).collect();

        let mut engine = Dx100Engine::new(small_cfg(), &dram);
        engine.preload_ptes(0, mem.high_water());
        engine.write_tile(T0, &lows);
        engine.write_tile(T1, &highs);
        engine.write_reg(R0, 256); // range budget
        engine
            .push_instruction(
                Instruction::Rng {
                    td1: T2,
                    td2: T3,
                    ts1: T0,
                    ts2: T1,
                    rs1: R0,
                    tc: None,
                },
                None,
            )
            .unwrap();
        // Gather A[j] for every fused j.
        let t4 = TileId::new(4);
        engine
            .push_instruction(Instruction::ild(DType::U32, a.base(), t4, T3), None)
            .unwrap();
        let mut ports = TestPorts::new(20);
        run_engine(&mut engine, &mut mem, &mut ports, 100_000);
        // 16 ranges × 3 elements.
        assert_eq!(engine.tile(t4).len(), Some(48));
        assert_eq!(engine.tile(t4).get(0), 7000);
        assert_eq!(engine.tile(t4).get(3), 7004); // k=1: j=4
        assert_eq!(engine.tile(t4).get(47), 7062); // k=15: j=62
    }

    #[test]
    fn dram_backpressure_stalls_but_completes() {
        let dram = DramConfig::ddr4_3200_2ch();
        let mut mem = MemoryImage::new();
        let a = mem.alloc("A", DType::U32, 2048);
        let idx: Vec<u64> = (0..64).map(|i| (i * 131) % 2048).collect();
        let mut engine = Dx100Engine::new(small_cfg(), &dram);
        engine.preload_ptes(0, mem.high_water());
        engine.write_tile(T0, &idx);
        engine
            .push_instruction(Instruction::ild(DType::U32, a.base(), T1, T0), None)
            .unwrap();
        let mut ports = TestPorts::new(20);
        ports.dram_refusals = 50;
        run_engine(&mut engine, &mut mem, &mut ports, 100_000);
        assert!(engine.stats().reqbuf_stall_cycles > 0);
        assert_eq!(engine.tile(T1).len(), Some(64));
    }

    #[test]
    fn snooped_lines_route_to_llc() {
        let dram = DramConfig::ddr4_3200_2ch();
        let mut mem = MemoryImage::new();
        let a = mem.alloc("A", DType::U32, 1024);
        let idx: Vec<u64> = (0..32).collect();
        let mut engine = Dx100Engine::new(small_cfg(), &dram);
        engine.preload_ptes(0, mem.high_water());
        engine.write_tile(T0, &idx);
        let mut ports = TestPorts::new(15);
        // Pretend the cores have the first line of A cached.
        ports.cached.insert(LineAddr::containing(a.base()));
        engine
            .push_instruction(Instruction::ild(DType::U32, a.base(), T1, T0), None)
            .unwrap();
        run_engine(&mut engine, &mut mem, &mut ports, 50_000);
        let llc_reqs: Vec<_> = ports
            .issued
            .iter()
            .filter(|(_, _, _, dram)| !dram)
            .collect();
        let dram_reqs: Vec<_> = ports
            .issued
            .iter()
            .filter(|(_, _, _, dram)| *dram)
            .collect();
        assert_eq!(llc_reqs.len(), 1, "cached line must go through the LLC");
        assert_eq!(dram_reqs.len(), 1, "uncached line goes direct to DRAM");
        assert_eq!(engine.stats().snoop_hits, 1);
    }

    /// The MECE split must cover every tick the engine was driven, and the
    /// utilization/phase counters must see the gather's unit activity.
    #[test]
    fn profile_attribution_is_mece() {
        let dram = DramConfig::ddr4_3200_2ch();
        let mut mem = MemoryImage::new();
        let a = mem.alloc("A", DType::U32, 2048);
        let idx: Vec<u64> = (0..64).map(|i| (i * 131) % 2048).collect();
        let mut engine = Dx100Engine::new(small_cfg(), &dram);
        engine.enable_profile();
        engine.preload_ptes(0, mem.high_water());
        engine.write_tile(T0, &idx);
        engine
            .push_instruction(Instruction::ild(DType::U32, a.base(), T1, T0), None)
            .unwrap();
        let mut ports = TestPorts::new(30);
        let mut ticks = 0u64;
        for now in 0..100_000 {
            while let Some(id) = ports.pop_ready(now) {
                engine.mem_response(id);
            }
            engine.tick(now, &mut mem, &mut ports);
            ticks += 1;
            if engine.is_idle() {
                break;
            }
        }
        let p = engine.profile().unwrap().clone();
        assert_eq!(p.attributed(), ticks, "every tick lands in one bucket");
        assert!(p.active > 0 && p.wait_mem > 0, "gather stalls on memory");
        assert!(p.indirect_busy > 0, "indirect unit did the gather");
        assert!(p.fill_ticks > 0 && p.issue_ticks > 0 && p.drain_ticks > 0);
        assert!(p.row_table_depth.total() == ticks);
    }
}
