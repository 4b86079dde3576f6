//! The full cache hierarchy: per-core L1D + L2, shared LLC, inter-level
//! links, write-back routing, and the DX100 snoop/LLC ports.

use std::collections::VecDeque;

use dx100_common::sleep::all_asleep_until;
use dx100_common::{CoreId, Cycle, DelayQueue, LineAddr, ReqId, Sleep, TraceHandle};

use crate::cache::{Cache, CacheOutputs};
use crate::config::HierarchyConfig;
use crate::profile::HierarchyProfile;
use crate::stats::HierarchyStats;
use crate::{Access, Requester};

/// A completed demand access delivered back to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreResponse {
    /// Core the response belongs to.
    pub core: CoreId,
    /// Request identifier from the originating [`Access`].
    pub id: ReqId,
    /// Whether the completed access was a store.
    pub is_write: bool,
}

/// A request leaving the hierarchy toward DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramBound {
    /// Target line.
    pub line: LineAddr,
    /// True for LLC write-backs (no fill expected), false for demand/prefetch
    /// reads (a [`MemoryHierarchy::dram_fill`] must follow).
    pub is_write: bool,
}

/// Messages traveling on inter-level links.
#[derive(Debug, Clone, Copy)]
enum Msg {
    AccessL2(CoreId, Access),
    AccessLlc(Access),
    FillL2(CoreId, LineAddr),
    FillL1(CoreId, LineAddr),
}

/// The hierarchy of Table 3: `cores` × (L1D → L2) → shared LLC.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
    links: DelayQueue<Msg>,
    core_responses: VecDeque<CoreResponse>,
    dx100_responses: VecDeque<(ReqId, bool)>,
    scratch: CacheOutputs,
    /// Waiters released by the fill being routed, reused across fills.
    fill_waiters: Vec<Access>,
    /// Whether idle caches sleep (see [`MemoryHierarchy::enable_gating`]).
    gating: bool,
    /// One sleep state per cache: the L1s, then the L2s, then the LLC. A
    /// sleeping cache's timer is always its [`Cache::next_event`].
    sleep: Vec<Sleep>,
    /// First cycle whose cache slots have not run yet. An input arriving
    /// at `now` ends a sleeping cache's span at `max(now, clock)`: at `now`
    /// before this cycle's [`MemoryHierarchy::tick`], after it at `now + 1`.
    clock: Cycle,
}

/// L1 lookup ports (two loads + one store per cycle, Skylake-like).
const L1_PORTS: usize = 3;
/// L2 lookup ports.
const L2_PORTS: usize = 2;
/// LLC lookup ports (banked/shared across cores and DX100).
const LLC_PORTS: usize = 4;

impl MemoryHierarchy {
    /// Builds the hierarchy described by `config`.
    pub fn new(config: HierarchyConfig) -> Self {
        let l1 = (0..config.cores)
            .map(|c| Cache::new(config.l1.clone(), L1_PORTS, Requester::PrefetchL1(c)))
            .collect();
        let l2 = (0..config.cores)
            .map(|c| Cache::new(config.l2.clone(), L2_PORTS, Requester::PrefetchL2(c)))
            .collect();
        // The LLC has no prefetcher in Table 3; the requester stamp is inert.
        let llc = Cache::new(config.llc.clone(), LLC_PORTS, Requester::Dx100);
        MemoryHierarchy {
            l1,
            l2,
            llc,
            links: DelayQueue::new(),
            core_responses: VecDeque::new(),
            dx100_responses: VecDeque::new(),
            scratch: CacheOutputs::default(),
            fill_waiters: Vec::new(),
            gating: false,
            sleep: vec![Sleep::default(); 2 * config.cores + 1],
            clock: 0,
            config,
        }
    }

    /// Turns on per-cache activity gating: a cache sleeps until its next
    /// lookup is due, and its occupancy profile is credited for the slept
    /// span when it wakes. The timer is read after every tick; an `accept`
    /// moves it to the new lookup's cycle, and an input that changes the
    /// cache but not its next event (a fill, a write-back insert, an
    /// invalidation) credits the span so far. Off, every cache ticks every
    /// cycle.
    pub fn enable_gating(&mut self) {
        self.gating = true;
    }

    fn l2_unit(&self, core: CoreId) -> usize {
        self.config.cores + core
    }

    fn llc_unit(&self) -> usize {
        2 * self.config.cores
    }

    /// The cache behind sleep-state index `unit`.
    fn cache(&self, unit: usize) -> &Cache {
        let n = self.config.cores;
        if unit < n {
            &self.l1[unit]
        } else if unit < 2 * n {
            &self.l2[unit - n]
        } else {
            &self.llc
        }
    }

    fn cache_mut(&mut self, unit: usize) -> &mut Cache {
        let n = self.config.cores;
        if unit < n {
            &mut self.l1[unit]
        } else if unit < 2 * n {
            &mut self.l2[unit - n]
        } else {
            &mut self.llc
        }
    }

    /// Wakes cache `unit` with its slept span ending at `to`.
    fn wake(&mut self, unit: usize, to: Cycle) {
        if let Some((from, to)) = self.sleep[unit].wake(to) {
            self.cache_mut(unit).credit_idle_ticks(to - from);
        }
    }

    /// Credits cache `unit`'s slept span up to an input that changes it at
    /// `now` (a fill, a write-back insert, an invalidation), from the state
    /// before the input. The span ends at `now` before this cycle's cache
    /// slots and at `now + 1` after them. Such an input leaves the cache's
    /// next event where it was, so the cache sleeps on.
    fn credit(&mut self, unit: usize, now: Cycle) {
        if let Some((from, to)) = self.sleep[unit].settle(now.max(self.clock)) {
            self.cache_mut(unit).credit_idle_ticks(to - from);
        }
    }

    /// Schedules an access into cache `unit` at `now`. A sleeping cache's
    /// timer moves to the lookup cycle; the access changes nothing its idle
    /// ticks sample, so nothing is credited.
    fn accept(&mut self, unit: usize, access: Access, now: Cycle) {
        let at = self.cache_mut(unit).accept(access, now);
        self.sleep[unit].lower(at);
    }

    /// Whether cache `unit` ticks at `now`. A sleeper whose timer ran out
    /// is woken first.
    fn tick_due(&mut self, unit: usize, now: Cycle) -> bool {
        if !self.sleep[unit].due(now) {
            return false;
        }
        self.wake(unit, now);
        true
    }

    /// Puts cache `unit` to sleep after its tick at `now`, until its next
    /// event, unless that is the next cycle.
    fn sleep_after_tick(&mut self, unit: usize, now: Cycle) {
        if self.gating {
            let next = self.cache(unit).next_event(now + 1);
            self.sleep[unit].sleep_until(now + 1, next);
        }
    }

    /// `None` while any cache is awake; otherwise the earliest cycle at
    /// which a cache's timer runs out or a link message lands (`Cycle::MAX`
    /// when neither will happen without new input).
    pub fn asleep_until(&self) -> Option<Cycle> {
        if !self.core_responses.is_empty() || !self.dx100_responses.is_empty() {
            return None;
        }
        let caches = all_asleep_until(&self.sleep)?;
        Some(self.links.next_ready_at().map_or(caches, |t| t.min(caches)))
    }

    /// Credits every sleeping cache's span up to `to` and leaves it asleep
    /// (statistics are about to be read).
    pub fn settle(&mut self, to: Cycle) {
        for unit in 0..self.sleep.len() {
            if let Some((from, to)) = self.sleep[unit].settle(to) {
                self.cache_mut(unit).credit_idle_ticks(to - from);
            }
        }
    }

    /// Wakes every cache with its span ending at `to`.
    pub fn wake_all(&mut self, to: Cycle) {
        for unit in 0..self.sleep.len() {
            self.wake(unit, to);
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Issues a core demand access into its L1D.
    ///
    /// # Panics
    /// Panics if the access's requester is not [`Requester::Core`].
    pub fn core_access(&mut self, access: Access, now: Cycle) {
        let Requester::Core(core) = access.requester else {
            panic!("core_access requires a Core requester");
        };
        self.accept(core, access, now);
    }

    /// Issues a DX100 access directly into the LLC (the accelerator's Cache
    /// Interface), after one NoC link hop.
    pub fn llc_access(&mut self, access: Access, now: Cycle) {
        debug_assert_eq!(access.requester, Requester::Dx100);
        self.links
            .push_at(now + self.config.link_latency, Msg::AccessLlc(access));
    }

    /// Injects a hardware-prefetcher request at a core's L2 (used by the
    /// DMP model, which sits beside the private caches). The fill
    /// terminates at that L2.
    pub fn inject_prefetch_l2(&mut self, core: CoreId, line: LineAddr, now: Cycle) {
        let access = Access {
            id: u64::MAX,
            line,
            is_write: false,
            stream: 0,
            is_prefetch: true,
            requester: Requester::PrefetchL2(core),
        };
        self.accept(self.l2_unit(core), access, now);
    }

    /// Pops a completed core access.
    pub fn pop_core_response(&mut self) -> Option<CoreResponse> {
        self.core_responses.pop_front()
    }

    /// Pops a completed DX100 LLC access `(id, is_write)`.
    pub fn pop_dx100_response(&mut self) -> Option<(ReqId, bool)> {
        self.dx100_responses.pop_front()
    }

    /// Snoop: whether any cache level holds `line` (the coherency-directory
    /// query DX100's Interface performs during the fill stage).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.llc.contains(line)
            || self.l1.iter().any(|c| c.contains(line))
            || self.l2.iter().any(|c| c.contains(line))
    }

    /// Invalidates `line` everywhere (DX100 coherency agent); returns whether
    /// any copy was dirty. The agent acts after this cycle's cache ticks, so
    /// a woken holder's span ends at the hierarchy's clock.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let mut dirty = false;
        for unit in 0..self.sleep.len() {
            if self.cache(unit).contains(line) {
                self.credit(unit, self.clock);
                dirty |= self.cache_mut(unit).invalidate(line).unwrap_or(false);
            }
        }
        dirty
    }

    /// Whether every level is idle and no link messages are in flight.
    pub fn is_idle(&self) -> bool {
        self.links.is_empty()
            && self.core_responses.is_empty()
            && self.dx100_responses.is_empty()
            && self.llc.is_idle()
            && self.l1.iter().all(|c| c.is_idle())
            && self.l2.iter().all(|c| c.is_idle())
    }

    /// Advances one CPU cycle. LLC misses and write-backs are appended to
    /// `to_dram`; the caller forwards them to the DRAM system and later calls
    /// [`MemoryHierarchy::dram_fill`] for each read once data returns.
    pub fn tick(&mut self, now: Cycle, to_dram: &mut Vec<DramBound>) {
        // 1. Deliver link messages that arrive this cycle.
        while let Some(msg) = self.links.pop_ready(now) {
            match msg {
                Msg::AccessL2(core, acc) => self.accept(self.l2_unit(core), acc, now),
                Msg::AccessLlc(acc) => self.accept(self.llc_unit(), acc, now),
                Msg::FillL2(core, line) => self.fill_l2(core, line, now, to_dram),
                Msg::FillL1(core, line) => self.fill_l1(core, line, now, to_dram),
            }
        }

        let link = self.config.link_latency;

        // 2. L1 lookups.
        for core in 0..self.config.cores {
            if !self.tick_due(core, now) {
                continue;
            }
            self.scratch.completed.clear();
            self.scratch.downstream.clear();
            self.l1[core].tick(now, &mut self.scratch);
            for acc in self.scratch.completed.drain(..) {
                route_from_l1(core, acc, &mut self.core_responses);
            }
            for acc in self.scratch.downstream.drain(..) {
                self.links.push_at(now + link, Msg::AccessL2(core, acc));
            }
            self.sleep_after_tick(core, now);
        }

        // 3. L2 lookups.
        for core in 0..self.config.cores {
            let unit = self.l2_unit(core);
            if !self.tick_due(unit, now) {
                continue;
            }
            self.scratch.completed.clear();
            self.scratch.downstream.clear();
            self.l2[core].tick(now, &mut self.scratch);
            for acc in self.scratch.completed.drain(..) {
                // A hit at L2 climbs one level toward the requester.
                match acc.requester {
                    Requester::Core(c) | Requester::PrefetchL1(c) => {
                        debug_assert_eq!(c, core);
                        self.links.push_at(now + link, Msg::FillL1(core, acc.line));
                    }
                    Requester::PrefetchL2(_) => {} // terminated here
                    Requester::Dx100 => unreachable!("DX100 accesses never enter an L2"),
                }
            }
            for acc in self.scratch.downstream.drain(..) {
                self.links.push_at(now + link, Msg::AccessLlc(acc));
            }
            self.sleep_after_tick(unit, now);
        }

        // 4. LLC lookups.
        let unit = self.llc_unit();
        if self.tick_due(unit, now) {
            self.scratch.completed.clear();
            self.scratch.downstream.clear();
            self.llc.tick(now, &mut self.scratch);
            for acc in self.scratch.completed.drain(..) {
                match acc.requester {
                    Requester::Core(c) | Requester::PrefetchL1(c) | Requester::PrefetchL2(c) => {
                        self.links.push_at(now + link, Msg::FillL2(c, acc.line));
                    }
                    Requester::Dx100 => self.dx100_responses.push_back((acc.id, acc.is_write)),
                }
            }
            for acc in self.scratch.downstream.drain(..) {
                to_dram.push(DramBound {
                    line: acc.line,
                    is_write: false,
                });
            }
            self.sleep_after_tick(unit, now);
        }
        self.clock = now + 1;
    }

    /// Delivers a DRAM read completion: fills the LLC and propagates fills
    /// (and write-backs) upward.
    pub fn dram_fill(&mut self, line: LineAddr, now: Cycle, to_dram: &mut Vec<DramBound>) {
        self.credit(self.llc_unit(), now);
        if let Some(victim) = self.llc.fill(line, now, &mut self.fill_waiters) {
            to_dram.push(DramBound {
                line: victim,
                is_write: true,
            });
        }
        let link = self.config.link_latency;
        let mut filled_l2 = [false; 64];
        for acc in self.fill_waiters.drain(..) {
            match acc.requester {
                Requester::Core(c) | Requester::PrefetchL1(c) | Requester::PrefetchL2(c) => {
                    // One fill per L2 instance: same-line waiters from one
                    // core share a single fill message.
                    if !filled_l2[c] {
                        filled_l2[c] = true;
                        self.links.push_at(now + link, Msg::FillL2(c, line));
                    }
                }
                Requester::Dx100 => self.dx100_responses.push_back((acc.id, acc.is_write)),
            }
        }
    }

    fn fill_l2(&mut self, core: CoreId, line: LineAddr, now: Cycle, to_dram: &mut Vec<DramBound>) {
        self.credit(self.l2_unit(core), now);
        if let Some(victim) = self.l2[core].fill(line, now, &mut self.fill_waiters) {
            self.writeback_to_llc(victim, now, to_dram);
        }
        let link = self.config.link_latency;
        let mut filled = false;
        for acc in self.fill_waiters.drain(..) {
            match acc.requester {
                Requester::Core(c) | Requester::PrefetchL1(c) => {
                    debug_assert_eq!(c, core);
                    if !filled {
                        filled = true;
                        self.links.push_at(now + link, Msg::FillL1(core, line));
                    }
                }
                Requester::PrefetchL2(_) => {} // terminated: the fill itself was the goal
                Requester::Dx100 => unreachable!("DX100 accesses never enter an L2"),
            }
        }
    }

    fn fill_l1(&mut self, core: CoreId, line: LineAddr, now: Cycle, to_dram: &mut Vec<DramBound>) {
        self.credit(core, now);
        if let Some(victim) = self.l1[core].fill(line, now, &mut self.fill_waiters) {
            self.credit(self.l2_unit(core), now);
            if let Some(v2) = self.l2[core].insert_writeback(victim) {
                self.writeback_to_llc(v2, now, to_dram);
            }
        }
        for acc in self.fill_waiters.drain(..) {
            match acc.requester {
                Requester::Core(c) => {
                    debug_assert_eq!(c, core);
                    self.core_responses.push_back(CoreResponse {
                        core,
                        id: acc.id,
                        is_write: acc.is_write,
                    });
                }
                Requester::PrefetchL1(_) => {} // terminated here
                _ => unreachable!("only core demands and L1 prefetches wait at L1"),
            }
        }
    }

    fn writeback_to_llc(&mut self, line: LineAddr, now: Cycle, to_dram: &mut Vec<DramBound>) {
        self.credit(self.llc_unit(), now);
        if let Some(victim) = self.llc.insert_writeback(line) {
            to_dram.push(DramBound {
                line: victim,
                is_write: true,
            });
        }
    }

    /// Diagnostic: which components are non-idle.
    pub fn debug_state(&self) -> String {
        let mut out = Vec::new();
        for (i, c) in self.l1.iter().enumerate() {
            if !c.is_idle() {
                out.push(format!("l1[{i}]: {}", c.debug_state()));
            }
        }
        for (i, c) in self.l2.iter().enumerate() {
            if !c.is_idle() {
                out.push(format!("l2[{i}]: {}", c.debug_state()));
            }
        }
        if !self.llc.is_idle() {
            out.push(format!("llc: {}", self.llc.debug_state()));
        }
        if !self.links.is_empty() {
            out.push(format!("links: {}", self.links.len()));
        }
        out.join("; ")
    }

    /// Aggregated statistics across all levels.
    pub fn stats(&self) -> HierarchyStats {
        let mut s = HierarchyStats::default();
        for c in &self.l1 {
            s.l1.merge(c.stats());
        }
        for c in &self.l2 {
            s.l2.merge(c.stats());
        }
        s.llc.merge(self.llc.stats());
        s
    }

    /// Clears statistics at every level (ROI boundary).
    pub fn reset_stats(&mut self) {
        for c in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            c.reset_stats();
        }
        self.llc.reset_stats();
    }

    /// Turns on MSHR-occupancy profiling at every level.
    pub fn enable_profile(&mut self) {
        for c in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            c.enable_profile();
        }
        self.llc.enable_profile();
    }

    /// Per-level occupancy profiles with private levels merged across
    /// cores, or `None` if profiling was never enabled.
    pub fn profile(&self) -> Option<HierarchyProfile> {
        let mut out = HierarchyProfile::default();
        for c in &self.l1 {
            out.l1.merge(c.profile()?);
        }
        for c in &self.l2 {
            out.l2.merge(c.profile()?);
        }
        out.llc.merge(self.llc.profile()?);
        Some(out)
    }

    /// Attaches event tracing: every cache level's MSHR file gets its own
    /// track recording miss allocation → fill spans.
    pub fn attach_trace(&mut self, root: &TraceHandle) {
        for (c, cache) in self.l1.iter_mut().enumerate() {
            cache.set_trace(root.track(format!("L1.{c} MSHR")));
        }
        for (c, cache) in self.l2.iter_mut().enumerate() {
            cache.set_trace(root.track(format!("L2.{c} MSHR")));
        }
        self.llc.set_trace(root.track("LLC MSHR"));
    }
}

fn route_from_l1(core: CoreId, acc: Access, responses: &mut VecDeque<CoreResponse>) {
    match acc.requester {
        Requester::Core(c) => {
            debug_assert_eq!(c, core);
            responses.push_back(CoreResponse {
                core,
                id: acc.id,
                is_write: acc.is_write,
            });
        }
        Requester::PrefetchL1(_) => {} // prefetch hit at own level: drop
        _ => unreachable!("only core demands and L1 prefetches complete at L1"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;

    fn small_config() -> HierarchyConfig {
        let mut cfg = HierarchyConfig::paper_baseline(2);
        // Shrink for tests; keep latencies.
        cfg.l1.size_bytes = 4 * 1024;
        cfg.l2.size_bytes = 16 * 1024;
        cfg.llc.size_bytes = 64 * 1024;
        cfg.llc.ways = 16;
        cfg
    }

    /// Runs the hierarchy, auto-filling DRAM reads after `dram_latency`.
    fn run(
        mem: &mut MemoryHierarchy,
        cycles: Cycle,
        dram_latency: Cycle,
    ) -> (Vec<CoreResponse>, usize) {
        let mut to_dram = Vec::new();
        let mut fills: DelayQueue<LineAddr> = DelayQueue::new();
        let mut responses = Vec::new();
        let mut dram_requests = 0;
        for now in 0..cycles {
            mem.tick(now, &mut to_dram);
            for d in to_dram.drain(..) {
                dram_requests += 1;
                if !d.is_write {
                    fills.push_at(now + dram_latency, d.line);
                }
            }
            while let Some(line) = fills.pop_ready(now) {
                mem.dram_fill(line, now, &mut to_dram);
            }
            while let Some(r) = mem.pop_core_response() {
                responses.push(r);
            }
        }
        (responses, dram_requests)
    }

    #[test]
    fn cold_miss_fetches_from_dram_and_completes() {
        let mut mem = MemoryHierarchy::new(small_config());
        mem.core_access(Access::load(7, LineAddr(100), 0, Requester::Core(0)), 0);
        let (resps, dram) = run(&mut mem, 400, 50);
        assert_eq!(resps.len(), 1);
        assert_eq!(
            resps[0],
            CoreResponse {
                core: 0,
                id: 7,
                is_write: false
            }
        );
        assert_eq!(dram, 1);
    }

    #[test]
    fn second_access_hits_in_l1() {
        let mut mem = MemoryHierarchy::new(small_config());
        mem.core_access(Access::load(1, LineAddr(100), 0, Requester::Core(0)), 0);
        let _ = run(&mut mem, 400, 50);
        mem.core_access(Access::load(2, LineAddr(100), 0, Requester::Core(0)), 0);
        let (resps, dram) = run(&mut mem, 20, 50);
        assert_eq!(resps.len(), 1);
        assert_eq!(dram, 0, "hit must not touch DRAM");
        assert_eq!(mem.stats().l1.demand_hits, 1);
    }

    #[test]
    fn cross_core_sharing_via_llc() {
        let mut mem = MemoryHierarchy::new(small_config());
        mem.core_access(Access::load(1, LineAddr(100), 0, Requester::Core(0)), 0);
        let _ = run(&mut mem, 400, 50);
        // Core 1 misses its private caches but hits the shared LLC.
        mem.core_access(Access::load(2, LineAddr(100), 0, Requester::Core(1)), 0);
        let (resps, dram) = run(&mut mem, 400, 50);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].core, 1);
        assert_eq!(dram, 0);
    }

    #[test]
    fn dirty_eviction_writes_back_to_dram() {
        let mut cfg = small_config();
        // Tiny direct-mapped-ish caches to force evictions quickly.
        cfg.l1.size_bytes = 1024; // 16 lines, 8-way → 2 sets
        cfg.l2.size_bytes = 2048;
        cfg.l2.ways = 4;
        cfg.llc.size_bytes = 4096;
        cfg.llc.ways = 4;
        let mut mem = MemoryHierarchy::new(cfg);
        // Store to many distinct lines mapping over each other.
        for i in 0..256u64 {
            mem.core_access(
                Access::store(i, LineAddr(i * 2), 0, Requester::Core(0)),
                (i * 4) as Cycle,
            );
        }
        let mut to_dram = Vec::new();
        let mut fills: DelayQueue<LineAddr> = DelayQueue::new();
        let mut wrote_back = false;
        for now in 0..20_000 {
            mem.tick(now, &mut to_dram);
            for d in to_dram.drain(..) {
                if d.is_write {
                    wrote_back = true;
                } else {
                    fills.push_at(now + 30, d.line);
                }
            }
            while let Some(line) = fills.pop_ready(now) {
                mem.dram_fill(line, now, &mut to_dram);
            }
            while mem.pop_core_response().is_some() {}
        }
        assert!(wrote_back, "dirty victims must reach DRAM");
    }

    #[test]
    fn dx100_llc_port_round_trip() {
        let mut mem = MemoryHierarchy::new(small_config());
        mem.llc_access(Access::load(55, LineAddr(300), 0, Requester::Dx100), 0);
        let mut to_dram = Vec::new();
        let mut fills: DelayQueue<LineAddr> = DelayQueue::new();
        let mut got = None;
        for now in 0..1000 {
            mem.tick(now, &mut to_dram);
            for d in to_dram.drain(..) {
                assert!(!d.is_write);
                fills.push_at(now + 40, d.line);
            }
            while let Some(line) = fills.pop_ready(now) {
                mem.dram_fill(line, now, &mut to_dram);
            }
            if let Some(r) = mem.pop_dx100_response() {
                got = Some(r);
                break;
            }
        }
        assert_eq!(got, Some((55, false)));
        // And the line now resides in the LLC only.
        assert!(mem.contains(LineAddr(300)));
        assert_eq!(mem.stats().l1.demand_accesses(), 0);
    }

    #[test]
    fn snoop_and_invalidate() {
        let mut mem = MemoryHierarchy::new(small_config());
        mem.core_access(Access::store(1, LineAddr(42), 0, Requester::Core(0)), 0);
        let _ = run(&mut mem, 500, 50);
        assert!(mem.contains(LineAddr(42)));
        let dirty = mem.invalidate(LineAddr(42));
        assert!(dirty, "stored line must be dirty somewhere");
        assert!(!mem.contains(LineAddr(42)));
    }

    #[test]
    fn streaming_loads_trigger_useful_prefetches() {
        let mut mem = MemoryHierarchy::new(small_config());
        let mut to_dram = Vec::new();
        let mut fills: DelayQueue<LineAddr> = DelayQueue::new();
        let mut completed = 0u64;
        let mut issued = 0u64;
        let total = 200u64;
        for now in 0..60_000u64 {
            // Issue a unit-stride load every 100 cycles — slow enough that
            // prefetches (4 strides ahead) land before the demand arrives.
            if now % 100 == 0 && issued < total {
                mem.core_access(
                    Access::load(issued, LineAddr(issued), 9, Requester::Core(0)),
                    now,
                );
                issued += 1;
            }
            mem.tick(now, &mut to_dram);
            for d in to_dram.drain(..) {
                if !d.is_write {
                    fills.push_at(now + 60, d.line);
                }
            }
            while let Some(line) = fills.pop_ready(now) {
                mem.dram_fill(line, now, &mut to_dram);
            }
            while mem.pop_core_response().is_some() {
                completed += 1;
            }
        }
        assert_eq!(completed, total);
        let s = mem.stats();
        assert!(s.l1.prefetch_issued + s.l2.prefetch_issued > 0);
        assert!(
            s.l1.prefetch_useful + s.l2.prefetch_useful > 0,
            "stream prefetches must be consumed"
        );
        // Most of the stream should hit thanks to prefetching.
        assert!(
            s.l1.hit_rate() > 0.5,
            "prefetched stream expected to mostly hit L1, got {}",
            s.l1.hit_rate()
        );
    }
}
