//! One cache level: tag array + MSHR file + optional stride prefetcher,
//! with a latency-modeled lookup pipeline.

use std::collections::VecDeque;

use dx100_common::hash::HashMap;
use dx100_common::{Cycle, DelayQueue, LineAddr, TraceHandle};

use crate::array::{CacheArray, Victim};
use crate::config::CacheConfig;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::prefetch::StridePrefetcher;
use crate::profile::CacheProfile;
use crate::stats::CacheStats;
use crate::{Access, Requester};

/// Results of one cache tick.
#[derive(Clone, Debug, Default)]
pub struct CacheOutputs {
    /// Accesses that completed at this level (hits). The hierarchy routes
    /// them one level up toward their requester.
    pub completed: Vec<Access>,
    /// Newly allocated misses to forward to the next level down.
    pub downstream: Vec<Access>,
}

/// A single cache level.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    array: CacheArray,
    mshr: MshrFile,
    input: DelayQueue<Access>,
    retry: VecDeque<Access>,
    prefetcher: Option<StridePrefetcher>,
    /// Requester stamped onto prefetches issued by this level.
    prefetch_requester: Requester,
    /// Lookup ports: max accesses processed per cycle.
    ports: usize,
    stats: CacheStats,
    scratch_candidates: Vec<LineAddr>,
    /// Event sink for MSHR lifecycle tracing (`None` = tracing disabled).
    trace: Option<TraceHandle>,
    /// Allocation times of outstanding misses; populated only while tracing.
    miss_since: HashMap<LineAddr, Cycle>,
    /// MSHR/retry occupancy attribution (`None` = profiling disabled).
    /// Lives outside [`CacheStats`] so RunStats stay byte-identical with
    /// profiling on.
    profile: Option<CacheProfile>,
}

impl Cache {
    /// Builds a cache level. `prefetch_requester` identifies prefetches this
    /// level issues so the hierarchy can terminate their fills here.
    pub fn new(config: CacheConfig, ports: usize, prefetch_requester: Requester) -> Self {
        let prefetcher = config.stride_prefetcher.then(StridePrefetcher::new);
        Cache {
            array: CacheArray::new(config.sets(), config.ways),
            mshr: MshrFile::new(config.mshrs),
            input: DelayQueue::new(),
            retry: VecDeque::new(),
            prefetcher,
            prefetch_requester,
            ports,
            stats: CacheStats::default(),
            scratch_candidates: Vec::new(),
            trace: None,
            miss_since: HashMap::default(),
            profile: None,
            config,
        }
    }

    /// Turns on MSHR-occupancy profiling for this level.
    pub fn enable_profile(&mut self) {
        self.profile = Some(CacheProfile::default());
    }

    /// The occupancy profile, when profiling is enabled.
    pub fn profile(&self) -> Option<&CacheProfile> {
        self.profile.as_ref()
    }

    /// Credits `n` elided quiescent ticks: records `n` samples of the
    /// frozen MSHR/retry occupancy, bit-identical to `n` no-op ticks.
    pub fn credit_idle_ticks(&mut self, n: u64) {
        let mshr = self.mshr.in_use() as u64;
        let retry = self.retry.len() as u64;
        if let Some(p) = &mut self.profile {
            p.sample(mshr, retry, n);
        }
    }

    /// Attaches an event sink; each miss line's allocation → fill lifetime
    /// is recorded as one `mshr` span from then on.
    pub fn set_trace(&mut self, handle: TraceHandle) {
        self.trace = Some(handle);
    }

    /// Enqueues an access; its lookup completes after the hit latency, at
    /// the returned cycle.
    pub fn accept(&mut self, access: Access, now: Cycle) -> Cycle {
        let at = now + self.config.latency;
        self.input.push_at(at, access);
        at
    }

    /// Whether this level holds `line` (snoop; does not disturb LRU).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.array.contains(line)
    }

    /// Invalidates `line`; returns `Some(dirty)` if it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        self.array.invalidate(line)
    }

    /// Whether the level has no queued work or outstanding misses.
    pub fn is_idle(&self) -> bool {
        self.input.is_empty() && self.retry.is_empty() && self.mshr.is_empty()
    }

    /// Diagnostic: queue/MSHR occupancy.
    pub fn debug_state(&self) -> String {
        format!(
            "input={} retry={} mshr={}",
            self.input.len(),
            self.retry.len(),
            self.mshr.in_use()
        )
    }

    /// This level's statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears statistics (ROI boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        if self.profile.is_some() {
            self.profile = Some(CacheProfile::default());
        }
    }

    /// Earliest cycle ≥ `from` at which [`Cache::tick`] would process an
    /// access: immediately while a retry is queued, else when the oldest
    /// in-flight input matures. `None` means every tick only samples
    /// occupancy until new work is [`Cache::accept`]ed. Only `accept` and a
    /// tick change the answer.
    pub fn next_event(&self, from: Cycle) -> Option<Cycle> {
        if !self.retry.is_empty() {
            return Some(from);
        }
        self.input.next_ready_at()
    }

    /// Processes up to `ports` ready accesses (retries first), producing
    /// hits and newly allocated misses. A tick before
    /// [`Cache::next_event`] only samples occupancy, as
    /// [`Cache::credit_idle_ticks`] would have.
    pub fn tick(&mut self, now: Cycle, out: &mut CacheOutputs) {
        // Sample occupancy from the pre-tick state so a credited span (which
        // sees the same frozen state) is bit-identical to per-cycle ticks.
        if self.profile.is_some() {
            self.credit_idle_ticks(1);
        }
        for _ in 0..self.ports {
            let access = if let Some(a) = self.retry.pop_front() {
                a
            } else if let Some(a) = self.input.pop_ready(now) {
                a
            } else {
                break;
            };
            self.lookup(access, now, out);
        }
    }

    fn lookup(&mut self, access: Access, now: Cycle, out: &mut CacheOutputs) {
        // Train the prefetcher on demand accesses.
        if !access.is_prefetch {
            if let Some(pf) = self.prefetcher.as_mut() {
                self.scratch_candidates.clear();
                pf.observe(access.stream, access.line, &mut self.scratch_candidates);
                let candidates = std::mem::take(&mut self.scratch_candidates);
                for line in &candidates {
                    self.issue_prefetch(*line, access.stream, now, out);
                }
                self.scratch_candidates = candidates;
            }
        }

        let from_dx100 = access.requester == Requester::Dx100;
        if from_dx100 {
            self.stats.dx100_accesses += 1;
        }
        match self.array.access(access.line, access.is_write) {
            Some(hit) => {
                if from_dx100 {
                    self.stats.dx100_hits += 1;
                } else if !access.is_prefetch {
                    self.stats.demand_hits += 1;
                    if hit.first_use_of_prefetch {
                        self.stats.prefetch_useful += 1;
                    }
                }
                // Prefetch hits complete too: a prefetch forwarded from an
                // upper level holds an MSHR entry there that must be filled,
                // so the hit climbs back toward its requester. (A prefetch
                // hitting the level that issued it is dropped by the
                // hierarchy's routing.)
                out.completed.push(access);
            }
            None => {
                if access.is_prefetch {
                    // A prefetch reaching this level's lookup was forwarded
                    // from an upper level (or injected by DMP) and holds an
                    // MSHR entry there — it must complete eventually, so it
                    // coalesces and retries exactly like a demand miss.
                    match self.mshr.register(access) {
                        MshrOutcome::Allocated => {
                            self.stats.prefetch_issued += 1;
                            self.note_miss_allocated(access.line, now);
                            out.downstream.push(access);
                        }
                        MshrOutcome::Coalesced => {}
                        MshrOutcome::Full => self.retry.push_back(access),
                    }
                    return;
                }
                if !from_dx100 {
                    self.stats.demand_misses += 1;
                }
                match self.mshr.register(access) {
                    MshrOutcome::Allocated => {
                        self.note_miss_allocated(access.line, now);
                        out.downstream.push(access);
                    }
                    MshrOutcome::Coalesced => {
                        self.stats.mshr_coalesced += 1;
                    }
                    MshrOutcome::Full => {
                        self.stats.mshr_full_stalls += 1;
                        // Undo the miss count: the access will be looked up
                        // again next cycle.
                        if !from_dx100 {
                            self.stats.demand_misses -= 1;
                        }
                        self.retry.push_back(access);
                    }
                }
            }
        }
    }

    fn issue_prefetch(&mut self, line: LineAddr, stream: u32, now: Cycle, out: &mut CacheOutputs) {
        if self.array.contains(line) || self.mshr.is_pending(line) {
            return;
        }
        let access = Access {
            id: u64::MAX,
            line,
            is_write: false,
            stream,
            is_prefetch: true,
            requester: self.prefetch_requester,
        };
        if let MshrOutcome::Allocated = self.mshr.register(access) {
            self.stats.prefetch_issued += 1;
            self.note_miss_allocated(line, now);
            out.downstream.push(access);
        }
    }

    /// Remembers a miss's allocation time (tracing only).
    fn note_miss_allocated(&mut self, line: LineAddr, now: Cycle) {
        if self.trace.is_some() {
            self.miss_since.insert(line, now);
        }
    }

    /// Fills `line` into the array, releasing its MSHR waiters into the
    /// empty `waiters`. Demand-store waiters mark the line dirty immediately
    /// (write-allocate replay). Returns the dirty victim displaced by the
    /// fill, if any.
    pub fn fill(
        &mut self,
        line: LineAddr,
        now: Cycle,
        waiters: &mut Vec<Access>,
    ) -> Option<LineAddr> {
        debug_assert!(waiters.is_empty());
        if let Some(t) = &self.trace {
            if let Some(start) = self.miss_since.remove(&line) {
                t.span("mshr", format!("miss 0x{:x}", line.0), start, now);
            }
        }
        self.mshr.complete(line, waiters);
        let all_prefetch = !waiters.is_empty() && waiters.iter().all(|w| w.is_prefetch);
        let victim = self.array.insert(line, false, all_prefetch);
        for w in waiters.iter() {
            if w.is_write && !w.is_prefetch {
                self.array.access(line, true);
            }
        }
        victim.and_then(|v: Victim| v.dirty.then_some(v.line))
    }

    /// Inserts a write-back from the level above (dirty line landing here).
    /// Returns a dirty victim to push further down, if one was displaced.
    pub fn insert_writeback(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.stats.writebacks_received += 1;
        // A write-back that hits just marks the line dirty.
        if self.array.access(line, true).is_some() {
            return None;
        }
        self.array
            .insert(line, true, false)
            .and_then(|v| v.dirty.then_some(v.line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        let config = CacheConfig {
            size_bytes: 4 * 1024,
            ways: 4,
            latency: 3,
            mshrs: 2,
            stride_prefetcher: false,
        };
        Cache::new(config, 2, Requester::PrefetchL1(0))
    }

    fn drive(cache: &mut Cache, until: Cycle) -> CacheOutputs {
        let mut out = CacheOutputs::default();
        for now in 0..until {
            cache.tick(now, &mut out);
        }
        out
    }

    #[test]
    fn miss_goes_downstream_after_latency() {
        let mut c = small_cache();
        c.accept(Access::load(1, LineAddr(7), 0, Requester::Core(0)), 0);
        let mut out = CacheOutputs::default();
        c.tick(2, &mut out); // before latency
        assert!(out.downstream.is_empty());
        c.tick(3, &mut out); // at latency
        assert_eq!(out.downstream.len(), 1);
        assert!(out.completed.is_empty());
        assert_eq!(c.stats().demand_misses, 1);
    }

    /// Fills `line`, dropping the waiters it releases; returns the dirty
    /// victim.
    fn fill(c: &mut Cache, line: LineAddr) -> Option<LineAddr> {
        c.fill(line, 0, &mut Vec::new())
    }

    #[test]
    fn hit_after_fill_completes() {
        let mut c = small_cache();
        fill(&mut c, LineAddr(7));
        c.accept(Access::load(2, LineAddr(7), 0, Requester::Core(0)), 0);
        let out = drive(&mut c, 10);
        assert_eq!(out.completed.len(), 1);
        assert_eq!(out.completed[0].id, 2);
        assert_eq!(c.stats().demand_hits, 1);
    }

    #[test]
    fn same_line_misses_coalesce() {
        let mut c = small_cache();
        c.accept(Access::load(1, LineAddr(7), 0, Requester::Core(0)), 0);
        c.accept(Access::load(2, LineAddr(7), 0, Requester::Core(0)), 0);
        let out = drive(&mut c, 10);
        assert_eq!(out.downstream.len(), 1, "one downstream request per line");
        let mut waiters = Vec::new();
        c.fill(LineAddr(7), 0, &mut waiters);
        assert_eq!(waiters.len(), 2, "both waiters released");
    }

    #[test]
    fn mshr_full_forces_retry() {
        let mut c = small_cache(); // 2 MSHRs
        for (id, line) in [(1u64, 10u64), (2, 20), (3, 30)] {
            c.accept(Access::load(id, LineAddr(line), 0, Requester::Core(0)), 0);
        }
        let out = drive(&mut c, 8);
        assert_eq!(out.downstream.len(), 2, "third miss blocked by MSHRs");
        assert!(c.stats().mshr_full_stalls > 0);
        // Fill one line; the retried access then allocates.
        fill(&mut c, LineAddr(10));
        let out2 = drive(&mut c, 8);
        assert_eq!(out2.downstream.len(), 1);
        assert_eq!(out2.downstream[0].line, LineAddr(30));
    }

    #[test]
    fn store_waiter_dirties_line_on_fill() {
        let mut c = small_cache();
        c.accept(Access::store(1, LineAddr(5), 0, Requester::Core(0)), 0);
        drive(&mut c, 10);
        fill(&mut c, LineAddr(5));
        // Evict it by filling the same set until displacement; the victim
        // must come back dirty. Set index of line 5 with 16 sets: fill the
        // same set with 4 more lines (4 ways).
        let sets = 4 * 1024 / 64 / 4;
        let mut dirty_seen = false;
        for k in 1..=4u64 {
            if fill(&mut c, LineAddr(5 + k * sets as u64)) == Some(LineAddr(5)) {
                dirty_seen = true;
            }
        }
        assert!(dirty_seen, "dirty line must surface as a write-back victim");
    }

    #[test]
    fn prefetcher_issues_downstream_requests() {
        let config = CacheConfig {
            size_bytes: 4 * 1024,
            ways: 4,
            latency: 1,
            mshrs: 8,
            stride_prefetcher: true,
        };
        let mut c = Cache::new(config, 4, Requester::PrefetchL1(0));
        for i in 0..10u64 {
            c.accept(Access::load(i, LineAddr(i), 1, Requester::Core(0)), i);
        }
        let out = drive(&mut c, 32);
        let prefetches: Vec<_> = out.downstream.iter().filter(|a| a.is_prefetch).collect();
        assert!(
            !prefetches.is_empty(),
            "stride stream must trigger prefetches"
        );
        assert!(prefetches
            .iter()
            .all(|a| a.requester == Requester::PrefetchL1(0)));
        assert!(c.stats().prefetch_issued > 0);
    }

    #[test]
    fn ports_bound_throughput() {
        let mut c = small_cache(); // 2 ports
        for i in 0..6u64 {
            fill(&mut c, LineAddr(i));
            c.accept(Access::load(i, LineAddr(i), 0, Requester::Core(0)), 0);
        }
        let mut out = CacheOutputs::default();
        c.tick(3, &mut out);
        assert_eq!(out.completed.len(), 2, "one cycle serves at most `ports`");
    }
}
