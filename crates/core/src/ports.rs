//! The Interface's view of the outside system (paper Section 3.6).
//!
//! DX100 talks to three things: the coherence directory (snoops during the
//! fill stage), the LLC (Cache Interface — streaming accesses and indirect
//! accesses whose line is cached), and the DRAM controllers (DRAM Interface
//! — indirect accesses that miss everywhere, injected directly to preserve
//! the Row Table's carefully constructed order). The system glue implements
//! this trait over the cache hierarchy and DRAM simulator.

use dx100_common::{Cycle, LineAddr, ReqId};

/// Memory-side ports of one DX100 instance.
pub trait MemPorts {
    /// Coherence-directory snoop: is `line` currently valid in any cache?
    /// Sets the Row Table's H bit.
    fn snoop(&self, line: LineAddr) -> bool;

    /// Invalidate `line` in all caches (coherency agent, on dispatch of an
    /// instruction whose tiles the cores may have cached). Returns whether
    /// any copy was dirty.
    fn invalidate(&mut self, line: LineAddr) -> bool;

    /// Issue a request through the Cache Interface into the LLC. Responses
    /// arrive via `Dx100Engine::mem_response` with the same `id`.
    fn llc_request(&mut self, id: ReqId, line: LineAddr, is_write: bool, now: Cycle);

    /// Try to inject a request directly into the DRAM controller's request
    /// buffer. Returns `false` if the target channel's buffer is full (the
    /// request generator retries next cycle). Reads respond via
    /// `Dx100Engine::mem_response`; writes are fire-and-forget at this level
    /// but still acknowledged with a response.
    fn dram_try_request(&mut self, id: ReqId, line: LineAddr, is_write: bool, now: Cycle) -> bool;
}

/// A trivially permissive port set for unit tests: every request completes
/// after a fixed latency, nothing is ever cached.
#[derive(Debug, Default)]
pub struct TestPorts {
    /// Latency applied to every request.
    pub latency: Cycle,
    /// Completions to feed back: `(ready_at, id)`.
    pub completions: std::collections::VecDeque<(Cycle, ReqId)>,
    /// Log of `(id, line, is_write, via_dram)` issues.
    pub issued: Vec<(ReqId, LineAddr, bool, bool)>,
    /// Lines reported as cached by `snoop`.
    pub cached: dx100_common::hash::HashSet<LineAddr>,
    /// When set, `dram_try_request` refuses this many times before
    /// accepting (back-pressure testing).
    pub dram_refusals: u32,
}

impl TestPorts {
    /// Ports with a fixed completion latency.
    pub fn new(latency: Cycle) -> Self {
        TestPorts {
            latency,
            ..Default::default()
        }
    }

    /// Pops completions that are ready at `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<ReqId> {
        if self.completions.front().is_some_and(|(t, _)| *t <= now) {
            Some(self.completions.pop_front().unwrap().1)
        } else {
            None
        }
    }
}

impl MemPorts for TestPorts {
    fn snoop(&self, line: LineAddr) -> bool {
        self.cached.contains(&line)
    }

    fn invalidate(&mut self, line: LineAddr) -> bool {
        self.cached.remove(&line)
    }

    fn llc_request(&mut self, id: ReqId, line: LineAddr, is_write: bool, now: Cycle) {
        self.issued.push((id, line, is_write, false));
        self.completions.push_back((now + self.latency, id));
    }

    fn dram_try_request(&mut self, id: ReqId, line: LineAddr, is_write: bool, now: Cycle) -> bool {
        if self.dram_refusals > 0 {
            self.dram_refusals -= 1;
            return false;
        }
        self.issued.push((id, line, is_write, true));
        self.completions.push_back((now + self.latency, id));
        true
    }
}
