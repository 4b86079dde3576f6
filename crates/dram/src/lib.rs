//! Command-level DDR4 DRAM simulator with FR-FCFS memory controllers.
//!
//! This crate is the reproduction's substitute for Ramulator2: it models the
//! paper's memory system (Table 3) at DRAM-command granularity — channels,
//! ranks, bank groups, banks, row buffers, and the full set of timing
//! constraints (`tRP`, `tRCD`, `tCCD_S/L`, `tRTP`, `tRAS`, `tFAW`, ...), plus
//! a per-channel FR-FCFS scheduler with a 32-entry request buffer.
//!
//! The quantities the paper's Figures 8 and 10 measure fall out of this model
//! directly: **row-buffer hit rate** (was a request served from an already
//! open row?), **bandwidth utilization** (data-bus busy fraction), and
//! **request-buffer occupancy** (mean buffer fill sampled every DRAM tick).
//!
//! Everything inside this crate is clocked in DRAM ticks (`tCK` = 625 ps for
//! DDR4-3200); the system glue converts to CPU cycles (one DRAM tick = two
//! 3.2 GHz CPU cycles).
//!
//! # Example
//!
//! ```
//! use dx100_common::LineAddr;
//! use dx100_dram::{DramConfig, DramSystem, MemRequest};
//!
//! let mut dram = DramSystem::new(DramConfig::ddr4_3200_2ch());
//! assert!(dram.try_enqueue(MemRequest::read(1, LineAddr(0)), 0));
//! let mut tick = 0;
//! let resp = loop {
//!     dram.tick(tick);
//!     if let Some(r) = dram.pop_response() {
//!         break r;
//!     }
//!     tick += 1;
//! };
//! assert_eq!(resp.id, 1);
//! // A cold access pays at least ACT + CAS latency.
//! assert!(resp.finished_at >= 42);
//! ```

pub mod bank;
pub mod channel;
pub mod config;
pub mod controller;
pub mod mapping;
pub mod profile;
pub mod stats;

pub use config::{DramConfig, DramTimings, Organization};
pub use controller::ChannelController;
pub use mapping::DramCoord;
pub use profile::{CasOutcome, ChannelProfile};
pub use stats::DramStats;

use dx100_common::{Cycle, LineAddr, ReqId, Sleep, TraceHandle};

/// A memory request at cache-line granularity, as seen by the DRAM system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identifier echoed in the matching [`MemResponse`].
    pub id: ReqId,
    /// Target cache line.
    pub line: LineAddr,
    /// True for writes (no data payload is modeled at this level).
    pub is_write: bool,
}

impl MemRequest {
    /// Convenience constructor for a read request.
    pub fn read(id: ReqId, line: LineAddr) -> Self {
        MemRequest {
            id,
            line,
            is_write: false,
        }
    }

    /// Convenience constructor for a write request.
    pub fn write(id: ReqId, line: LineAddr) -> Self {
        MemRequest {
            id,
            line,
            is_write: true,
        }
    }
}

/// Completion notification for a [`MemRequest`].
///
/// Reads complete when the last data beat leaves the DRAM; writes complete
/// when the write command issues (write data latency is accounted inside the
/// channel's bus model but the requester does not wait for it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// Identifier from the originating request.
    pub id: ReqId,
    /// Target cache line of the originating request.
    pub line: LineAddr,
    /// True if this acknowledges a write.
    pub is_write: bool,
    /// DRAM tick at which the request finished.
    pub finished_at: Cycle,
}

/// The full DRAM back-end: one FR-FCFS controller per channel plus shared
/// address mapping and aggregate statistics.
#[derive(Clone, Debug)]
pub struct DramSystem {
    config: DramConfig,
    controllers: Vec<ChannelController>,
    responses: std::collections::VecDeque<MemResponse>,
    /// Whether idle channels sleep (see [`DramSystem::enable_gating`]).
    gating: bool,
    /// One sleep state per channel, in DRAM ticks.
    sleep: Vec<Sleep>,
    /// First tick whose slot has not passed. An enqueue at tick `now` ends
    /// a sleeping channel's span at `max(now, clock)`.
    clock: Cycle,
}

impl DramSystem {
    /// Builds the DRAM system for `config`.
    pub fn new(config: DramConfig) -> Self {
        let controllers = (0..config.organization.channels)
            .map(|_| ChannelController::new(config.clone()))
            .collect();
        DramSystem {
            sleep: vec![Sleep::default(); config.organization.channels],
            config,
            controllers,
            responses: std::collections::VecDeque::new(),
            gating: false,
            clock: 0,
        }
    }

    /// Turns on per-channel activity gating: a channel whose tick did no
    /// work sleeps until its next event or its next enqueue, and the slept
    /// ticks are credited by [`ChannelController::credit_idle_ticks`] when
    /// it wakes. Off, every channel ticks on every call to
    /// [`DramSystem::tick`].
    pub fn enable_gating(&mut self) {
        self.gating = true;
    }

    /// The first tick at which some channel ticks: the next tick for an
    /// awake channel, else the earliest sleeper's timer (`Cycle::MAX`: none
    /// without input). `None` while a completed response awaits the caller.
    pub fn next_tick_due(&self) -> Option<Cycle> {
        if !self.responses.is_empty() {
            return None;
        }
        Some(
            self.sleep
                .iter()
                .map(|s| s.until().unwrap_or(self.clock))
                .min()
                .unwrap_or(Cycle::MAX),
        )
    }

    /// Declares every tick before `tick` passed while all channels slept:
    /// the caller elides whole cycles then, and calls no [`DramSystem::tick`]
    /// for them.
    pub fn sleep_through(&mut self, tick: Cycle) {
        self.clock = tick;
    }

    /// Credits every sleeping channel's span up to tick `to` and leaves it
    /// asleep (statistics are about to be read).
    pub fn settle(&mut self, to: Cycle) {
        for (s, c) in self.sleep.iter_mut().zip(&mut self.controllers) {
            if let Some((from, to)) = s.settle(to) {
                c.credit_idle_ticks(from, to - from);
            }
        }
    }

    /// Wakes every channel with its span ending at tick `to`, the first
    /// tick whose slot has not passed.
    pub fn wake_all(&mut self, to: Cycle) {
        for (s, c) in self.sleep.iter_mut().zip(&mut self.controllers) {
            if let Some((from, to)) = s.wake(to) {
                c.credit_idle_ticks(from, to - from);
            }
        }
        self.clock = to;
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Attempts to enqueue a request into its channel's request buffer at
    /// DRAM tick `now`. Returns `false` (and drops nothing — the caller keeps
    /// ownership semantics by value) if the buffer is full; the caller must
    /// retry later, which is exactly the back-pressure a real controller
    /// exerts on the on-chip fabric.
    ///
    /// An accepted request wakes its channel, crediting the slept span from
    /// the buffer occupancy before the request.
    pub fn try_enqueue(&mut self, req: MemRequest, now: Cycle) -> bool {
        let coord = self.config.organization.decode(req.line);
        let ch = coord.channel;
        let ctrl = &mut self.controllers[ch];
        if ctrl.free_slots() == 0 {
            return false;
        }
        if let Some((from, to)) = self.sleep[ch].wake(now.max(self.clock)) {
            ctrl.credit_idle_ticks(from, to - from);
        }
        ctrl.try_enqueue(req, coord, now)
    }

    /// Advances every channel by one DRAM tick. With gating on, a sleeping
    /// channel is skipped until its timer runs out.
    pub fn tick(&mut self, now: Cycle) {
        for (s, ctrl) in self.sleep.iter_mut().zip(&mut self.controllers) {
            if !s.due(now) {
                continue;
            }
            if let Some((from, to)) = s.wake(now) {
                ctrl.credit_idle_ticks(from, to - from);
            }
            let worked = ctrl.tick(now, &mut self.responses);
            if self.gating {
                s.after_tick(now, worked, |t| ctrl.next_event(t));
            }
        }
        self.clock = now + 1;
    }

    /// Pops the next completed request, if any (FIFO by completion).
    pub fn pop_response(&mut self) -> Option<MemResponse> {
        self.responses.pop_front()
    }

    /// Whether all request buffers are empty and no command is in flight.
    pub fn is_idle(&self) -> bool {
        self.responses.is_empty() && self.controllers.iter().all(|c| c.is_idle())
    }

    /// Earliest DRAM tick ≥ `from` at which any channel might do more than
    /// bookkeeping (see [`ChannelController::next_event`]). A pending
    /// undelivered response makes the system active immediately.
    pub fn next_event(&self, from: Cycle) -> Option<Cycle> {
        if !self.responses.is_empty() {
            return Some(from);
        }
        self.controllers
            .iter()
            .filter_map(|c| c.next_event(from))
            .min()
    }

    /// Credits `n` skipped ticks of bookkeeping starting at tick `from` to
    /// every channel (see [`ChannelController::credit_idle_ticks`]), for a
    /// caller that skips whole spans itself with gating off.
    pub fn credit_idle_ticks(&mut self, from: Cycle, n: u64) {
        for c in &mut self.controllers {
            c.credit_idle_ticks(from, n);
        }
    }

    /// Aggregate statistics across all channels.
    pub fn stats(&self) -> DramStats {
        let mut agg = DramStats::default();
        for c in &self.controllers {
            agg.merge(c.stats());
        }
        agg
    }

    /// Turns on cycle attribution for every channel.
    pub fn enable_profile(&mut self) {
        for c in &mut self.controllers {
            c.enable_profile();
        }
    }

    /// Per-channel attribution profiles, in channel order. `None` entries
    /// mean profiling was never enabled.
    pub fn channel_profiles(&self) -> Vec<Option<&ChannelProfile>> {
        self.controllers.iter().map(|c| c.profile()).collect()
    }

    /// Resets all statistics counters (used to exclude warm-up phases from
    /// region-of-interest measurements).
    pub fn reset_stats(&mut self) {
        for c in &mut self.controllers {
            c.reset_stats();
        }
    }

    /// Attaches event tracing: each channel gets its own track, and
    /// `ts_scale` converts DRAM ticks onto the trace's CPU-cycle timeline
    /// (2 for DDR4-3200 under a 3.2 GHz core).
    pub fn attach_trace(&mut self, root: &TraceHandle, ts_scale: u64) {
        let scaled = root.scaled(ts_scale);
        for (ch, ctrl) in self.controllers.iter_mut().enumerate() {
            ctrl.set_trace(scaled.track(format!("DRAM ch{ch}")));
        }
    }
}
