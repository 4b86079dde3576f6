//! FR-FCFS memory controller for one channel.
//!
//! First-Ready, First-Come-First-Served: column accesses that hit an open row
//! issue before older requests that need a row switch, which maximizes
//! row-buffer hits within the visibility window of the request buffer
//! (32 entries per channel, Table 3). The paper's core observation is that
//! this window is far too small for sparse indirect accesses — DX100's Row
//! Table widens effective visibility to an entire 16K-element tile *before*
//! requests ever reach this buffer.

use std::collections::VecDeque;

use dx100_common::{Cycle, DelayQueue, LineAddr, ReqId, TraceHandle};

use crate::channel::Channel;
use crate::config::DramConfig;
use crate::mapping::DramCoord;
use crate::profile::{CasOutcome, ChannelProfile};
use crate::stats::DramStats;
use crate::{MemRequest, MemResponse};

/// The request buffer in struct-of-arrays layout.
///
/// FIFO age order *is* the vector order: position `i` holds the `i`-th
/// oldest request, and removal shifts the tail, which is fine at 32 entries
/// (Table 3). The scheduler finds its candidates through the per-bank
/// position masks in [`BankQueue`], then reads only the fields it needs.
#[derive(Clone, Debug, Default)]
struct RequestBuffer {
    ids: Vec<ReqId>,
    lines: Vec<LineAddr>,
    is_write: Vec<bool>,
    rows: Vec<u64>,
    bank_idx: Vec<usize>,
    bank_group: Vec<usize>,
    rank: Vec<usize>,
    arrived_at: Vec<Cycle>,
    /// Whether this request triggered its own ACT (row miss) — used for the
    /// row-buffer hit-rate statistic.
    caused_act: Vec<bool>,
    /// Whether this request forced a PRE first (row conflict) — refines the
    /// profiled per-bank miss/conflict split.
    caused_pre: Vec<bool>,
}

/// One bank's view of the request buffer, kept current on every enqueue,
/// ACT, PRE and CAS, so each scheduling phase visits only banks with work.
///
/// Both masks are over buffer positions (bit `i` is the `i`-th oldest
/// request), so a bank's requests in age order are its set bits from the
/// lowest up, and its oldest request is the lowest set bit.
#[derive(Clone, Copy, Debug, Default)]
struct BankQueue {
    /// Positions of the requests to this bank.
    queued: u64,
    /// The subset of `queued` whose row is the bank's open row: the bank's
    /// CAS candidates, and what keeps the row open.
    hits: u64,
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// `mask` with position `i` removed and every higher position moved down
/// one, as [`RequestBuffer::remove`] moves the requests behind `i`.
fn remove_position(mask: u64, i: usize) -> u64 {
    let below = (1u64 << i) - 1;
    (mask & below) | ((mask >> 1) & !below)
}

/// What one controller tick did, for the profiled cmd/refresh/idle split.
#[derive(Clone, Copy)]
enum TickWork {
    /// A command issued this tick (CAS, ACT, PRE, or a refresh start).
    Command,
    /// The channel was blocked inside a tRFC refresh window.
    Refreshing,
    /// Nothing issued.
    Idle,
}

/// One request popped out of the [`RequestBuffer`] for issue.
struct Issued {
    id: ReqId,
    line: LineAddr,
    is_write: bool,
    row: u64,
    bank_idx: usize,
    bank_group: usize,
    arrived_at: Cycle,
    caused_act: bool,
    caused_pre: bool,
}

impl RequestBuffer {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn push(&mut self, req: MemRequest, coord: DramCoord, bank_idx: usize, now: Cycle) {
        self.ids.push(req.id);
        self.lines.push(req.line);
        self.is_write.push(req.is_write);
        self.rows.push(coord.row);
        self.bank_idx.push(bank_idx);
        self.bank_group.push(coord.bank_group);
        self.rank.push(coord.rank);
        self.arrived_at.push(now);
        self.caused_act.push(false);
        self.caused_pre.push(false);
    }

    fn remove(&mut self, i: usize) -> Issued {
        let issued = Issued {
            id: self.ids.remove(i),
            line: self.lines.remove(i),
            is_write: self.is_write.remove(i),
            row: self.rows.remove(i),
            bank_idx: self.bank_idx.remove(i),
            bank_group: self.bank_group.remove(i),
            arrived_at: self.arrived_at.remove(i),
            caused_act: self.caused_act.remove(i),
            caused_pre: self.caused_pre.remove(i),
        };
        self.rank.remove(i);
        issued
    }
}

/// FR-FCFS controller and its channel.
#[derive(Clone, Debug)]
pub struct ChannelController {
    config: DramConfig,
    channel: Channel,
    buffer: RequestBuffer,
    /// Per-bank buffer positions, indexed like the channel's banks.
    banks: Vec<BankQueue>,
    /// Banks with at least one buffered request.
    busy: u64,
    /// Reads whose data burst is in flight.
    in_flight: DelayQueue<MemResponse>,
    stats: DramStats,
    /// Next refresh due time (tREFI cadence).
    next_refresh: Cycle,
    /// While set, the channel is mid-refresh and issues nothing.
    refresh_until: Cycle,
    /// Event sink for DRAM command tracing (`None` = tracing disabled).
    trace: Option<TraceHandle>,
    /// Tick attribution + per-bank CAS profile (`None` = profiling off).
    profile: Option<ChannelProfile>,
}

impl ChannelController {
    /// Creates a controller for one channel.
    pub fn new(config: DramConfig) -> Self {
        let next_refresh = config.timings.t_refi;
        let num_banks = config.organization.banks_per_channel();
        // Banks and buffer positions are bits of a `u64`.
        assert!(num_banks <= 64, "at most 64 banks per channel");
        assert!(
            config.request_buffer_size <= 64,
            "at most 64 request-buffer entries"
        );
        ChannelController {
            channel: Channel::new(config.clone()),
            config,
            buffer: RequestBuffer::default(),
            banks: vec![BankQueue::default(); num_banks],
            busy: 0,
            in_flight: DelayQueue::new(),
            stats: DramStats::default(),
            next_refresh,
            refresh_until: 0,
            trace: None,
            profile: None,
        }
    }

    /// Turns on per-tick attribution and per-bank CAS profiling.
    pub fn enable_profile(&mut self) {
        self.profile = Some(ChannelProfile::new(self.channel.num_banks()));
    }

    /// The channel's attribution profile (`None` when profiling is off).
    pub fn profile(&self) -> Option<&ChannelProfile> {
        self.profile.as_ref()
    }

    /// Attaches an event sink; commands (ACT/PRE instants, RD/WR/REF spans)
    /// are recorded onto it from then on.
    pub fn set_trace(&mut self, handle: TraceHandle) {
        self.trace = Some(handle);
    }

    /// Free request-buffer slots.
    pub fn free_slots(&self) -> usize {
        self.config.request_buffer_size - self.buffer.len()
    }

    /// Attempts to accept a request; `false` when the buffer is full.
    pub fn try_enqueue(&mut self, req: MemRequest, coord: DramCoord, now: Cycle) -> bool {
        if self.buffer.len() >= self.config.request_buffer_size {
            return false;
        }
        let bank_idx = coord.bank_index(&self.config.organization);
        let bit = 1u64 << self.buffer.len();
        let bank = &mut self.banks[bank_idx];
        bank.queued |= bit;
        if self.channel.bank(bank_idx).open_row() == Some(coord.row) {
            bank.hits |= bit;
        }
        self.busy |= 1u64 << bank_idx;
        self.buffer.push(req, coord, bank_idx, now);
        true
    }

    /// Removes the request at buffer position `i` for issue, moving every
    /// bank's younger positions down one.
    fn take(&mut self, i: usize) -> Issued {
        let issued = self.buffer.remove(i);
        for b in bits(self.busy) {
            let bank = &mut self.banks[b];
            bank.queued = remove_position(bank.queued, i);
            bank.hits = remove_position(bank.hits, i);
            if bank.queued == 0 {
                self.busy &= !(1u64 << b);
            }
        }
        issued
    }

    /// Recomputes every [`BankQueue`] from the buffer and the open rows
    /// (debug checks only).
    fn banks_match_buffer(&self) -> bool {
        self.banks.iter().enumerate().all(|(b, bank)| {
            let queued = (0..self.buffer.len())
                .filter(|&i| self.buffer.bank_idx[i] == b)
                .fold(0u64, |m, i| m | 1u64 << i);
            let open = self.channel.bank(b).open_row();
            bank.queued == queued
                && bank.hits == open.map_or(0, |row| self.positions_in_row(b, row))
                && (self.busy >> b & 1 == 1) == (queued != 0)
        })
    }

    /// The positions of `bank`'s requests to `row` (its hits once `row` is
    /// open).
    fn positions_in_row(&self, bank: usize, row: u64) -> u64 {
        bits(self.banks[bank].queued)
            .filter(|&i| self.buffer.rows[i] == row)
            .fold(0, |m, i| m | 1u64 << i)
    }

    /// Whether the controller has no buffered or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.buffer.is_empty() && self.in_flight.is_empty()
    }

    /// Statistics for this channel.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Clears statistics (ROI boundaries).
    pub fn reset_stats(&mut self) {
        let busy_base = self.channel.data_busy_ticks;
        let act_base = self.channel.activates;
        let pre_base = self.channel.precharges;
        self.stats = DramStats {
            data_busy_base: busy_base,
            act_base,
            pre_base,
            ..DramStats::default()
        };
        if self.profile.is_some() {
            self.profile = Some(ChannelProfile::new(self.channel.num_banks()));
        }
    }

    /// Advances one DRAM tick: deliver completed reads, sample occupancy,
    /// issue at most one command. Returns whether the tick delivered a read
    /// or issued a command; one that did neither took the bookkeeping-only
    /// path [`ChannelController::credit_idle_ticks`] reproduces.
    pub fn tick(&mut self, now: Cycle, responses: &mut VecDeque<MemResponse>) -> bool {
        let mut worked = false;
        while let Some(resp) = self.in_flight.pop_ready(now) {
            responses.push_back(resp);
            worked = true;
        }
        self.stats.ticks += 1;
        self.stats
            .occupancy
            .sample(self.buffer.len() as f64 / self.config.request_buffer_size as f64);
        self.snapshot_command_counts();
        if let Some(p) = &mut self.profile {
            p.queue_depth.record(self.buffer.len() as u64);
        }

        let work = self.schedule(now, responses);
        if let Some(p) = &mut self.profile {
            match work {
                TickWork::Command => p.cmd_ticks += 1,
                TickWork::Refreshing => p.refresh_ticks += 1,
                TickWork::Idle => p.idle_ticks += 1,
            }
        }
        worked || matches!(work, TickWork::Command)
    }

    /// Re-derives the ROI-relative command counters from the channel's
    /// running totals (every tick does this before scheduling).
    fn snapshot_command_counts(&mut self) {
        self.stats.data_busy_ticks = self.channel.data_busy_ticks - self.stats.data_busy_base;
        self.stats.activates = self.channel.activates - self.stats.act_base;
        self.stats.precharges = self.channel.precharges - self.stats.pre_base;
    }

    /// The command-scheduling half of [`ChannelController::tick`], returning
    /// what kind of work (if any) this tick performed.
    fn schedule(&mut self, now: Cycle, responses: &mut VecDeque<MemResponse>) -> TickWork {
        // Refresh: at tREFI cadence, drain (precharge) every bank, then
        // block the channel for tRFC.
        if now < self.refresh_until {
            return TickWork::Refreshing;
        }
        if now >= self.next_refresh {
            if self.all_banks_closed() {
                self.refresh_until = now + self.config.timings.t_rfc;
                self.next_refresh += self.config.timings.t_refi;
                self.stats.refreshes += 1;
                if let Some(t) = &self.trace {
                    t.span("dram", "REF", now, self.refresh_until);
                }
                return TickWork::Command;
            }
            // Close open banks as their timing allows; no new ACT/CAS.
            return if self.drain_for_refresh(now) {
                TickWork::Command
            } else {
                TickWork::Idle
            };
        }

        if self.buffer.is_empty() {
            return TickWork::Idle;
        }
        debug_assert!(self.banks_match_buffer(), "per-bank masks drifted");

        // Starvation escape hatch: when the oldest request has waited too
        // long, consider only that request for every phase this tick.
        let starving =
            now.saturating_sub(self.buffer.arrived_at[0]) > self.config.starvation_threshold;

        if self.try_issue_cas(now, responses, starving)
            || self.try_issue_act(now, starving)
            || self.try_issue_pre(now, starving)
        {
            TickWork::Command
        } else {
            TickWork::Idle
        }
    }

    fn all_banks_closed(&self) -> bool {
        (0..self.channel.num_banks()).all(|b| self.channel.bank(b).open_row().is_none())
    }

    fn drain_for_refresh(&mut self, now: Cycle) -> bool {
        for b in 0..self.channel.num_banks() {
            if self.channel.bank(b).open_row().is_some() && self.channel.can_pre(b, now) {
                self.channel.issue_pre(b, now);
                self.banks[b].hits = 0;
                if let Some(t) = &self.trace {
                    t.instant("dram", format!("PRE b{b}"), now);
                }
                return true;
            }
        }
        false
    }

    /// Phase 1: oldest pending request whose row is open and whose CAS is
    /// timing-ready, with no older conflicting same-line access.
    fn try_issue_cas(
        &mut self,
        now: Cycle,
        responses: &mut VecDeque<MemResponse>,
        starving: bool,
    ) -> bool {
        if now < self.channel.cas_channel_earliest() {
            return false; // no bank group is channel-ready in either direction
        }
        // Candidates: the open-row hits of every bank whose open row is
        // CAS-timing-ready at `now`, as one mask of buffer positions, so the
        // scan below visits them in age order and nothing else.
        let mut candidates = 0u64;
        for b in bits(self.busy) {
            let hits = self.banks[b].hits;
            if hits != 0 && now >= self.channel.bank(b).cas_ready_at() {
                candidates |= hits;
            }
        }
        if starving {
            candidates &= 1; // only the oldest request
        }
        // Channel-level readiness depends only on (bank group, direction);
        // memoize it lazily across the scan.
        let mut ch_ready = [[None::<bool>; 2]; 8];
        let mut chosen = None;
        'outer: for i in bits(candidates) {
            let (bg, is_write) = (self.buffer.bank_group[i], self.buffer.is_write[i]);
            let dir = is_write as usize;
            let ready = if bg < ch_ready.len() {
                *ch_ready[bg][dir]
                    .get_or_insert_with(|| self.channel.cas_channel_ready(bg, is_write, now))
            } else {
                self.channel.cas_channel_ready(bg, is_write, now)
            };
            if !ready {
                continue;
            }
            // Never reorder conflicting accesses to the same line: an older
            // pending access (read or write) to the same line, which maps to
            // the same bank, must go first.
            let line = self.buffer.lines[i];
            let older = self.banks[self.buffer.bank_idx[i]].queued & ((1u64 << i) - 1);
            for j in bits(older) {
                if self.buffer.lines[j] == line && (self.buffer.is_write[j] || is_write) {
                    continue 'outer;
                }
            }
            chosen = Some(i);
            break;
        }
        let Some(i) = chosen else { return false };
        let p = self.take(i);
        let data_end = self
            .channel
            .issue_cas(p.bank_idx, p.bank_group, p.row, p.is_write, now);
        if let Some(t) = &self.trace {
            let op = if p.is_write { "WR" } else { "RD" };
            t.span("dram", format!("{op} b{}", p.bank_idx), now, data_end);
        }
        self.stats.row_hits_misses.record(!p.caused_act);
        self.stats.queue_latency.sample((now - p.arrived_at) as f64);
        if let Some(prof) = &mut self.profile {
            let outcome = if !p.caused_act {
                CasOutcome::Hit
            } else if p.caused_pre {
                CasOutcome::Conflict
            } else {
                CasOutcome::Miss
            };
            prof.record_cas(p.bank_idx, outcome);
        }
        if p.is_write {
            self.stats.writes += 1;
            responses.push_back(MemResponse {
                id: p.id,
                line: p.line,
                is_write: true,
                finished_at: data_end,
            });
        } else {
            self.stats.reads += 1;
            self.in_flight.push_at(
                data_end,
                MemResponse {
                    id: p.id,
                    line: p.line,
                    is_write: false,
                    finished_at: data_end,
                },
            );
        }
        true
    }

    /// Phase 2: ACT for the oldest request per closed bank.
    fn try_issue_act(&mut self, now: Cycle, starving: bool) -> bool {
        // Each closed bank's oldest request owns its next command.
        let mut heads = 0u64;
        for b in bits(self.busy) {
            if self.channel.bank(b).open_row().is_none() {
                let queued = self.banks[b].queued;
                heads |= queued & queued.wrapping_neg();
            }
        }
        if starving {
            heads &= 1;
        }
        for i in bits(heads) {
            let (bank_idx, rank, bg) = (
                self.buffer.bank_idx[i],
                self.buffer.rank[i],
                self.buffer.bank_group[i],
            );
            if self.channel.can_act(bank_idx, rank, bg, now) {
                let row = self.buffer.rows[i];
                self.buffer.caused_act[i] = true;
                self.channel.issue_act(bank_idx, rank, bg, row, now);
                self.banks[bank_idx].hits = self.positions_in_row(bank_idx, row);
                if let Some(t) = &self.trace {
                    t.instant("dram", format!("ACT b{bank_idx}"), now);
                }
                return true;
            }
        }
        false
    }

    /// Phase 3: PRE a bank whose open row serves no pending request, on
    /// behalf of the oldest request that needs that bank.
    fn try_issue_pre(&mut self, now: Cycle, starving: bool) -> bool {
        let heads = if starving {
            // The oldest request wins even over pending hits to the open
            // row.
            let bank = self.channel.bank(self.buffer.bank_idx[0]);
            (bank
                .open_row()
                .is_some_and(|open| open != self.buffer.rows[0])) as u64
        } else {
            // Keep a row open while any pending request can still use it.
            let mut heads = 0u64;
            for b in bits(self.busy) {
                let bank = self.banks[b];
                if bank.hits == 0 && self.channel.bank(b).open_row().is_some() {
                    heads |= bank.queued & bank.queued.wrapping_neg();
                }
            }
            heads
        };
        for i in bits(heads) {
            let bank_idx = self.buffer.bank_idx[i];
            if self.channel.can_pre(bank_idx, now) {
                self.buffer.caused_pre[i] = true;
                self.channel.issue_pre(bank_idx, now);
                self.banks[bank_idx].hits = 0;
                if let Some(t) = &self.trace {
                    t.instant("dram", format!("PRE b{bank_idx}"), now);
                }
                return true;
            }
        }
        false
    }

    /// Earliest DRAM tick ≥ `from` at which [`ChannelController::tick`]
    /// might do more than bookkeeping: deliver a completed read, start or
    /// progress a refresh, or have some command become timing-legal.
    ///
    /// The bound is *conservative* (it may name a tick where nothing issues
    /// after all — e.g. a PRE suppressed by the keep-row-open policy) but
    /// never late: while the controller's state is frozen, no command can
    /// become legal before the returned tick. Returning `Some(t) > from`
    /// therefore certifies that every tick in `[from, t)` takes the
    /// bookkeeping-only path, which [`ChannelController::credit_idle_ticks`]
    /// reproduces exactly.
    pub fn next_event(&self, from: Cycle) -> Option<Cycle> {
        let mut ev: Option<Cycle> = None;
        let mut consider = |t: Cycle| {
            ev = Some(match ev {
                Some(e) if e <= t => e,
                _ => t,
            })
        };
        if let Some(t) = self.in_flight.next_ready_at() {
            consider(t);
        }
        // Mid-refresh the channel issues nothing until `refresh_until`; only
        // response delivery can happen earlier.
        if from < self.refresh_until {
            consider(self.refresh_until);
            return ev;
        }
        consider(self.next_refresh);
        if from >= self.next_refresh {
            // Refresh drain in progress: PREs may issue as banks allow.
            // Treat as active now rather than modeling the drain schedule.
            consider(from);
            return ev;
        }
        if self.buffer.is_empty() {
            return ev;
        }
        // Starvation onset switches the scheduler into oldest-first mode,
        // which can unlock PREs the keep-row-open policy was suppressing.
        let onset = self.buffer.arrived_at[0] + self.config.starvation_threshold + 1;
        if onset > from {
            consider(onset);
        }
        // Earliest command-legal tick per bank with work: a CAS for its
        // open-row hits (per direction), a PRE for its misses, an ACT while
        // closed. The same bound as per request over the whole buffer (a
        // superset of the starving scan, so never late in either mode). The
        // channel-level CAS readiness is memoized per (bank group,
        // direction) across banks.
        let mut channel_ready = [[None::<Cycle>; 2]; 8];
        for b in bits(self.busy) {
            let bank = self.banks[b];
            let head = bank.queued.trailing_zeros() as usize;
            let (rank, bg) = (self.buffer.rank[head], self.buffer.bank_group[head]);
            let t = if self.channel.bank(b).open_row().is_none() {
                self.channel.act_ready_tick(b, rank, bg)
            } else {
                let mut dirs = [false; 2];
                for i in bits(bank.hits) {
                    dirs[self.buffer.is_write[i] as usize] = true;
                }
                let mut t = if bank.queued != bank.hits {
                    self.channel.pre_ready_tick(b)
                } else {
                    Cycle::MAX
                };
                for dir in (0..2).filter(|&dir| dirs[dir]) {
                    let is_write = dir == 1;
                    let ready = match channel_ready.get_mut(bg) {
                        Some(memo) => *memo[dir]
                            .get_or_insert_with(|| self.channel.cas_channel_ready_at(bg, is_write)),
                        None => self.channel.cas_channel_ready_at(bg, is_write),
                    };
                    t = t.min(self.channel.bank(b).cas_ready_at().max(ready));
                }
                t
            };
            consider(t);
            if t <= from {
                break; // some command is legal at `from` already
            }
        }
        ev
    }

    /// Credits `n` skipped ticks' worth of bookkeeping starting at tick
    /// `from`: bit-identical to `n` [`ChannelController::tick`] calls that
    /// each took the bookkeeping-only path. The derived counters
    /// (`data_busy_ticks`, `activates`, `precharges`) are snapshots every
    /// tick re-takes before it schedules; no command issues inside the span,
    /// so re-taking them once here catches up a command issued on the tick
    /// just before it.
    ///
    /// The caller credits only spans `next_event` showed command-free, but
    /// such a span may still overlap a tRFC refresh window (`next_event`
    /// names `refresh_until` as the next event, so the span ends at or
    /// before it).
    /// The profiled refresh/idle split therefore falls out of the frozen
    /// `refresh_until` watermark.
    pub fn credit_idle_ticks(&mut self, from: Cycle, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.ticks += n;
        self.snapshot_command_counts();
        self.stats.occupancy.sample_n(
            self.buffer.len() as f64 / self.config.request_buffer_size as f64,
            n,
        );
        if let Some(p) = &mut self.profile {
            p.queue_depth.record_n(self.buffer.len() as u64, n);
            let refreshing = n.min(self.refresh_until.saturating_sub(from));
            p.refresh_ticks += refreshing;
            p.idle_ticks += n - refreshing;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx100_common::LineAddr;

    fn run_until_drained(ctrl: &mut ChannelController, max_ticks: Cycle) -> Vec<MemResponse> {
        let mut out = VecDeque::new();
        let mut now = 0;
        while !ctrl.is_idle() {
            ctrl.tick(now, &mut out);
            now += 1;
            assert!(
                now < max_ticks,
                "controller did not drain in {max_ticks} ticks"
            );
        }
        out.into()
    }

    fn enqueue_line(
        ctrl: &mut ChannelController,
        cfg: &DramConfig,
        id: u64,
        line: LineAddr,
        write: bool,
    ) {
        let coord = cfg.organization.decode(line);
        assert_eq!(coord.channel, 0, "test lines must map to channel 0");
        let req = if write {
            MemRequest::write(id, line)
        } else {
            MemRequest::read(id, line)
        };
        assert!(ctrl.try_enqueue(req, coord, 0));
    }

    /// Build a line address with chosen row/col in channel 0, bank 0, bg 0.
    fn line(cfg: &DramConfig, row: u64, col: u64) -> LineAddr {
        cfg.organization.encode(DramCoord {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row,
            col,
        })
    }

    #[test]
    fn single_read_completes_with_cold_latency() {
        let cfg = DramConfig::ddr4_3200_2ch();
        let mut ctrl = ChannelController::new(cfg.clone());
        enqueue_line(&mut ctrl, &cfg, 1, line(&cfg, 3, 5), false);
        let resps = run_until_drained(&mut ctrl, 1000);
        assert_eq!(resps.len(), 1);
        let t = &cfg.timings;
        // ACT at 0, CAS at tRCD, data done at tRCD + CL + tBL.
        assert_eq!(resps[0].finished_at, t.t_rcd + t.cl + t.t_bl);
    }

    #[test]
    fn fr_fcfs_reorders_for_row_hits() {
        let cfg = DramConfig::ddr4_3200_2ch();
        let mut ctrl = ChannelController::new(cfg.clone());
        // Row 1, then row 2, then row 1 again: FR-FCFS should serve both
        // row-1 requests before switching, giving 1 hit in 3 accesses.
        enqueue_line(&mut ctrl, &cfg, 1, line(&cfg, 1, 0), false);
        enqueue_line(&mut ctrl, &cfg, 2, line(&cfg, 2, 0), false);
        enqueue_line(&mut ctrl, &cfg, 3, line(&cfg, 1, 1), false);
        let resps = run_until_drained(&mut ctrl, 10_000);
        let order: Vec<u64> = resps.iter().map(|r| r.id).collect();
        assert_eq!(order, vec![1, 3, 2], "row-hit request must jump the queue");
        let s = ctrl.stats();
        assert_eq!(s.row_hits_misses.hits(), 1);
        assert_eq!(s.row_hits_misses.misses(), 2);
    }

    #[test]
    fn same_line_raw_never_reorders() {
        let cfg = DramConfig::ddr4_3200_2ch();
        let mut ctrl = ChannelController::new(cfg.clone());
        let l = line(&cfg, 1, 0);
        enqueue_line(&mut ctrl, &cfg, 1, l, true); // write
        enqueue_line(&mut ctrl, &cfg, 2, l, false); // read of same line
        let resps = run_until_drained(&mut ctrl, 10_000);
        // The write command must issue before the read command even though
        // both are row hits once open.
        let widx = resps.iter().position(|r| r.id == 1).unwrap();
        let ridx = resps.iter().position(|r| r.id == 2).unwrap();
        // Write CAS issues first; its ack may be queued after the read's
        // completion only if its data time were later — check issue order via
        // finished_at ordering instead.
        assert!(resps[widx].finished_at <= resps[ridx].finished_at || widx < ridx);
    }

    #[test]
    fn buffer_back_pressure() {
        let cfg = DramConfig::ddr4_3200_2ch();
        let mut ctrl = ChannelController::new(cfg.clone());
        for i in 0..cfg.request_buffer_size as u64 {
            enqueue_line(&mut ctrl, &cfg, i, line(&cfg, i, 0), false);
        }
        assert_eq!(ctrl.free_slots(), 0);
        let coord = cfg.organization.decode(line(&cfg, 99, 0));
        assert!(!ctrl.try_enqueue(MemRequest::read(999, line(&cfg, 99, 0)), coord, 0));
    }

    #[test]
    fn starving_request_eventually_served() {
        let mut cfg = DramConfig::ddr4_3200_2ch();
        cfg.starvation_threshold = 200;
        let mut ctrl = ChannelController::new(cfg.clone());
        // One old request to row 2 buried under a stream of row-1 hits.
        enqueue_line(&mut ctrl, &cfg, 100, line(&cfg, 1, 0), false);
        enqueue_line(&mut ctrl, &cfg, 200, line(&cfg, 2, 0), false);
        let mut out = VecDeque::new();
        let mut now = 0;
        let mut col = 1;
        let mut done_at = None;
        while done_at.is_none() && now < 100_000 {
            // Keep refilling row-1 hits so FR would starve row 2 forever.
            if ctrl.free_slots() > 0 {
                let l = line(&cfg, 1, col % cfg.organization.cols_per_row);
                let coord = cfg.organization.decode(l);
                ctrl.try_enqueue(MemRequest::read(1000 + col, l), coord, now);
                col += 1;
            }
            ctrl.tick(now, &mut out);
            if out.iter().any(|r| r.id == 200) {
                done_at = Some(now);
            }
            out.clear();
            now += 1;
        }
        assert!(done_at.is_some(), "request to row 2 starved");
    }

    #[test]
    fn streaming_reads_saturate_bandwidth() {
        // A full row of consecutive columns across all 4 bank groups should
        // approach one burst per tCCD_S once rows are open.
        let cfg = DramConfig::ddr4_3200_2ch();
        let mut ctrl = ChannelController::new(cfg.clone());
        let mut out = VecDeque::new();
        let mut now = 0;
        let mut sent = 0u64;
        let total = 512u64;
        let mut got = 0;
        while got < total && now < 200_000 {
            // Stream across bank groups: line addresses with channel bit 0.
            while sent < total && ctrl.free_slots() > 0 {
                let l = LineAddr(sent * cfg.organization.channels as u64);
                let coord = cfg.organization.decode(l);
                assert_eq!(coord.channel, 0);
                ctrl.try_enqueue(MemRequest::read(sent, l), coord, now);
                sent += 1;
            }
            ctrl.tick(now, &mut out);
            got += out.len() as u64;
            out.clear();
            now += 1;
        }
        assert_eq!(got, total);
        let s = ctrl.stats();
        let util = s.data_busy_ticks as f64 / s.ticks as f64;
        assert!(util > 0.75, "streaming utilization too low: {util}");
        assert!(s.row_hits_misses.rate() > 0.9, "stream should be row hits");
    }
}
