//! The out-of-order core engine: in-order dispatch and retire, out-of-order
//! issue, bounded by ROB/LQ/SQ and the issue widths of Table 3.

use std::collections::VecDeque;

use dx100_common::flags::{FlagBoard, FlagId};
use dx100_common::{Addr, CoreId, Cycle, DelayQueue, SpanTracker, TraceHandle};

use crate::channel::ChannelQueue;
use crate::config::CoreConfig;
use crate::op::CoreOp;
use crate::profile::CoreProfile;
use crate::stats::CoreStats;

/// Kind of a memory operation handed to the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Demand load.
    Load,
    /// Demand store (write-allocate).
    Store,
    /// Atomic RMW: issued as a store-intent access; the core adds the lock
    /// latency internally on completion.
    Atomic,
}

/// A memory operation the core wants to issue into its L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemIssue {
    /// ROB sequence number; echo it back via [`Core::mem_complete`].
    pub seq: u64,
    /// Byte address.
    pub addr: Addr,
    /// Stream id for prefetcher training.
    pub stream: u32,
    /// Operation kind.
    pub kind: MemKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryKind {
    Load,
    Store,
    Atomic { locked: bool },
    Alu,
    Mmio { signal: Option<u32> },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Waiting on `n` outstanding dependencies.
    Waiting(u8),
    /// Dependencies satisfied; queued for its functional unit.
    Ready,
    /// In flight in the memory system.
    Issued,
    /// Done; eligible to retire once it reaches the ROB head.
    Complete,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    kind: EntryKind,
    state: EntryState,
    addr: Addr,
    stream: u32,
}

/// One out-of-order core executing a [`CoreOp`] stream.
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    channel: ChannelQueue,
    /// The channel had no op at the last poll; appending clears it.
    stream_done: bool,
    peeked: Option<CoreOp>,
    rob: VecDeque<Entry>,
    head_seq: u64,
    next_seq: u64,
    lq_used: usize,
    sq_used: usize,
    /// Dependents of each in-flight op, in dispatch order, indexed by ROB
    /// slot (see [`Core::slot`]). There are a power of two ≥ `cfg.rob`
    /// slots and the ROB holds at most `cfg.rob` ops, so no two live ops
    /// share a slot; each list keeps its capacity from one occupant to the
    /// next.
    waiters: Vec<Vec<u64>>,
    ready_mem: VecDeque<u64>,
    internal_done: DelayQueue<u64>,
    waiting_flag: Option<WaitState>,
    atomic_pending: bool,
    mem_inflight: usize,
    mmio_signals: Vec<u32>,
    stats: CoreStats,
    /// Cycle-attribution breakdown (`None` = profiling disabled).
    profile: Option<CoreProfile>,
    /// Event sink for stall tracing (`None` = tracing disabled).
    trace: Option<TraceHandle>,
    /// One tracker per stall reason in [`STALL_NAMES`] order.
    stall_spans: [SpanTracker; 4],
    /// Stall counter values at the previous tick, for edge detection.
    prev_stalls: [u64; 4],
}

/// Stall reasons traced per core, in `stall_spans` order.
const STALL_NAMES: [&str; 4] = ["rob_full", "lq_full", "sq_full", "fence"];

/// What the dispatch stage of a quiescent core does each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchIdle {
    /// Blocked on an unset flag; spin-polling if `spin`.
    Wait {
        spin: bool,
    },
    /// A `SetFlag` fence at the head waiting for the ROB to drain.
    Fence,
    RobFull,
    LqFull,
    SqFull,
    /// Nothing to dispatch (stream exhausted or channel empty).
    Empty,
}

/// What the issue stage of a quiescent core does each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueIdle {
    /// Serialized behind an atomic (in flight, or at the head of the ready
    /// queue with other memory ops outstanding).
    Fence,
    /// Nothing issuable.
    Empty,
}

/// Per-cycle effect of a quiescent (stall-only) core tick: which stat
/// counters advance, with no architectural state change. Constant over a
/// whole idle span, which is what lets the span be credited in bulk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdleClass {
    dispatch: DispatchIdle,
    issue: IssueIdle,
}

#[derive(Debug, Clone, Copy)]
struct WaitState {
    flag: FlagId,
    spin: bool,
    next_poll_at: Cycle,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("rob_occupancy", &self.rob.len())
            .field("head_seq", &self.head_seq)
            .field("stream_done", &self.stream_done)
            .finish()
    }
}

impl Core {
    /// Creates a core with an empty op channel.
    pub fn new(id: CoreId, cfg: CoreConfig) -> Self {
        let slots = cfg.rob.next_power_of_two();
        Core {
            id,
            cfg,
            channel: ChannelQueue::new(),
            stream_done: false,
            peeked: None,
            rob: VecDeque::new(),
            head_seq: 0,
            next_seq: 0,
            lq_used: 0,
            sq_used: 0,
            waiters: vec![Vec::new(); slots],
            ready_mem: VecDeque::new(),
            internal_done: DelayQueue::new(),
            waiting_flag: None,
            atomic_pending: false,
            mem_inflight: 0,
            mmio_signals: Vec::new(),
            stats: CoreStats::default(),
            profile: None,
            trace: None,
            stall_spans: [SpanTracker::default(); 4],
            prev_stalls: [0; 4],
        }
    }

    /// Turns on cycle attribution: every live cycle is classified into one
    /// [`CoreProfile`] bucket, in [`Core::tick`] and in slept-span credits
    /// alike.
    pub fn enable_profile(&mut self) {
        self.profile = Some(CoreProfile::default());
    }

    /// The attribution breakdown (`None` when profiling is off).
    pub fn profile(&self) -> Option<&CoreProfile> {
        self.profile.as_ref()
    }

    /// Attaches an event sink; contiguous stretches of each stall reason
    /// (`rob_full`, `lq_full`, `sq_full`, `fence`) become `stall` spans.
    pub fn set_trace(&mut self, handle: TraceHandle) {
        self.trace = Some(handle);
    }

    /// Closes any stall span still open at end of run.
    pub fn finish_trace(&mut self, now: Cycle) {
        if let Some(t) = self.trace.clone() {
            for (i, name) in STALL_NAMES.iter().enumerate() {
                self.stall_spans[i].finish(now, &t, "stall", name);
            }
        }
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The core's op channel, for the driver side to append ops and loops
    /// to. The core polls it again on its next tick, even if it had found
    /// it empty before.
    pub fn channel_mut(&mut self) -> &mut ChannelQueue {
        self.stream_done = false;
        &mut self.channel
    }

    /// Whether the core has fully drained: stream exhausted, ROB empty, and
    /// no wait pending.
    pub fn is_done(&self) -> bool {
        self.stream_done
            && self.peeked.is_none()
            && self.rob.is_empty()
            && self.waiting_flag.is_none()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Clears statistics (ROI boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
        if self.profile.is_some() {
            self.profile = Some(CoreProfile::default());
        }
        self.prev_stalls = [0; 4];
    }

    /// Signals from completed MMIO ops (DX100 instruction beats), in
    /// completion order. The system glue drains these every cycle.
    pub fn drain_mmio_signals(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.mmio_signals)
    }

    /// Whether completed-MMIO signals await [`Core::drain_mmio_signals`].
    pub fn has_mmio_signals(&self) -> bool {
        !self.mmio_signals.is_empty()
    }

    /// The flag this core's dispatch is blocked on, if any. Setting it is
    /// an input that must wake the core when it sleeps.
    pub fn waiting_on(&self) -> Option<FlagId> {
        self.waiting_flag.map(|w| w.flag)
    }

    /// Delivers a memory completion for the op with sequence number `seq`.
    pub fn mem_complete(&mut self, seq: u64, now: Cycle) {
        let Some(entry) = self.entry_mut(seq) else {
            debug_assert!(false, "completion for unknown seq {seq}");
            return;
        };
        if let EntryKind::Atomic { locked } = &mut entry.kind {
            if !*locked {
                // Data arrived; now pay the cacheline-lock latency.
                *locked = true;
                self.internal_done
                    .push_at(now + self.cfg.atomic_lock_latency, seq);
                return;
            }
        }
        // Atomics decrement `mem_inflight` in `finish` (after the lock
        // latency elapses); plain loads/stores decrement here.
        let is_plain_mem = matches!(entry.kind, EntryKind::Load | EntryKind::Store);
        if is_plain_mem {
            self.mem_inflight -= 1;
        }
        self.finish(seq, now);
    }

    /// Advances one cycle. Ready memory ops are handed to `issue`. Returns
    /// whether the tick did work (completed, retired, dispatched or issued
    /// something); a tick that did none only advanced stall counters, as
    /// [`Core::credit_idle_span`] would have.
    pub fn tick(
        &mut self,
        now: Cycle,
        flags: &mut FlagBoard,
        issue: &mut dyn FnMut(MemIssue),
    ) -> bool {
        if self.is_done() {
            return false;
        }
        self.stats.cycles += 1;

        // 0. Cycle attribution: classify before any state changes, with the
        //    same predicate the gating layer's batch credit uses, so the
        //    breakdown is bit-identical with gating on or off.
        if self.profile.is_some() {
            let class = self.idle_class(now, |f| flags.get(f));
            self.credit_profile(class, 1);
        }

        // 1. Internal completions (ALU latency, MMIO latency, atomic locks).
        let mut worked = false;
        while let Some(seq) = self.internal_done.pop_ready(now) {
            self.finish(seq, now);
            worked = true;
        }

        // 2. Retire from the head, in order.
        let mut retired = 0;
        while retired < self.cfg.width {
            match self.rob.front() {
                Some(e) if e.state == EntryState::Complete => {
                    let e = self.rob.pop_front().unwrap();
                    match e.kind {
                        EntryKind::Load => self.lq_used -= 1,
                        EntryKind::Store | EntryKind::Mmio { .. } => self.sq_used -= 1,
                        EntryKind::Atomic { .. } => {
                            self.lq_used -= 1;
                            self.sq_used -= 1;
                        }
                        EntryKind::Alu => {}
                    }
                    debug_assert!(
                        self.waiters[self.slot(self.head_seq)].is_empty(),
                        "retiring op {} still has waiters",
                        self.head_seq
                    );
                    self.head_seq += 1;
                    self.stats.instructions += 1;
                    retired += 1;
                }
                _ => break,
            }
        }

        // 3. Dispatch up to `width` new µops.
        worked |= retired > 0;
        worked |= self.dispatch(now, flags);

        // 4. Issue ready memory ops to the L1 port. Atomics have fence
        //    semantics on the memory stream: an atomic issues only when no
        //    other memory op is in flight, and blocks younger memory ops
        //    until it completes (LOCK-prefix behaviour — serialized memory,
        //    but the pipeline keeps dispatching).
        for _ in 0..self.cfg.mem_issue_width {
            if self.atomic_pending {
                self.stats.stall_fence += 1;
                break;
            }
            let Some(&seq) = self.ready_mem.front() else {
                break;
            };
            let is_atomic = matches!(
                self.entry_mut(seq).map(|e| e.kind),
                Some(EntryKind::Atomic { .. })
            );
            if is_atomic && self.mem_inflight > 0 {
                self.stats.stall_fence += 1;
                break;
            }
            self.ready_mem.pop_front();
            let Some(entry) = self.entry_mut(seq) else {
                continue;
            };
            debug_assert_eq!(entry.state, EntryState::Ready);
            entry.state = EntryState::Issued;
            let (addr, stream) = (entry.addr, entry.stream);
            let kind = match entry.kind {
                EntryKind::Load => MemKind::Load,
                EntryKind::Store => MemKind::Store,
                EntryKind::Atomic { .. } => {
                    self.atomic_pending = true;
                    MemKind::Atomic
                }
                _ => unreachable!("only memory ops enter ready_mem"),
            };
            self.mem_inflight += 1;
            self.stats.mem_ops_issued += 1;
            worked = true;
            issue(MemIssue {
                seq,
                addr,
                stream,
                kind,
            });
        }

        // 5. Occupancy statistics (Figure 10c analysis inputs).
        self.stats.rob_occupancy.sample(self.rob.len() as f64);
        self.stats.lq_occupancy.sample(self.lq_used as f64);

        // 6. Stall tracing: a reason is active this cycle iff its counter
        //    advanced since the previous tick.
        if let Some(t) = self.trace.clone() {
            let cur = [
                self.stats.stall_rob_full,
                self.stats.stall_lq_full,
                self.stats.stall_sq_full,
                self.stats.stall_fence,
            ];
            for (i, name) in STALL_NAMES.iter().enumerate() {
                self.stall_spans[i].update(cur[i] > self.prev_stalls[i], now, &t, "stall", name);
            }
            self.prev_stalls = cur;
        }
        worked
    }

    /// Classifies this cycle as quiescent (returns what each stage's stall
    /// counters do) or active (`None`: the tick would change architectural
    /// state — complete, retire, dispatch, or issue something).
    ///
    /// Mirrors [`Core::tick`]'s control flow exactly: every `return`ing stall
    /// path in `dispatch` maps to a [`DispatchIdle`] variant and every
    /// `break`ing stall path in the issue loop to an [`IssueIdle`] variant.
    /// While the core's inputs are frozen (no flag set, no completion, no
    /// stream refill), the classification is constant from cycle to cycle.
    /// `flag_set` reads the flag a blocked dispatch waits on.
    fn idle_class(&mut self, now: Cycle, flag_set: impl Fn(FlagId) -> bool) -> Option<IdleClass> {
        debug_assert!(!self.is_done());
        if let Some(t) = self.internal_done.next_ready_at() {
            if t <= now {
                return None;
            }
        }
        if matches!(self.rob.front(), Some(e) if e.state == EntryState::Complete) {
            return None;
        }
        let dispatch = if let Some(w) = self.waiting_flag {
            if flag_set(w.flag) {
                return None;
            }
            DispatchIdle::Wait { spin: w.spin }
        } else if let Some(op) = self.peek_op() {
            match op {
                CoreOp::WaitFlag { .. } => return None,
                CoreOp::SetFlag { .. } => {
                    if self.rob.is_empty() {
                        return None;
                    }
                    DispatchIdle::Fence
                }
                _ if self.rob.len() >= self.cfg.rob => DispatchIdle::RobFull,
                CoreOp::Load { .. } if self.lq_used >= self.cfg.lq => DispatchIdle::LqFull,
                CoreOp::Store { .. } if self.sq_used >= self.cfg.sq => DispatchIdle::SqFull,
                CoreOp::AtomicRmw { .. }
                    if self.lq_used >= self.cfg.lq || self.sq_used >= self.cfg.sq =>
                {
                    DispatchIdle::LqFull
                }
                CoreOp::Mmio { .. } if self.sq_used >= self.cfg.sq => DispatchIdle::SqFull,
                _ => return None,
            }
        } else {
            DispatchIdle::Empty
        };
        let issue = if self.atomic_pending {
            IssueIdle::Fence
        } else if let Some(&seq) = self.ready_mem.front() {
            let is_atomic = matches!(
                self.entry_mut(seq).map(|e| e.kind),
                Some(EntryKind::Atomic { .. })
            );
            if is_atomic && self.mem_inflight > 0 {
                IssueIdle::Fence
            } else {
                return None;
            }
        } else {
            IssueIdle::Empty
        };
        Some(IdleClass { dispatch, issue })
    }

    /// Earliest cycle ≥ `now` at which [`Core::tick`] might change
    /// architectural state, assuming no external input (flag set, memory
    /// completion, stream refill) arrives — the system glue wakes a
    /// sleeping core on each of those. `None` means the core is inert until
    /// such input: its only self-timed wakeup source is the internal
    /// completion queue.
    pub fn next_event(&mut self, now: Cycle, flags: &FlagBoard) -> Option<Cycle> {
        if self.is_done() {
            return None;
        }
        if self.idle_class(now, |f| flags.get(f)).is_none() {
            return Some(now);
        }
        self.internal_done.next_ready_at()
    }

    /// Credits the stall-only cycles `[from, to)` in bulk: bit-identical to
    /// calling [`Core::tick`] once per cycle while `Core::idle_class` holds,
    /// which the caller guarantees by crediting only spans that
    /// [`Core::next_event`] certified and no input interrupted. A flag the
    /// core waits on was therefore clear throughout the span, even when it
    /// has just been set by the input that ends the span.
    pub fn credit_idle_span(&mut self, from: Cycle, to: Cycle) {
        if self.is_done() || from >= to {
            return;
        }
        let n = to - from;
        let class = self
            .idle_class(from, |_| false)
            .expect("credit_idle_span requires a quiescent core");
        self.stats.cycles += n;
        self.credit_profile(Some(class), n);
        match class.dispatch {
            DispatchIdle::Wait { spin } => {
                self.stats.wait_cycles += n;
                if spin {
                    if let Some(w) = self.waiting_flag {
                        // Replay the spin polls: one at p0 = max(from,
                        // next_poll_at), then every poll_interval cycles.
                        let p0 = w.next_poll_at.max(from);
                        if p0 < to {
                            let interval = self.cfg.poll_interval;
                            let (k, next_poll_at) = match (to - 1 - p0).checked_div(interval) {
                                // interval == 0: a poll on every cycle.
                                None => (to - p0, to - 1),
                                Some(q) => (q + 1, p0 + (q + 1) * interval),
                            };
                            let instrs = k * self.cfg.spin_instructions_per_poll;
                            self.stats.instructions += instrs;
                            self.stats.spin_instructions += instrs;
                            self.waiting_flag = Some(WaitState { next_poll_at, ..w });
                        }
                    }
                }
            }
            DispatchIdle::Fence => self.stats.stall_fence += n,
            DispatchIdle::RobFull => self.stats.stall_rob_full += n,
            DispatchIdle::LqFull => self.stats.stall_lq_full += n,
            DispatchIdle::SqFull => self.stats.stall_sq_full += n,
            DispatchIdle::Empty => {}
        }
        match class.issue {
            IssueIdle::Fence => self.stats.stall_fence += n,
            IssueIdle::Empty => {}
        }
        self.stats.rob_occupancy.sample_n(self.rob.len() as f64, n);
        self.stats.lq_occupancy.sample_n(self.lq_used as f64, n);
        // Span tracking: the per-reason increment pattern is constant over
        // the span, so one edge-triggered update at `from` reproduces what
        // per-cycle updates would have done.
        if let Some(t) = self.trace.clone() {
            let cur = [
                self.stats.stall_rob_full,
                self.stats.stall_lq_full,
                self.stats.stall_sq_full,
                self.stats.stall_fence,
            ];
            for (i, name) in STALL_NAMES.iter().enumerate() {
                self.stall_spans[i].update(cur[i] > self.prev_stalls[i], from, &t, "stall", name);
            }
            self.prev_stalls = cur;
        }
    }

    /// Adds `n` cycles of `class` to the attribution breakdown. The MECE
    /// mapping: an active cycle (`None`) is `active`; otherwise the
    /// dispatch-side stall wins, and a stall-free-but-empty dispatch falls
    /// through to the issue side (atomic fence, else truly empty).
    fn credit_profile(&mut self, class: Option<IdleClass>, n: u64) {
        let Some(p) = &mut self.profile else { return };
        match class {
            None => p.active += n,
            Some(c) => match c.dispatch {
                DispatchIdle::Wait { spin: true } => p.wait_spin += n,
                DispatchIdle::Wait { spin: false } => p.wait_flag += n,
                DispatchIdle::Fence => p.fence += n,
                DispatchIdle::RobFull => p.rob_full += n,
                DispatchIdle::LqFull => p.lq_full += n,
                DispatchIdle::SqFull => p.sq_full += n,
                DispatchIdle::Empty => match c.issue {
                    IssueIdle::Fence => p.fence += n,
                    IssueIdle::Empty => p.empty += n,
                },
            },
        }
    }

    /// ROB slot of `seq`: the index of its waiter list.
    fn slot(&self, seq: u64) -> usize {
        seq as usize & (self.waiters.len() - 1)
    }

    fn entry_mut(&mut self, seq: u64) -> Option<&mut Entry> {
        let idx = seq.checked_sub(self.head_seq)? as usize;
        self.rob.get_mut(idx)
    }

    /// Marks `seq` complete and wakes dependents.
    fn finish(&mut self, seq: u64, now: Cycle) {
        let alu_latency = self.cfg.alu_latency;
        let Some(entry) = self.entry_mut(seq) else {
            debug_assert!(false, "finish for unknown seq {seq}");
            return;
        };
        entry.state = EntryState::Complete;
        let kind = entry.kind;
        if let EntryKind::Atomic { .. } = kind {
            self.atomic_pending = false;
            self.mem_inflight -= 1;
        }
        if let EntryKind::Mmio { signal: Some(sig) } = kind {
            self.mmio_signals.push(sig);
        }
        // Wake dependents in dispatch order. The list is taken out while
        // routing borrows the core, then put back empty with its capacity.
        let slot = self.slot(seq);
        let mut deps = std::mem::take(&mut self.waiters[slot]);
        for &dseq in &deps {
            let Some(dep_entry) = self.entry_mut(dseq) else {
                continue;
            };
            if let EntryState::Waiting(n) = dep_entry.state {
                if n <= 1 {
                    dep_entry.state = EntryState::Ready;
                    self.route_ready(dseq, now, alu_latency);
                } else {
                    dep_entry.state = EntryState::Waiting(n - 1);
                }
            }
        }
        deps.clear();
        self.waiters[slot] = deps;
    }

    /// Sends a newly ready entry to its functional unit.
    fn route_ready(&mut self, seq: u64, now: Cycle, alu_latency: u64) {
        let entry = self.entry_mut(seq).expect("routing unknown seq");
        match entry.kind {
            EntryKind::Load | EntryKind::Store | EntryKind::Atomic { .. } => {
                self.ready_mem.push_back(seq);
            }
            EntryKind::Alu => self.internal_done.push_at(now + alu_latency, seq),
            EntryKind::Mmio { .. } => {
                // Latency was stashed in `addr` at dispatch.
                let latency = entry.addr;
                self.internal_done.push_at(now + latency, seq);
            }
        }
    }

    /// Dispatches up to `width` µops; returns whether anything moved (an op
    /// taken from the stream or a flag wait released).
    fn dispatch(&mut self, now: Cycle, flags: &mut FlagBoard) -> bool {
        let mut progressed = false;
        for _ in 0..self.cfg.width {
            // Blocked on a flag?
            if let Some(w) = self.waiting_flag {
                if flags.get(w.flag) {
                    self.waiting_flag = None;
                    progressed = true;
                } else {
                    self.stats.wait_cycles += 1;
                    if w.spin && now >= w.next_poll_at {
                        self.stats.instructions += self.cfg.spin_instructions_per_poll;
                        self.stats.spin_instructions += self.cfg.spin_instructions_per_poll;
                        self.waiting_flag = Some(WaitState {
                            next_poll_at: now + self.cfg.poll_interval,
                            ..w
                        });
                    }
                    return progressed;
                }
            }
            let Some(op) = self.peek_op() else {
                return progressed;
            };
            match op {
                CoreOp::WaitFlag { flag, spin } => {
                    self.take_op();
                    progressed = true;
                    self.waiting_flag = Some(WaitState {
                        flag,
                        spin,
                        next_poll_at: now,
                    });
                    continue;
                }
                CoreOp::SetFlag { flag } => {
                    // Light fence: publish only once prior work retired.
                    if !self.rob.is_empty() {
                        self.stats.stall_fence += 1;
                        return progressed;
                    }
                    self.take_op();
                    progressed = true;
                    flags.set(flag);
                    self.stats.instructions += 1;
                    continue;
                }
                _ => {}
            }
            if self.rob.len() >= self.cfg.rob {
                self.stats.stall_rob_full += 1;
                return progressed;
            }
            let (kind, addr, stream, dep) = match op {
                CoreOp::Load { addr, stream, dep } => {
                    if self.lq_used >= self.cfg.lq {
                        self.stats.stall_lq_full += 1;
                        return progressed;
                    }
                    (EntryKind::Load, addr, stream, dep)
                }
                CoreOp::Store { addr, stream, dep } => {
                    if self.sq_used >= self.cfg.sq {
                        self.stats.stall_sq_full += 1;
                        return progressed;
                    }
                    (EntryKind::Store, addr, stream, dep)
                }
                CoreOp::AtomicRmw { addr, stream, dep } => {
                    if self.lq_used >= self.cfg.lq || self.sq_used >= self.cfg.sq {
                        self.stats.stall_lq_full += 1;
                        return progressed;
                    }
                    (EntryKind::Atomic { locked: false }, addr, stream, dep)
                }
                CoreOp::Alu { dep } => (EntryKind::Alu, 0, 0, dep),
                CoreOp::Mmio { latency, signal } => {
                    if self.sq_used >= self.cfg.sq {
                        self.stats.stall_sq_full += 1;
                        return progressed;
                    }
                    // Stash the latency in `addr`; see `route_ready`.
                    (EntryKind::Mmio { signal }, latency as Addr, 0, [0, 0])
                }
                CoreOp::WaitFlag { .. } | CoreOp::SetFlag { .. } => {
                    unreachable!("handled before the ROB-entry path")
                }
            };
            self.take_op();
            progressed = true;
            let seq = self.next_seq;
            self.next_seq += 1;
            match kind {
                EntryKind::Load => self.lq_used += 1,
                EntryKind::Store | EntryKind::Mmio { .. } => self.sq_used += 1,
                EntryKind::Atomic { .. } => {
                    self.lq_used += 1;
                    self.sq_used += 1;
                }
                EntryKind::Alu => {}
            }
            // Resolve dependencies.
            let mut remaining = 0u8;
            for d in dep {
                if d == 0 {
                    continue;
                }
                let Some(dep_seq) = seq.checked_sub(d as u64) else {
                    continue;
                };
                if dep_seq < self.head_seq {
                    continue; // already retired → satisfied
                }
                let idx = (dep_seq - self.head_seq) as usize;
                if self.rob[idx].state == EntryState::Complete {
                    continue;
                }
                let slot = self.slot(dep_seq);
                self.waiters[slot].push(seq);
                remaining += 1;
            }
            let state = if remaining == 0 {
                EntryState::Ready
            } else {
                EntryState::Waiting(remaining)
            };
            self.rob.push_back(Entry {
                kind,
                state,
                addr,
                stream,
            });
            if state == EntryState::Ready {
                self.route_ready(seq, now, self.cfg.alu_latency);
            }
        }
        progressed
    }

    fn peek_op(&mut self) -> Option<CoreOp> {
        if self.peeked.is_none() && !self.stream_done {
            self.peeked = self.channel.next_op();
            if self.peeked.is_none() {
                self.stream_done = true;
            }
        }
        self.peeked
    }

    fn take_op(&mut self) {
        self.peeked = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx100_common::flags::FlagBoard;

    /// A core whose channel holds `ops`.
    fn core_running(cfg: CoreConfig, ops: Vec<CoreOp>) -> Core {
        let mut core = Core::new(0, cfg);
        core.channel_mut().push_ops(ops);
        core
    }

    /// Fake memory: completes every issue after `latency` cycles.
    struct FakeMem {
        latency: Cycle,
        in_flight: DelayQueue<u64>,
        peak_outstanding: usize,
        outstanding: usize,
        /// Every issue as `(cycle, address)`, in issue order.
        issued: Vec<(Cycle, Addr)>,
    }

    impl FakeMem {
        fn new(latency: Cycle) -> Self {
            FakeMem {
                latency,
                in_flight: DelayQueue::new(),
                peak_outstanding: 0,
                outstanding: 0,
                issued: Vec::new(),
            }
        }
    }

    fn run(core: &mut Core, mem: &mut FakeMem, max_cycles: Cycle) -> Cycle {
        let mut flags = FlagBoard::new();
        run_with_flags(core, mem, &mut flags, max_cycles)
    }

    fn run_with_flags(
        core: &mut Core,
        mem: &mut FakeMem,
        flags: &mut FlagBoard,
        max_cycles: Cycle,
    ) -> Cycle {
        for now in 0..max_cycles {
            while let Some(seq) = mem.in_flight.pop_ready(now) {
                mem.outstanding -= 1;
                core.mem_complete(seq, now);
            }
            let latency = mem.latency;
            let inflight = &mut mem.in_flight;
            let log = &mut mem.issued;
            let mut issued_now = 0;
            core.tick(now, flags, &mut |iss| {
                inflight.push_at(now + latency, iss.seq);
                log.push((now, iss.addr));
                issued_now += 1;
            });
            mem.outstanding += issued_now;
            mem.peak_outstanding = mem.peak_outstanding.max(mem.outstanding);
            if core.is_done() {
                return now;
            }
        }
        panic!("core did not finish in {max_cycles} cycles");
    }

    #[test]
    fn independent_loads_overlap() {
        // 16 independent loads at 100-cycle latency should take ~100 cycles,
        // not 1600: the ROB/LQ expose the parallelism.
        let ops: Vec<CoreOp> = (0..16).map(|i| CoreOp::load(i * 64, 0)).collect();
        let mut core = core_running(CoreConfig::paper(), ops);
        let mut mem = FakeMem::new(100);
        let cycles = run(&mut core, &mut mem, 10_000);
        assert!(cycles < 130, "independent loads must overlap: {cycles}");
        assert!(mem.peak_outstanding >= 8);
        assert_eq!(core.stats().instructions, 16);
    }

    #[test]
    fn dependent_loads_serialize() {
        // A chain of 8 dependent loads serializes: ≥ 8 × latency.
        let ops: Vec<CoreOp> = (0..8)
            .map(|i| {
                if i == 0 {
                    CoreOp::load(0, 0)
                } else {
                    CoreOp::load(i * 64, 0).with_dep(1)
                }
            })
            .collect();
        let mut core = core_running(CoreConfig::paper(), ops);
        let mut mem = FakeMem::new(100);
        let cycles = run(&mut core, &mut mem, 10_000);
        assert!(cycles >= 800, "dependent chain must serialize: {cycles}");
        assert!(mem.peak_outstanding <= 1);
    }

    /// A producer's six dependents wake in dispatch order. The dependent
    /// loads issue in that order, and so do the loads behind the dependent
    /// ALUs: equal ALU latency keeps the ALUs' completions in wake order.
    #[test]
    fn dependents_wake_in_dispatch_order() {
        // seq 0: the producer; seqs 1..=6: loads and ALUs naming seq 0.
        let mut ops = vec![CoreOp::load(0, 0)];
        for k in 1..=6u16 {
            let op = if k % 2 == 1 {
                CoreOp::load(k as Addr * 64, 0)
            } else {
                CoreOp::alu()
            };
            ops.push(op.with_dep(k));
        }
        // seqs 7..=9: one load behind each ALU (seqs 2, 4, 6).
        for (seq, alu) in [(7u16, 2u16), (8, 4), (9, 6)] {
            ops.push(CoreOp::load(0x1000 + alu as Addr * 64, 0).with_dep(seq - alu));
        }
        let mut core = core_running(CoreConfig::paper(), ops);
        let mut mem = FakeMem::new(100);
        run(&mut core, &mut mem, 10_000);
        let order: Vec<Addr> = mem.issued.iter().map(|&(_, a)| a).collect();
        assert_eq!(order, [0, 64, 192, 320, 0x1080, 0x1100, 0x1180]);
        let producer_done = mem.issued[0].0 + 100;
        assert!(
            mem.issued[1..].iter().all(|&(t, _)| t >= producer_done),
            "a dependent issued before its producer completed: {:?}",
            mem.issued
        );
    }

    /// Ten ROB-lengths of dependent ops, with dependency distances up to
    /// the ROB size so producer and consumer often sit on opposite sides of
    /// the waiter-slot wrap: every op retires once, every memory op issues
    /// once, and no memory op issues before a memory op it depends on
    /// completes.
    #[test]
    fn dependencies_across_slot_wrap_retire_once() {
        let mut cfg = CoreConfig::paper();
        cfg.rob = 12; // 16 waiter slots
        let latency = 7;
        let n = 10 * cfg.rob as u64;
        let dist = |i: u64| 1 + (i * 7) % 11; // 1..=11, within the ROB
        let is_mem = |i: u64| i % 3 != 1;
        let ops: Vec<CoreOp> = (0..n)
            .map(|i| {
                let op = match i % 3 {
                    0 => CoreOp::load(i * 64, 0),
                    1 => CoreOp::alu(),
                    _ => CoreOp::store(i * 64, 0),
                };
                if i >= dist(i) {
                    op.with_dep(dist(i) as u16)
                } else {
                    op
                }
            })
            .collect();
        let mut core = core_running(cfg, ops);
        let mut mem = FakeMem::new(latency);
        run(&mut core, &mut mem, 100_000);
        assert_eq!(
            core.stats().instructions,
            n,
            "every op retires exactly once"
        );
        let mut addrs: Vec<Addr> = mem.issued.iter().map(|&(_, a)| a).collect();
        addrs.sort_unstable();
        let want: Vec<Addr> = (0..n).filter(|&i| is_mem(i)).map(|i| i * 64).collect();
        assert_eq!(addrs, want, "every memory op issues exactly once");
        let issued_at = |i: u64| {
            mem.issued
                .iter()
                .find(|&&(_, a)| a == i * 64)
                .map(|&(t, _)| t)
                .expect("memory op issued")
        };
        for i in (0..n).filter(|&i| is_mem(i) && i >= dist(i)) {
            let p = i - dist(i);
            if is_mem(p) {
                assert!(
                    issued_at(i) >= issued_at(p) + latency,
                    "op {i} issued before the op {p} it depends on completed"
                );
            }
        }
    }

    #[test]
    fn lq_bounds_outstanding_loads() {
        let mut cfg = CoreConfig::paper();
        cfg.lq = 4;
        cfg.rob = 224;
        let ops: Vec<CoreOp> = (0..64).map(|i| CoreOp::load(i * 64, 0)).collect();
        let mut core = core_running(cfg, ops);
        let mut mem = FakeMem::new(50);
        run(&mut core, &mut mem, 100_000);
        assert!(mem.peak_outstanding <= 4, "LQ must cap MLP");
        assert!(core.stats().stall_lq_full > 0);
    }

    #[test]
    fn rob_bounds_window() {
        let mut cfg = CoreConfig::paper();
        cfg.rob = 8;
        // A long-latency load followed by many ALUs: the window fills.
        let mut ops = vec![CoreOp::load(0, 0)];
        ops.extend((0..64).map(|_| CoreOp::alu()));
        let mut core = core_running(cfg, ops);
        let mut mem = FakeMem::new(200);
        run(&mut core, &mut mem, 10_000);
        assert!(
            core.stats().stall_rob_full > 0,
            "ROB must fill behind a miss"
        );
    }

    #[test]
    fn atomics_serialize_and_pay_lock_latency() {
        // N plain stores vs N atomics to the same addresses.
        let n = 32u64;
        let plain: Vec<CoreOp> = (0..n).map(|i| CoreOp::store(i * 64, 0)).collect();
        let atomics: Vec<CoreOp> = (0..n).map(|i| CoreOp::atomic(i * 64, 0)).collect();
        let mut c1 = core_running(CoreConfig::paper(), plain);
        let mut m1 = FakeMem::new(20);
        let t_plain = run(&mut c1, &mut m1, 100_000);
        let mut c2 = core_running(CoreConfig::paper(), atomics);
        let mut m2 = FakeMem::new(20);
        let t_atomic = run(&mut c2, &mut m2, 100_000);
        let ratio = t_atomic as f64 / t_plain as f64;
        assert!(ratio > 3.0, "atomics must be several × slower: {ratio:.2}");
        assert!(m2.peak_outstanding <= 1, "fence caps MLP at 1");
    }

    #[test]
    fn width_bounds_alu_throughput() {
        let n = 800u64;
        let ops: Vec<CoreOp> = (0..n).map(|_| CoreOp::alu()).collect();
        let mut core = core_running(CoreConfig::paper(), ops);
        let mut mem = FakeMem::new(1);
        let cycles = run(&mut core, &mut mem, 10_000);
        // 8-wide: at least n/8 cycles, and close to it.
        assert!(cycles as u64 >= n / 8);
        assert!(
            (cycles as u64) < n / 8 + 32,
            "ALUs should sustain full width"
        );
    }

    #[test]
    fn wait_flag_blocks_until_set() {
        let ops = vec![
            CoreOp::WaitFlag {
                flag: FlagId(0),
                spin: true,
            },
            CoreOp::alu(),
        ];
        let mut core = core_running(CoreConfig::paper(), ops);
        let mut flags = FlagBoard::new();
        let flag = flags.alloc();
        let mut mem = FakeMem::new(1);
        // Set the flag at cycle 500 from "outside".
        for now in 0..1000u64 {
            if now == 500 {
                flags.set(flag);
            }
            while let Some(seq) = mem.in_flight.pop_ready(now) {
                core.mem_complete(seq, now);
            }
            let inflight = &mut mem.in_flight;
            core.tick(now, &mut flags, &mut |iss| {
                inflight.push_at(now + 1, iss.seq);
            });
            if core.is_done() {
                assert!(now >= 500, "must not finish before the flag is set");
                assert!(core.stats().wait_cycles >= 400);
                assert!(core.stats().spin_instructions > 0);
                return;
            }
        }
        panic!("core never finished");
    }

    #[test]
    fn profile_attribution_is_mece() {
        // A dependent miss chain: most cycles are memory-latency shadows.
        let ops: Vec<CoreOp> = (0..8)
            .map(|i| {
                if i == 0 {
                    CoreOp::load(0, 0)
                } else {
                    CoreOp::load(i * 64, 0).with_dep(1)
                }
            })
            .collect();
        let mut core = core_running(CoreConfig::paper(), ops);
        core.enable_profile();
        let mut mem = FakeMem::new(100);
        run(&mut core, &mut mem, 10_000);
        let p = *core.profile().expect("profiling enabled");
        assert_eq!(
            p.attributed(),
            core.stats().cycles,
            "every live cycle must land in exactly one bucket: {p:?}"
        );
        assert!(p.active > 0);
        assert!(p.empty > 0, "latency shadows of a drained stream: {p:?}");
    }

    #[test]
    fn mmio_signals_delivered_in_order() {
        let ops = vec![
            CoreOp::Mmio {
                latency: 10,
                signal: None,
            },
            CoreOp::Mmio {
                latency: 10,
                signal: Some(42),
            },
            CoreOp::Mmio {
                latency: 10,
                signal: Some(43),
            },
        ];
        let mut core = core_running(CoreConfig::paper(), ops);
        let mut mem = FakeMem::new(1);
        let mut flags = FlagBoard::new();
        let mut signals = Vec::new();
        for now in 0..200u64 {
            core.tick(now, &mut flags, &mut |_| {});
            signals.extend(core.drain_mmio_signals());
            if core.is_done() {
                break;
            }
            let _ = &mut mem;
        }
        assert_eq!(signals, vec![42, 43]);
        assert_eq!(core.stats().instructions, 3);
    }

    #[test]
    fn set_flag_visible_to_other_waiters() {
        let mut flags = FlagBoard::new();
        let f = flags.alloc();
        let setter = vec![CoreOp::alu(), CoreOp::SetFlag { flag: f }];
        let waiter = vec![
            CoreOp::WaitFlag {
                flag: f,
                spin: false,
            },
            CoreOp::alu(),
        ];
        let mut c0 = core_running(CoreConfig::paper(), setter);
        let mut c1 = core_running(CoreConfig::paper(), waiter);
        for now in 0..100u64 {
            c0.tick(now, &mut flags, &mut |_| {});
            c1.tick(now, &mut flags, &mut |_| {});
            if c0.is_done() && c1.is_done() {
                return;
            }
        }
        panic!("flag handoff between cores failed");
    }
}
