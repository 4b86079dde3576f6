//! The Indirect Access unit (paper Section 3.2): Row Table, Word Table,
//! and the request generator that reorders, coalesces, and interleaves
//! bulk indirect accesses.
//!
//! * **Row Table** — one slice per DRAM bank (channel × rank × bank-group ×
//!   bank). A slice holds up to 64 row entries; each row entry holds up to 8
//!   column (cache-line) entries. Filling a tile populates the table; the
//!   request generator then drains each row's columns consecutively, so the
//!   DRAM controller sees long runs of same-row accesses.
//! * **Word Table** — per column entry, the list of tile elements (words)
//!   that live in that line, in insertion (= iteration) order. One line
//!   request serves all of them: coalescing.
//! * **Request generator** — walks slices in channel-fastest order so
//!   consecutive requests alternate DRAM channels and bank groups.
//!
//! Operation follows the paper's three stages: *fill* (translate, snoop the
//! directory for the H bit, insert into the tables), *request* (issue one
//! line access per column entry, directly to DRAM unless the H bit routes it
//! to the LLC), and *response* (walk the word list; extract words for ILD,
//! merge and write back for IST/IRMW).

use std::collections::VecDeque;

use dx100_common::hash::HashMap;
use dx100_common::{value, Addr, AluOp, Cycle, DType, LineAddr, ReqId};
use dx100_dram::{AddrMap, Organization};

use crate::config::Dx100Config;
use crate::controller::DispatchedInstr;
use crate::engine::{IdAlloc, UnitTag};
use crate::isa::{Instruction, TileId};
use crate::memimg::MemoryImage;
use crate::ports::MemPorts;
use crate::scratchpad::Scratchpad;
use crate::stats::Dx100Stats;
use crate::tlb::Tlb;

/// What an indirect job does with each word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IndKind {
    Load { td: TileId },
    Store { ts2: TileId },
    Rmw { op: AluOp, ts2: TileId },
}

/// One word in the Word Table: tile iteration number and its byte address.
#[derive(Debug, Clone, Copy)]
struct Word {
    i: usize,
    addr: Addr,
}

/// A column entry: one cache line plus its linked word list.
#[derive(Clone, Debug)]
struct ColEntry {
    /// Unique id, assigned in creation order.
    id: u64,
    job: u64,
    line: LineAddr,
    /// H bit: line was valid in the cache hierarchy at fill time.
    h: bool,
    sent: bool,
    sendable: bool,
    words: Vec<Word>,
}

/// A row entry: one DRAM row within a slice.
#[derive(Clone, Debug)]
struct RowEntry {
    row: u64,
    cols: Vec<ColEntry>,
}

/// One Row Table slice (one DRAM bank).
#[derive(Clone, Debug, Default)]
struct Slice {
    rows: Vec<RowEntry>,
    /// The row currently being drained, so its columns issue consecutively.
    active_row: Option<u64>,
    /// Columns that are sendable and not yet sent: the request stage's
    /// candidates. Updated with every `sendable`/`sent` change, so the
    /// request stage skips a slice with none without walking its rows.
    ready: usize,
}

impl Slice {
    /// Recounts [`Slice::ready`] from the rows (debug checks only).
    fn count_ready(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| r.cols.iter())
            .filter(|c| c.sendable && !c.sent)
            .count()
    }
}

#[derive(Clone, Debug)]
struct IndirectJob {
    d: DispatchedInstr,
    kind: IndKind,
    dtype: DType,
    base: Addr,
    ts1: TileId,
    tc: Option<TileId>,
    n: Option<usize>,
    next: usize,
    fill_done: bool,
    /// ILD: elements not yet produced/skipped.
    pending_elems: usize,
    /// Columns created and not yet fully processed.
    open_cols: usize,
    /// IST/IRMW: write requests issued and not yet acknowledged.
    writes_outstanding: usize,
    /// IST duplicate-index ordering: last applied iteration per address.
    last_applied: HashMap<Addr, usize>,
}

impl IndirectJob {
    fn done(&self) -> bool {
        self.fill_done
            && self.open_cols == 0
            && self.writes_outstanding == 0
            && (!matches!(self.kind, IndKind::Load { .. }) || self.pending_elems == 0)
    }
}

/// The timed Indirect Access unit.
#[derive(Clone, Debug)]
pub struct IndirectUnit {
    cfg: Dx100Config,
    org: Organization,
    map: AddrMap,
    jobs: VecDeque<IndirectJob>,
    slices: Vec<Slice>,
    /// Slice visit order for interleaving (channel fastest, then bank group).
    slice_order: Vec<usize>,
    rr: usize,
    /// Insertion-order issue queue used when reordering is disabled:
    /// (slice, line) pairs identifying columns.
    fifo: VecDeque<(usize, LineAddr, u64)>,
    next_col_id: u64,
    /// Read requests in flight: id → (slice index, column id).
    outstanding: HashMap<ReqId, (usize, u64)>,
    /// Write requests in flight: id → job handle.
    outstanding_writes: HashMap<ReqId, u64>,
    /// Write-backs waiting for request-buffer space: (line, h, job).
    pending_writes: VecDeque<(LineAddr, bool, u64)>,
    /// Line responses waiting for the Word Modifier.
    resp_queue: VecDeque<ReqId>,
    fill_stall_until: Cycle,
    /// Lines with open (unprocessed) column entries, and the owning job:
    /// a second job touching the same line stalls until the first job's
    /// column completes, preserving cross-instruction program order on
    /// same-address accesses.
    line_owners: HashMap<LineAddr, (u64, usize)>,
    /// Running count of column entries across all slices, so the per-cycle
    /// queue-depth probes ([`IndirectUnit::buffered_columns`]) are O(1)
    /// instead of walking the whole Row Table.
    buffered_cols: usize,
}

impl IndirectUnit {
    /// Creates the unit for a given DRAM organization/mapping (the Row Table
    /// geometry mirrors the physical bank layout).
    pub fn new(cfg: Dx100Config, org: Organization, map: AddrMap) -> Self {
        let num_slices = org.channels * org.banks_per_channel();
        // Channel varies fastest, then bank group, then bank: consecutive
        // requests interleave channels and bank groups.
        let mut slice_order = Vec::with_capacity(num_slices);
        for rank in 0..org.ranks {
            for bank in 0..org.banks_per_group {
                for bg in 0..org.bank_groups {
                    for ch in 0..org.channels {
                        let within = org.bank_index(rank, bg, bank);
                        slice_order.push(ch * org.banks_per_channel() + within);
                    }
                }
            }
        }
        IndirectUnit {
            cfg,
            org,
            map,
            jobs: VecDeque::new(),
            slices: (0..num_slices).map(|_| Slice::default()).collect(),
            slice_order,
            rr: 0,
            fifo: VecDeque::new(),
            next_col_id: 0,
            outstanding: HashMap::default(),
            outstanding_writes: HashMap::default(),
            pending_writes: VecDeque::new(),
            resp_queue: VecDeque::new(),
            fill_stall_until: 0,
            line_owners: HashMap::default(),
            buffered_cols: 0,
        }
    }

    /// Accepts a dispatched ILD/IST/IRMW.
    pub fn enqueue(&mut self, d: DispatchedInstr) {
        let (kind, dtype, base, ts1, tc) = match d.instr {
            Instruction::Ild {
                dtype,
                base,
                td,
                ts1,
                tc,
            } => (IndKind::Load { td }, dtype, base, ts1, tc),
            Instruction::Ist {
                dtype,
                base,
                ts1,
                ts2,
                tc,
            } => (IndKind::Store { ts2 }, dtype, base, ts1, tc),
            Instruction::Irmw {
                dtype,
                op,
                base,
                ts1,
                ts2,
                tc,
            } => (IndKind::Rmw { op, ts2 }, dtype, base, ts1, tc),
            ref other => unreachable!("non-indirect instruction {other:?} in indirect unit"),
        };
        self.jobs.push_back(IndirectJob {
            d,
            kind,
            dtype,
            base,
            ts1,
            tc,
            n: None,
            next: 0,
            fill_done: false,
            pending_elems: 0,
            open_cols: 0,
            writes_outstanding: 0,
            last_applied: HashMap::default(),
        });
    }

    /// Whether no job, column, or in-flight request remains.
    pub fn is_idle(&self) -> bool {
        self.jobs.is_empty()
            && self.outstanding.is_empty()
            && self.outstanding_writes.is_empty()
            && self.pending_writes.is_empty()
            && self.resp_queue.is_empty()
    }

    /// Queues a completed line/write acknowledgement for the Word Modifier.
    pub fn push_response(&mut self, id: ReqId) {
        self.resp_queue.push_back(id);
    }

    /// Whether the next tick's `fill_step` / `request_step` / `response_step`
    /// / `poll_retired` sequence would be a pure no-op given frozen
    /// scratchpad, response, and DRAM state (the engine's quiescence check).
    ///
    /// Conservative: anything the tick might mutate — TLB lookup counters,
    /// Row-Table stall stats, request ids consumed on refused DRAM requests,
    /// a stale active-row rotation — classifies as active.
    pub fn quiescent(&self, now: Cycle, spd: &Scratchpad) -> bool {
        if !self.resp_queue.is_empty() || !self.pending_writes.is_empty() {
            return false;
        }
        // poll_retired pops completed head jobs.
        if self.jobs.front().is_some_and(|j| j.done()) {
            return false;
        }
        self.fill_quiescent(now, spd) && self.request_quiescent()
    }

    /// The unit's only self-timed wakeup: expiry of the TLB-miss backoff,
    /// when a job still has elements to fill behind it.
    pub fn next_time_event(&self, now: Cycle) -> Option<Cycle> {
        (now < self.fill_stall_until && self.jobs.iter().any(|j| !j.fill_done))
            .then_some(self.fill_stall_until)
    }

    /// Whether `fill_step` would return without mutating anything.
    fn fill_quiescent(&self, now: Cycle, spd: &Scratchpad) -> bool {
        if now < self.fill_stall_until {
            return true; // TLB-miss backoff window
        }
        let Some(job) = self.jobs.iter().find(|j| !j.fill_done) else {
            return true; // every job has filled
        };
        let Some(n) = job.n else {
            // Sizing waits only while the index tile length is unknown.
            return spd.tile(job.ts1).len().is_none();
        };
        if job.next >= n {
            return false; // would mark the job fill-done
        }
        let i = job.next;
        // Chained on unfinished index / condition / store-value elements:
        // these gates sit before the TLB lookup, so the tick stays pure.
        if !spd.tile(job.ts1).finished(i) {
            return true;
        }
        if job.tc.is_some_and(|c| !spd.tile(c).finished(i)) {
            return true;
        }
        let value_tile = match job.kind {
            IndKind::Store { ts2 } | IndKind::Rmw { ts2, .. } => Some(ts2),
            IndKind::Load { .. } => None,
        };
        if value_tile.is_some_and(|t| !spd.tile(t).finished(i)) {
            return true;
        }
        // All gates pass: the tick would at least touch the TLB (and may
        // count a Row-Table stall), so it is not a no-op.
        false
    }

    /// Whether `request_step` would return without mutating anything. The
    /// caller has established `pending_writes` is empty (a pending write
    /// consumes a request id every tick, even when DRAM refuses it).
    fn request_quiescent(&self) -> bool {
        if self.outstanding.len() >= self.cfg.indirect_max_inflight {
            return true; // in-flight cap: pure structural stall
        }
        if !self.cfg.reorder {
            // Insertion order: quiescent only while the head column exists
            // and is not yet sendable (a sent or stale head would be popped).
            return match self.fifo.front() {
                None => true,
                Some(&(slice_idx, _, col_id)) => self
                    .col_by_id(slice_idx, col_id)
                    .is_some_and(|c| !c.sent && !c.sendable),
            };
        }
        // Reorder mode: `pick_in_slice` clears a stale active row (a
        // mutation), so quiescence needs every slice settled with nothing
        // sendable left unsent.
        self.debug_check_ready_counts();
        self.slices
            .iter()
            .all(|s| s.active_row.is_none() && s.ready == 0)
    }

    /// Checks every slice's [`Slice::ready`] against a recount.
    fn debug_check_ready_counts(&self) {
        debug_assert!(
            self.slices.iter().all(|s| s.ready == s.count_ready()),
            "sendable-column count drifted from the Row Table"
        );
    }

    /// Requests still draining: in-flight reads/writes plus responses queued
    /// for the Word Modifier (drives the `drain` trace phase).
    pub fn pending_responses(&self) -> usize {
        self.outstanding.len() + self.outstanding_writes.len() + self.resp_queue.len()
    }

    /// Column entries buffered in the Row Table, across all slices (the
    /// DX100 queue-depth signal epoch samplers report). O(1): probed every
    /// cycle by the profiler.
    pub fn buffered_columns(&self) -> usize {
        debug_assert_eq!(
            self.buffered_cols,
            self.slices
                .iter()
                .map(|s| s.rows.iter().map(|r| r.cols.len()).sum::<usize>())
                .sum::<usize>(),
            "buffered-column count drifted from the Row Table"
        );
        self.buffered_cols
    }

    /// Diagnostic summary of internal occupancy.
    pub fn debug_state(&self) -> String {
        let cols: usize = self
            .slices
            .iter()
            .map(|s| s.rows.iter().map(|r| r.cols.len()).sum::<usize>())
            .sum();
        let unsent: usize = self
            .slices
            .iter()
            .flat_map(|s| s.rows.iter())
            .flat_map(|r| r.cols.iter())
            .filter(|c| !c.sent)
            .count();
        let sendable: usize = self
            .slices
            .iter()
            .flat_map(|s| s.rows.iter())
            .flat_map(|r| r.cols.iter())
            .filter(|c| c.sendable && !c.sent)
            .count();
        format!(
            "jobs={} cols={} unsent={} sendable={} fifo={} outstanding={} owrites={} pwrites={} resps={} owners={}",
            self.jobs.len(), cols, unsent, sendable, self.fifo.len(),
            self.outstanding.len(), self.outstanding_writes.len(),
            self.pending_writes.len(), self.resp_queue.len(), self.line_owners.len()
        )
    }

    /// Fill stage: translate, snoop, insert into the Row/Word tables.
    pub fn fill_step(
        &mut self,
        now: Cycle,
        spd: &mut Scratchpad,
        ports: &mut dyn MemPorts,
        tlb: &mut Tlb,
        stats: &mut Dx100Stats,
    ) {
        if now < self.fill_stall_until {
            return;
        }
        // The first job that has not finished filling.
        let Some(job_idx) = self.jobs.iter().position(|j| !j.fill_done) else {
            return;
        };
        // Only begin a new job's fill once the previous job finished filling
        // (jobs fill strictly in order; draining overlaps).
        if job_idx > 0 && !self.jobs[job_idx - 1].fill_done {
            return;
        }
        for _ in 0..self.cfg.fill_rate {
            let job = &mut self.jobs[job_idx];
            if job.n.is_none() {
                let Some(n) = spd.tile(job.ts1).len() else {
                    return;
                };
                job.n = Some(n);
                if let IndKind::Load { td } = job.kind {
                    assert!(n <= spd.capacity(), "ILD source exceeds tile capacity");
                    spd.set_len(td, n);
                }
                job.pending_elems = n;
            }
            let n = job.n.unwrap();
            if job.next >= n {
                job.fill_done = true;
                let handle = job.d.handle;
                self.mark_job_sendable(handle);
                return;
            }
            let i = job.next;
            // Gate on source finish bits: index, condition, store value.
            if !spd.tile(job.ts1).finished(i) {
                return;
            }
            if job.tc.is_some_and(|c| !spd.tile(c).finished(i)) {
                return;
            }
            let value_tile = match job.kind {
                IndKind::Store { ts2 } | IndKind::Rmw { ts2, .. } => Some(ts2),
                IndKind::Load { .. } => None,
            };
            if value_tile.is_some_and(|t| !spd.tile(t).finished(i)) {
                return;
            }
            if job.tc.is_some_and(|c| spd.tile(c).get(i) == 0) {
                stats.condition_skips += 1;
                if let IndKind::Load { td } = job.kind {
                    spd.skip(td, i);
                    job.pending_elems -= 1;
                }
                job.next += 1;
                continue;
            }
            let idx = spd.tile(job.ts1).get(i);
            let addr = job.base + idx * job.dtype.size_bytes();
            if !tlb.lookup(addr) {
                stats.tlb_misses += 1;
                self.fill_stall_until = now + self.cfg.tlb_miss_latency;
                return;
            }
            stats.tlb_hits += 1;
            let line = LineAddr::containing(addr);
            let coord = self.map.decode(line, &self.org);
            let slice_idx =
                coord.channel * self.org.banks_per_channel() + coord.bank_index(&self.org);
            let handle = self.jobs[job_idx].d.handle;
            if !self.insert_word(
                slice_idx,
                coord.row,
                line,
                Word { i, addr },
                handle,
                ports,
                stats,
            ) {
                // Slice at capacity (or the line is pinned by an earlier
                // instruction). If any *other* job's columns still occupy
                // the slice, they are already sendable and draining — just
                // stall until space frees, preserving this tile's carefully
                // reordered issue. Only when the slice is full of the
                // current tile's own columns do we start draining it early
                // (the paper's capacity-pressure rule).
                let own_pressure = self.slices[slice_idx]
                    .rows
                    .iter()
                    .flat_map(|r| r.cols.iter())
                    .all(|c| c.job == handle);
                if own_pressure {
                    // "...or the Row Table reaches capacity": the capacity
                    // trigger drains the *whole table*, so the request
                    // generator sees an even, fully interleavable supply
                    // rather than just the slice the fill happened to jam.
                    self.mark_job_sendable(handle);
                }
                stats.rowtable_stall_cycles += 1;
                return;
            }
            self.jobs[job_idx].next += 1;
        }
    }

    /// Inserts one word; returns false when the slice is full or the line
    /// is pinned by an earlier instruction's outstanding column.
    #[allow(clippy::too_many_arguments)]
    fn insert_word(
        &mut self,
        slice_idx: usize,
        row: u64,
        line: LineAddr,
        word: Word,
        job: u64,
        ports: &mut dyn MemPorts,
        stats: &mut Dx100Stats,
    ) -> bool {
        // Cross-instruction same-line ordering: wait for the earlier job's
        // column to complete before touching the line.
        if let Some(&(owner, _)) = self.line_owners.get(&line) {
            if owner != job {
                return false;
            }
        }
        let cols_cap = self.cfg.cols_per_row_entry;
        let rows_cap = self.cfg.rows_per_slice;
        let slice = &mut self.slices[slice_idx];
        if self.cfg.coalesce {
            // Find a valid, unsent column for the same line and job.
            for r in slice.rows.iter_mut().filter(|r| r.row == row) {
                if let Some(col) = r
                    .cols
                    .iter_mut()
                    .find(|c| !c.sent && c.line == line && c.job == job)
                {
                    col.words.push(word);
                    stats.words_coalesced += 1;
                    return true;
                }
            }
        }
        // Need a new column entry: find a row entry with space.
        let h = if self.cfg.direct_dram {
            let hit = ports.snoop(line);
            if hit {
                stats.snoop_hits += 1;
            } else {
                stats.snoop_misses += 1;
            }
            hit
        } else {
            true // LLC-injection mode: everything goes through the cache
        };
        let col_id = self.next_col_id;
        self.next_col_id += 1;
        let col = ColEntry {
            id: col_id,
            job,
            line,
            h,
            sent: false,
            sendable: !self.cfg.reorder,
            words: vec![word],
        };
        let sendable = col.sendable;
        if let Some(r) = slice
            .rows
            .iter_mut()
            .find(|r| r.row == row && r.cols.len() < cols_cap)
        {
            r.cols.push(col);
        } else {
            if slice.rows.len() >= rows_cap {
                self.next_col_id -= 1; // roll back the unused id
                return false;
            }
            slice.rows.push(RowEntry {
                row,
                cols: vec![col],
            });
        }
        slice.ready += sendable as usize;
        self.buffered_cols += 1;
        if !self.cfg.reorder {
            self.fifo.push_back((slice_idx, line, col_id));
        }
        let owner = self.line_owners.entry(line).or_insert((job, 0));
        owner.1 += 1;
        let job_entry = self
            .jobs
            .iter_mut()
            .find(|j| j.d.handle == job)
            .expect("job for inserted word");
        job_entry.open_cols += 1;
        true
    }

    /// Marks every column of `job` sendable (tile fill complete).
    fn mark_job_sendable(&mut self, job: u64) {
        for slice in &mut self.slices {
            for row in &mut slice.rows {
                for col in &mut row.cols {
                    if col.job == job {
                        slice.ready += (!col.sendable && !col.sent) as usize;
                        col.sendable = true;
                    }
                }
            }
        }
    }

    /// Request stage: drain pending writes, then issue column reads in
    /// interleaved row order.
    pub fn request_step(
        &mut self,
        now: Cycle,
        ports: &mut dyn MemPorts,
        ids: &mut IdAlloc,
        stats: &mut Dx100Stats,
        requests_per_cycle: usize,
    ) {
        let mut budget = requests_per_cycle;
        // Writes first: they hold job retirement.
        while budget > 0 {
            let Some(&(line, h, job)) = self.pending_writes.front() else {
                break;
            };
            let id = ids.alloc(UnitTag::IndirectWrite);
            let accepted = if h {
                ports.llc_request(id, line, true, now);
                true
            } else {
                ports.dram_try_request(id, line, true, now)
            };
            if !accepted {
                ids.cancel(id);
                stats.reqbuf_stall_cycles += 1;
                return;
            }
            self.pending_writes.pop_front();
            self.outstanding_writes.insert(id, job);
            stats.indirect_line_writes += 1;
            budget -= 1;
        }
        if self.outstanding.len() >= self.cfg.indirect_max_inflight {
            return;
        }
        while budget > 0 {
            let Some((slice_idx, col_id)) = self.pick_column() else {
                break;
            };
            let (line, h) = {
                let col = self.col_by_id(slice_idx, col_id).expect("picked column");
                (col.line, col.h)
            };
            let id = ids.alloc(UnitTag::IndirectRead);
            let accepted = if h {
                ports.llc_request(id, line, false, now);
                true
            } else {
                ports.dram_try_request(id, line, false, now)
            };
            if !accepted {
                ids.cancel(id);
                stats.reqbuf_stall_cycles += 1;
                if !self.cfg.reorder {
                    // Insertion-order mode popped the candidate; put it
                    // back and retry next cycle (order must hold).
                    self.fifo.push_front((slice_idx, line, col_id));
                    return;
                }
                // Rewind the rotation so this column retries next cycle in
                // order; the buffer drains at DRAM speed regardless.
                self.rr = (self.rr + self.slice_order.len() - 1) % self.slice_order.len();
                return;
            }
            self.col_by_id_mut(slice_idx, col_id)
                .expect("picked column")
                .sent = true;
            // Picked columns are sendable and unsent.
            self.slices[slice_idx].ready -= 1;
            self.outstanding.insert(id, (slice_idx, col_id));
            stats.indirect_line_reads += 1;
            budget -= 1;
            if self.outstanding.len() >= self.cfg.indirect_max_inflight {
                return;
            }
        }
    }

    /// Chooses the next column to issue, honoring the reorder/interleave
    /// configuration. Returns (slice index, column id).
    fn pick_column(&mut self) -> Option<(usize, u64)> {
        if !self.cfg.reorder {
            // Strict insertion order.
            while let Some(&(slice_idx, line, col_id)) = self.fifo.front() {
                let _ = line;
                if self
                    .col_by_id(slice_idx, col_id)
                    .is_some_and(|c| !c.sent && c.sendable)
                {
                    self.fifo.pop_front();
                    return Some((slice_idx, col_id));
                }
                if self.col_by_id(slice_idx, col_id).is_none()
                    || self.col_by_id(slice_idx, col_id).is_some_and(|c| c.sent)
                {
                    self.fifo.pop_front();
                    continue;
                }
                return None; // head not sendable yet
            }
            return None;
        }
        self.debug_check_ready_counts();
        let num = self.slice_order.len();
        for step in 0..num {
            let pos = (self.rr + step) % num;
            let slice_idx = self.slice_order[pos];
            if let Some(col_id) = self.pick_in_slice(slice_idx) {
                if self.cfg.interleave {
                    // Advance past this slice so the next request goes to a
                    // different channel / bank group.
                    self.rr = (pos + 1) % num;
                } else {
                    // Stay on this slice until it drains completely.
                    self.rr = pos;
                }
                return Some((slice_idx, col_id));
            }
        }
        None
    }

    /// Finds the next sendable column in a slice, staying on the active row
    /// until it is fully issued (row-buffer locality).
    fn pick_in_slice(&mut self, slice_idx: usize) -> Option<u64> {
        let slice = &mut self.slices[slice_idx];
        if slice.ready == 0 {
            // The walk below would find nothing and only drop the active row.
            slice.active_row = None;
            return None;
        }
        if let Some(active) = slice.active_row {
            if let Some(id) = find_unsent(slice, active) {
                return Some(id);
            }
            slice.active_row = None;
        }
        // Pick the first row with any sendable, unsent column.
        let row_val = slice.rows.iter().find_map(|r| {
            r.cols
                .iter()
                .any(|c| c.sendable && !c.sent)
                .then_some(r.row)
        })?;
        slice.active_row = Some(row_val);
        find_unsent(slice, row_val)
    }

    fn col_by_id(&self, slice_idx: usize, col_id: u64) -> Option<&ColEntry> {
        self.slices[slice_idx]
            .rows
            .iter()
            .flat_map(|r| r.cols.iter())
            .find(|c| col_matches(c, col_id))
    }

    fn col_by_id_mut(&mut self, slice_idx: usize, col_id: u64) -> Option<&mut ColEntry> {
        self.slices[slice_idx]
            .rows
            .iter_mut()
            .flat_map(|r| r.cols.iter_mut())
            .find(|c| col_matches(c, col_id))
    }

    /// Response stage (Word Modifier): walk the word list, produce/merge,
    /// and schedule write-backs.
    pub fn response_step(
        &mut self,
        spd: &mut Scratchpad,
        mem: &mut MemoryImage,
        stats: &mut Dx100Stats,
    ) -> Vec<u64> {
        let mut retired = Vec::new();
        for _ in 0..self.cfg.responses_per_cycle {
            let Some(id) = self.resp_queue.pop_front() else {
                break;
            };
            if let Some(job_handle) = self.outstanding_writes.remove(&id) {
                if let Some(job) = self.jobs.iter_mut().find(|j| j.d.handle == job_handle) {
                    job.writes_outstanding -= 1;
                    if job.done() {
                        retired.push(job_handle);
                    }
                }
                continue;
            }
            let Some((slice_idx, col_id)) = self.outstanding.remove(&id) else {
                debug_assert!(false, "unknown indirect response {id}");
                continue;
            };
            let col = self
                .remove_col(slice_idx, col_id)
                .expect("column for response");
            let job = self
                .jobs
                .iter_mut()
                .find(|j| j.d.handle == col.job)
                .expect("job for column");
            match job.kind {
                IndKind::Load { td } => {
                    for w in &col.words {
                        spd.produce(td, w.i, mem.read(job.dtype, w.addr));
                    }
                    job.pending_elems -= col.words.len();
                    job.open_cols -= 1;
                }
                IndKind::Store { ts2 } => {
                    for w in &col.words {
                        // Duplicate indices: only ever move forward in
                        // iteration order so last-writer-wins is preserved
                        // even if two columns for one line complete out of
                        // order.
                        let apply = job.last_applied.get(&w.addr).is_none_or(|&last| w.i > last);
                        if apply {
                            let v = value::truncate(job.dtype, spd.tile(ts2).get(w.i));
                            mem.write(job.dtype, w.addr, v);
                            job.last_applied.insert(w.addr, w.i);
                        }
                    }
                    job.open_cols -= 1;
                    job.writes_outstanding += 1;
                    self.pending_writes.push_back((col.line, col.h, col.job));
                }
                IndKind::Rmw { op, ts2 } => {
                    for w in &col.words {
                        let old = mem.read(job.dtype, w.addr);
                        let new = value::alu(op, job.dtype, old, spd.tile(ts2).get(w.i));
                        mem.write(job.dtype, w.addr, new);
                    }
                    job.open_cols -= 1;
                    job.writes_outstanding += 1;
                    self.pending_writes.push_back((col.line, col.h, col.job));
                }
            }
            if job.done() {
                retired.push(job.d.handle);
            }
            let _ = stats;
        }
        // Drop retired jobs from the queue.
        for h in &retired {
            if let Some(pos) = self.jobs.iter().position(|j| j.d.handle == *h) {
                self.jobs.remove(pos);
            }
        }
        retired
    }

    /// Checks whether a load job with no remaining work can retire even
    /// without a final response (e.g. fully condition-gated tiles).
    pub fn poll_retired(&mut self) -> Vec<u64> {
        let mut retired = Vec::new();
        while let Some(job) = self.jobs.front() {
            if job.done() {
                retired.push(job.d.handle);
                self.jobs.pop_front();
            } else {
                break;
            }
        }
        retired
    }

    fn remove_col(&mut self, slice_idx: usize, col_id: u64) -> Option<ColEntry> {
        let slice = &mut self.slices[slice_idx];
        for r_idx in 0..slice.rows.len() {
            if let Some(c_idx) = slice.rows[r_idx]
                .cols
                .iter()
                .position(|c| col_matches(c, col_id))
            {
                let col = slice.rows[r_idx].cols.remove(c_idx);
                slice.ready -= (col.sendable && !col.sent) as usize;
                self.buffered_cols -= 1;
                if slice.rows[r_idx].cols.is_empty() {
                    slice.rows.remove(r_idx);
                }
                if let Some(owner) = self.line_owners.get_mut(&col.line) {
                    owner.1 -= 1;
                    if owner.1 == 0 {
                        self.line_owners.remove(&col.line);
                    }
                }
                return Some(col);
            }
        }
        None
    }
}

#[inline]
fn col_matches(c: &ColEntry, id: u64) -> bool {
    c.id == id
}

/// The first sendable, unsent column id in `row` of `slice`.
fn find_unsent(slice: &Slice, row: u64) -> Option<u64> {
    slice
        .rows
        .iter()
        .filter(|r| r.row == row)
        .flat_map(|r| r.cols.iter())
        .find(|c| c.sendable && !c.sent)
        .map(|c| c.id)
}
