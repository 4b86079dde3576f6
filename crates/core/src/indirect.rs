//! The Indirect Access unit (paper Section 3.2): Row Table, Word Table,
//! and the request generator that reorders, coalesces, and interleaves
//! bulk indirect accesses.
//!
//! * **Row Table** — one slice per DRAM bank (channel × rank × bank-group ×
//!   bank). A slice holds up to 64 row entries; each row entry holds up to 8
//!   column (cache-line) entries. Filling a tile populates the table; the
//!   request generator then drains each row's columns consecutively, so the
//!   DRAM controller sees long runs of same-row accesses. As in hardware,
//!   lookups are associative: a row index finds a slice's entries for a
//!   row, and a line index finds the column a word coalesces into.
//! * **Word Table** — per column entry, the list of tile elements (words)
//!   that live in that line, in insertion (= iteration) order, linked
//!   through one arena of entries. One line request serves all of them:
//!   coalescing.
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
use crate::engine::{IdAlloc, IdWindow, UnitTag};
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

/// Index into one of the unit's arenas (columns, row entries, words).
type Idx = u32;

/// The end of a list, or no entry.
const NIL: Idx = Idx::MAX;

/// One Word Table entry: a tile iteration number and its byte address,
/// linked to the next word of the same column.
#[derive(Debug, Clone, Copy)]
struct Word {
    i: u32,
    addr: Addr,
    next: Idx,
}

/// A column entry: one cache line plus its linked word list.
#[derive(Clone, Copy, Debug)]
struct ColEntry {
    job: u64,
    line: LineAddr,
    /// H bit: line was valid in the cache hierarchy at fill time.
    h: bool,
    sent: bool,
    sendable: bool,
    /// The slice and the row-entry slot that hold this column.
    slice: Idx,
    entry: Idx,
    /// First and last word of its Word Table list, and the list's length.
    first: Idx,
    last: Idx,
    words: u32,
}

impl ColEntry {
    /// A request-stage candidate: sendable and not yet sent.
    fn ready(&self) -> bool {
        self.sendable && !self.sent
    }
}

/// A row entry: one DRAM row within a slice. Its columns, in insertion
/// order, are the first `len` of its `cols_per_row_entry` slots in
/// [`Slice::col_slots`].
#[derive(Clone, Copy, Debug)]
struct RowEntry {
    row: u64,
    len: usize,
    /// How many of its columns are [`ColEntry::ready`].
    ready: usize,
    /// The next entry of the same row in this slice, in allocation order.
    next_same_row: Idx,
}

/// One Row Table slice (one DRAM bank), allocated at its full
/// `rows_per_slice` × `cols_per_row_entry` capacity.
#[derive(Clone, Debug)]
struct Slice {
    /// Row-entry slots; a freed slot is reused through `free`.
    entries: Vec<RowEntry>,
    free: Vec<Idx>,
    /// Column slots, `width` per row-entry slot.
    col_slots: Vec<Idx>,
    width: usize,
    /// The live slots in allocation order: the order rows are picked in.
    order: Vec<Idx>,
    /// The row currently being drained, so its columns issue consecutively.
    active_row: Option<u64>,
    /// Ready columns in the slice: the request stage skips a slice with
    /// none without looking at its rows.
    ready: usize,
    /// Columns in the slice.
    cols: usize,
    /// The job that last created a column here, and how many of the
    /// slice's columns it owns: the capacity-pressure test is whether the
    /// filling job owns all of them.
    filler: u64,
    filler_cols: usize,
}

impl Slice {
    fn new(rows: usize, cols_per_row: usize) -> Self {
        Slice {
            entries: Vec::with_capacity(rows),
            free: Vec::with_capacity(rows),
            col_slots: vec![NIL; rows * cols_per_row],
            width: cols_per_row,
            order: Vec::with_capacity(rows),
            active_row: None,
            ready: 0,
            cols: 0,
            filler: 0,
            filler_cols: 0,
        }
    }

    /// The columns of row-entry slot `e`, in insertion order.
    fn cols_of(&self, e: Idx) -> &[Idx] {
        let start = e as usize * self.width;
        &self.col_slots[start..start + self.entries[e as usize].len]
    }

    /// Recounts [`Slice::ready`] from the columns (debug checks only).
    fn count_ready(&self, cols: &[ColEntry]) -> usize {
        self.order
            .iter()
            .map(|&e| {
                let ready = self
                    .cols_of(e)
                    .iter()
                    .filter(|&&c| cols[c as usize].ready())
                    .count();
                debug_assert_eq!(ready, self.entries[e as usize].ready, "row entry drifted");
                ready
            })
            .sum()
    }
}

/// A line with columns in the Row Table.
#[derive(Clone, Copy, Debug)]
struct LineEntry {
    /// The job whose columns hold the line: a second job touching it stalls
    /// until they complete, preserving cross-instruction program order on
    /// same-address accesses.
    owner: u64,
    /// Columns for the line.
    cols: u32,
    /// Its newest column, the only one that can still be unsent and so
    /// take coalesced words (`NIL` once that column completes).
    newest: Idx,
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
    /// The row-entry CAM: `(row, slice)` as [`IndirectUnit::row_key`] → the
    /// slice's first entry for that row; later ones follow
    /// [`RowEntry::next_same_row`].
    row_heads: HashMap<u64, Idx>,
    /// Lines with columns in the Row Table.
    lines: HashMap<LineAddr, LineEntry>,
    /// Column arena and its free slots.
    cols: Vec<ColEntry>,
    free_cols: Vec<Idx>,
    /// Word Table arena, and the head of its free list (linked through
    /// [`Word::next`]). Both arenas only grow, so the Row Table's
    /// `rows_per_slice` × `cols_per_row_entry` stays the only modeled limit.
    words: Vec<Word>,
    free_words: Idx,
    /// Columns of the filling job not yet sendable, in creation order.
    unsendable: Vec<Idx>,
    /// Insertion-order issue queue used when reordering is disabled.
    fifo: VecDeque<Idx>,
    /// Read requests in flight: id → column.
    outstanding: IdWindow<Idx>,
    /// Write requests in flight: id → job handle.
    outstanding_writes: IdWindow<u64>,
    /// Write-backs waiting for request-buffer space: (line, h, job).
    pending_writes: VecDeque<(LineAddr, bool, u64)>,
    /// Line responses waiting for the Word Modifier.
    resp_queue: VecDeque<ReqId>,
    fill_stall_until: Cycle,
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
            slices: (0..num_slices)
                .map(|_| Slice::new(cfg.rows_per_slice, cfg.cols_per_row_entry))
                .collect(),
            cfg,
            org,
            map,
            jobs: VecDeque::new(),
            slice_order,
            rr: 0,
            row_heads: HashMap::default(),
            lines: HashMap::default(),
            cols: Vec::new(),
            free_cols: Vec::new(),
            words: Vec::new(),
            free_words: NIL,
            unsendable: Vec::new(),
            fifo: VecDeque::new(),
            outstanding: IdWindow::default(),
            outstanding_writes: IdWindow::default(),
            pending_writes: VecDeque::new(),
            resp_queue: VecDeque::new(),
            fill_stall_until: 0,
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
            // Insertion order: quiescent while the queue is empty or its head
            // is not yet sendable (a sendable head would be issued).
            return self
                .fifo
                .front()
                .is_none_or(|&c| !self.cols[c as usize].sendable);
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
            self.slices
                .iter()
                .all(|s| s.ready == s.count_ready(&self.cols)),
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
        let live = self.cols.len() - self.free_cols.len();
        debug_assert_eq!(
            live,
            self.slices.iter().map(|s| s.cols).sum::<usize>(),
            "buffered-column count drifted from the Row Table"
        );
        live
    }

    /// The live columns, slice by slice in row-entry order.
    fn live_cols(&self) -> impl Iterator<Item = &ColEntry> {
        self.slices.iter().flat_map(move |s| {
            s.order
                .iter()
                .flat_map(move |&e| s.cols_of(e).iter().map(move |&c| &self.cols[c as usize]))
        })
    }

    /// Diagnostic summary of internal occupancy.
    pub fn debug_state(&self) -> String {
        let unsent = self.live_cols().filter(|c| !c.sent).count();
        let sendable = self.live_cols().filter(|c| c.ready()).count();
        format!(
            "jobs={} cols={} unsent={} sendable={} fifo={} outstanding={} owrites={} pwrites={} resps={} owners={}",
            self.jobs.len(), self.buffered_columns(), unsent, sendable, self.fifo.len(),
            self.outstanding.len(), self.outstanding_writes.len(),
            self.pending_writes.len(), self.resp_queue.len(), self.lines.len()
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
            if !self.insert_word(slice_idx, coord.row, line, (i, addr), job_idx, ports, stats) {
                // Slice at capacity (or the line is pinned by an earlier
                // instruction). If any *other* job's columns still occupy
                // the slice, they are already sendable and draining — just
                // stall until space frees, preserving this tile's carefully
                // reordered issue. Only when the slice is full of the
                // current tile's own columns do we start draining it early
                // (the paper's capacity-pressure rule).
                let handle = self.jobs[job_idx].d.handle;
                let slice = &self.slices[slice_idx];
                let own = if slice.filler == handle {
                    slice.filler_cols
                } else {
                    0
                };
                if slice.cols == own {
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

    /// Inserts one word of job `jobs[job_idx]`; returns false when the
    /// slice is full or the line is pinned by an earlier instruction's
    /// outstanding column.
    #[allow(clippy::too_many_arguments)]
    fn insert_word(
        &mut self,
        slice_idx: usize,
        row: u64,
        line: LineAddr,
        (i, addr): (usize, Addr),
        job_idx: usize,
        ports: &mut dyn MemPorts,
        stats: &mut Dx100Stats,
    ) -> bool {
        let job = self.jobs[job_idx].d.handle;
        // Cross-instruction same-line ordering: wait for the earlier job's
        // columns to complete before touching the line.
        let newest = match self.lines.get(&line) {
            Some(l) if l.owner != job => return false,
            Some(l) => l.newest,
            None => NIL,
        };
        // Coalesce into the line's unsent column (the job's, as it owns the
        // line).
        if self.cfg.coalesce && newest != NIL && !self.cols[newest as usize].sent {
            self.push_word(newest, i, addr);
            stats.words_coalesced += 1;
            return true;
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
        let entry = match self.entry_with_space(slice_idx, row) {
            Some(e) => e,
            None if self.slices[slice_idx].order.len() >= self.cfg.rows_per_slice => {
                return false;
            }
            None => self.new_entry(slice_idx, row),
        };
        let sendable = !self.cfg.reorder;
        let col = ColEntry {
            job,
            line,
            h,
            sent: false,
            sendable,
            slice: slice_idx as Idx,
            entry,
            first: NIL,
            last: NIL,
            words: 0,
        };
        let col = match self.free_cols.pop() {
            Some(c) => {
                self.cols[c as usize] = col;
                c
            }
            None => {
                self.cols.push(col);
                (self.cols.len() - 1) as Idx
            }
        };
        self.push_word(col, i, addr);
        let slice = &mut self.slices[slice_idx];
        let e = &mut slice.entries[entry as usize];
        slice.col_slots[entry as usize * slice.width + e.len] = col;
        e.len += 1;
        e.ready += sendable as usize;
        slice.ready += sendable as usize;
        slice.cols += 1;
        if slice.filler != job {
            slice.filler = job;
            slice.filler_cols = 0;
        }
        slice.filler_cols += 1;
        if sendable {
            self.fifo.push_back(col); // insertion order: reordering is off
        } else {
            self.unsendable.push(col);
        }
        let l = self.lines.entry(line).or_insert(LineEntry {
            owner: job,
            cols: 0,
            newest: NIL,
        });
        l.cols += 1;
        l.newest = col;
        self.jobs[job_idx].open_cols += 1;
        true
    }

    /// Appends a word to column `col`'s Word Table list.
    fn push_word(&mut self, col: Idx, i: usize, addr: Addr) {
        let word = Word {
            i: i as u32,
            addr,
            next: NIL,
        };
        let w = if self.free_words == NIL {
            self.words.push(word);
            (self.words.len() - 1) as Idx
        } else {
            let w = self.free_words;
            self.free_words = self.words[w as usize].next;
            self.words[w as usize] = word;
            w
        };
        let c = &mut self.cols[col as usize];
        if c.last == NIL {
            c.first = w;
        } else {
            self.words[c.last as usize].next = w;
        }
        c.last = w;
        c.words += 1;
    }

    /// The CAM key of `row` in slice `slice_idx`.
    fn row_key(&self, slice_idx: usize, row: u64) -> u64 {
        row * self.slices.len() as u64 + slice_idx as u64
    }

    /// The first entry for `row`, in allocation order, that has room for
    /// another column.
    fn entry_with_space(&self, slice_idx: usize, row: u64) -> Option<Idx> {
        let slice = &self.slices[slice_idx];
        let mut e = *self.row_heads.get(&self.row_key(slice_idx, row))?;
        while e != NIL {
            let entry = &slice.entries[e as usize];
            if entry.len < slice.width {
                return Some(e);
            }
            e = entry.next_same_row;
        }
        None
    }

    /// Allocates a row entry for `row` at the end of the slice's order.
    fn new_entry(&mut self, slice_idx: usize, row: u64) -> Idx {
        let key = self.row_key(slice_idx, row);
        let slice = &mut self.slices[slice_idx];
        let entry = RowEntry {
            row,
            len: 0,
            ready: 0,
            next_same_row: NIL,
        };
        let e = match slice.free.pop() {
            Some(e) => {
                slice.entries[e as usize] = entry;
                e
            }
            None => {
                slice.entries.push(entry);
                (slice.entries.len() - 1) as Idx
            }
        };
        slice.order.push(e);
        match self.row_heads.entry(key) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(e);
            }
            std::collections::hash_map::Entry::Occupied(o) => {
                let mut last = *o.get();
                while slice.entries[last as usize].next_same_row != NIL {
                    last = slice.entries[last as usize].next_same_row;
                }
                slice.entries[last as usize].next_same_row = e;
            }
        }
        e
    }

    /// Frees an emptied row entry, keeping the order of the others.
    fn free_entry(&mut self, slice_idx: usize, e: Idx) {
        let key = self.row_key(slice_idx, self.slices[slice_idx].entries[e as usize].row);
        let slice = &mut self.slices[slice_idx];
        let pos = slice
            .order
            .iter()
            .position(|&x| x == e)
            .expect("live row entry");
        slice.order.remove(pos);
        slice.free.push(e);
        let next = slice.entries[e as usize].next_same_row;
        let head = self.row_heads.get_mut(&key).expect("indexed row");
        if *head == e {
            if next == NIL {
                self.row_heads.remove(&key);
            } else {
                *head = next;
            }
            return;
        }
        let mut prev = *head;
        while slice.entries[prev as usize].next_same_row != e {
            prev = slice.entries[prev as usize].next_same_row;
        }
        slice.entries[prev as usize].next_same_row = next;
    }

    /// Marks every column of `job` sendable (tile fill complete). Only the
    /// filling job has unsendable columns: an earlier job's were all marked
    /// when it finished filling.
    fn mark_job_sendable(&mut self, job: u64) {
        for c in self.unsendable.drain(..) {
            let col = &mut self.cols[c as usize];
            debug_assert!(col.job == job && !col.sendable && !col.sent);
            col.sendable = true;
            let slice = &mut self.slices[col.slice as usize];
            slice.ready += 1;
            slice.entries[col.entry as usize].ready += 1;
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
            let Some(c) = self.pick_column() else {
                break;
            };
            let col = &self.cols[c as usize];
            let (line, h) = (col.line, col.h);
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
                    self.fifo.push_front(c);
                    return;
                }
                // Rewind the rotation so this column retries next cycle in
                // order; the buffer drains at DRAM speed regardless.
                self.rr = (self.rr + self.slice_order.len() - 1) % self.slice_order.len();
                return;
            }
            // Picked columns are ready: sendable and unsent.
            let col = &mut self.cols[c as usize];
            col.sent = true;
            let slice = &mut self.slices[col.slice as usize];
            slice.ready -= 1;
            slice.entries[col.entry as usize].ready -= 1;
            self.outstanding.insert(id, c);
            stats.indirect_line_reads += 1;
            budget -= 1;
            if self.outstanding.len() >= self.cfg.indirect_max_inflight {
                return;
            }
        }
    }

    /// Chooses the next column to issue, honoring the reorder/interleave
    /// configuration.
    fn pick_column(&mut self) -> Option<Idx> {
        if !self.cfg.reorder {
            // Strict insertion order. The queue holds only unsent columns:
            // one leaves it when picked and returns to its head if refused.
            let &c = self.fifo.front()?;
            debug_assert!(!self.cols[c as usize].sent);
            if !self.cols[c as usize].sendable {
                return None; // head not sendable yet
            }
            self.fifo.pop_front();
            return Some(c);
        }
        self.debug_check_ready_counts();
        let num = self.slice_order.len();
        for step in 0..num {
            let pos = (self.rr + step) % num;
            let slice_idx = self.slice_order[pos];
            if let Some(c) = self.pick_in_slice(slice_idx) {
                if self.cfg.interleave {
                    // Advance past this slice so the next request goes to a
                    // different channel / bank group.
                    self.rr = (pos + 1) % num;
                } else {
                    // Stay on this slice until it drains completely.
                    self.rr = pos;
                }
                return Some(c);
            }
        }
        None
    }

    /// Finds the next ready column in a slice, staying on the active row
    /// until it is fully issued (row-buffer locality).
    fn pick_in_slice(&mut self, slice_idx: usize) -> Option<Idx> {
        let slice = &mut self.slices[slice_idx];
        if slice.ready == 0 {
            slice.active_row = None;
            return None;
        }
        if let Some(active) = slice.active_row {
            let mut e = self
                .row_heads
                .get(&self.row_key(slice_idx, active))
                .copied()
                .unwrap_or(NIL);
            let slice = &self.slices[slice_idx];
            while e != NIL {
                let entry = &slice.entries[e as usize];
                if entry.ready > 0 {
                    return Some(self.first_ready(slice, e));
                }
                e = entry.next_same_row;
            }
            self.slices[slice_idx].active_row = None;
        }
        // The first row entry with a ready column becomes the active row.
        let slice = &self.slices[slice_idx];
        let e = *slice
            .order
            .iter()
            .find(|&&e| slice.entries[e as usize].ready > 0)
            .expect("a ready column sits in a row entry");
        let (row, c) = (slice.entries[e as usize].row, self.first_ready(slice, e));
        self.slices[slice_idx].active_row = Some(row);
        Some(c)
    }

    /// The first ready column of row entry `e`, which has one.
    fn first_ready(&self, slice: &Slice, e: Idx) -> Idx {
        *slice
            .cols_of(e)
            .iter()
            .find(|&&c| self.cols[c as usize].ready())
            .expect("row entry counts a ready column")
    }

    /// Response stage (Word Modifier): walk the word list, produce/merge,
    /// and schedule write-backs. Appends the handles of jobs that retired to
    /// `retired`.
    pub fn response_step(
        &mut self,
        spd: &mut Scratchpad,
        mem: &mut MemoryImage,
        retired: &mut Vec<u64>,
    ) {
        let first_retired = retired.len();
        for _ in 0..self.cfg.responses_per_cycle {
            let Some(id) = self.resp_queue.pop_front() else {
                break;
            };
            if let Some(job_handle) = self.outstanding_writes.remove(id) {
                if let Some(job) = self.jobs.iter_mut().find(|j| j.d.handle == job_handle) {
                    job.writes_outstanding -= 1;
                    if job.done() {
                        retired.push(job_handle);
                    }
                }
                continue;
            }
            let Some(c) = self.outstanding.remove(id) else {
                debug_assert!(false, "unknown indirect response {id}");
                continue;
            };
            let col = self.remove_col(c);
            let job = self
                .jobs
                .iter_mut()
                .find(|j| j.d.handle == col.job)
                .expect("job for column");
            let words = &self.words;
            let col_words =
                std::iter::successors((col.first != NIL).then(|| words[col.first as usize]), |w| {
                    (w.next != NIL).then(|| words[w.next as usize])
                })
                .map(|w| (w.i as usize, w.addr));
            match job.kind {
                IndKind::Load { td } => {
                    for (i, addr) in col_words {
                        spd.produce(td, i, mem.read(job.dtype, addr));
                    }
                    job.pending_elems -= col.words as usize;
                    job.open_cols -= 1;
                }
                IndKind::Store { ts2 } => {
                    for (i, addr) in col_words {
                        // Duplicate indices: only ever move forward in
                        // iteration order so last-writer-wins is preserved
                        // even if two columns for one line complete out of
                        // order.
                        let apply = job.last_applied.get(&addr).is_none_or(|&last| i > last);
                        if apply {
                            let v = value::truncate(job.dtype, spd.tile(ts2).get(i));
                            mem.write(job.dtype, addr, v);
                            job.last_applied.insert(addr, i);
                        }
                    }
                    job.open_cols -= 1;
                    job.writes_outstanding += 1;
                    self.pending_writes.push_back((col.line, col.h, col.job));
                }
                IndKind::Rmw { op, ts2 } => {
                    for (i, addr) in col_words {
                        let old = mem.read(job.dtype, addr);
                        let new = value::alu(op, job.dtype, old, spd.tile(ts2).get(i));
                        mem.write(job.dtype, addr, new);
                    }
                    job.open_cols -= 1;
                    job.writes_outstanding += 1;
                    self.pending_writes.push_back((col.line, col.h, col.job));
                }
            }
            if job.done() {
                retired.push(job.d.handle);
            }
            // Return the column and its word list to the arenas.
            self.words[col.last as usize].next = self.free_words;
            self.free_words = col.first;
            self.free_cols.push(c);
        }
        // Drop retired jobs from the queue.
        for h in &retired[first_retired..] {
            if let Some(pos) = self.jobs.iter().position(|j| j.d.handle == *h) {
                self.jobs.remove(pos);
            }
        }
    }

    /// Retires head load jobs with no remaining work even without a final
    /// response (e.g. fully condition-gated tiles), appending their handles
    /// to `retired`.
    pub fn poll_retired(&mut self, retired: &mut Vec<u64>) {
        while let Some(job) = self.jobs.front() {
            if job.done() {
                retired.push(job.d.handle);
                self.jobs.pop_front();
            } else {
                break;
            }
        }
    }

    /// Unlinks a completed (sent) column from its row entry, slice and line,
    /// and returns it; its arena slot and words stay allocated until the
    /// caller has read them.
    fn remove_col(&mut self, c: Idx) -> ColEntry {
        let col = self.cols[c as usize];
        debug_assert!(col.sent, "only a sent column completes");
        let slice_idx = col.slice as usize;
        let slice = &mut self.slices[slice_idx];
        let pos = slice
            .cols_of(col.entry)
            .iter()
            .position(|&x| x == c)
            .expect("column in its row entry");
        let start = col.entry as usize * slice.width;
        let entry = &mut slice.entries[col.entry as usize];
        slice
            .col_slots
            .copy_within(start + pos + 1..start + entry.len, start + pos);
        entry.len -= 1;
        let emptied = entry.len == 0;
        slice.cols -= 1;
        if slice.filler == col.job {
            slice.filler_cols -= 1;
        }
        if emptied {
            self.free_entry(slice_idx, col.entry);
        }
        let l = self
            .lines
            .get_mut(&col.line)
            .expect("line of a live column");
        l.cols -= 1;
        if l.newest == c {
            l.newest = NIL;
        }
        if l.cols == 0 {
            self.lines.remove(&col.line);
        }
        col
    }
}
