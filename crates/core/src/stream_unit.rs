//! The Stream Access unit: tile-granular streaming loads and stores through
//! the LLC (paper Section 3.3).
//!
//! Streaming accesses have high spatial locality, so they are injected into
//! the LLC via the Cache Interface. A Request-Table (MSHR-like, 128 entries)
//! tracks outstanding lines and coalesces the elements that share one.

use std::collections::VecDeque;

use dx100_common::hash::HashMap;
use dx100_common::{Addr, Cycle, DType, LineAddr, ReqId};

use crate::controller::DispatchedInstr;
use crate::engine::IdAlloc;
use crate::isa::{Instruction, TileId};
use crate::memimg::MemoryImage;
use crate::ports::MemPorts;
use crate::scratchpad::Scratchpad;
use crate::stats::Dx100Stats;

#[derive(Clone, Debug)]
struct LineReq {
    elems: Vec<(usize, Addr)>,
    is_write: bool,
}

#[derive(Clone, Debug)]
struct StreamJob {
    d: DispatchedInstr,
    next: usize,
    produced: usize,
    skipped: usize,
    acked: usize,
    sized: bool,
    /// Write accumulation: the line currently being composed.
    current_write: Option<(LineAddr, Vec<(usize, Addr)>)>,
}

impl StreamJob {
    fn count(&self) -> usize {
        self.d.r3 as usize
    }

    fn fields(&self) -> (DType, Addr, Option<TileId>, Option<TileId>, Option<TileId>) {
        match self.d.instr {
            Instruction::Sld {
                dtype,
                base,
                td,
                tc,
                ..
            } => (dtype, base, Some(td), None, tc),
            Instruction::Sst {
                dtype,
                base,
                ts,
                tc,
                ..
            } => (dtype, base, None, Some(ts), tc),
            ref other => unreachable!("non-stream instruction {other:?} in stream unit"),
        }
    }

    fn done(&self) -> bool {
        let n = self.count();
        match self.d.instr {
            Instruction::Sld { .. } => self.next >= n && self.produced + self.skipped >= n,
            Instruction::Sst { .. } => {
                self.next >= n && self.acked + self.skipped >= n && self.current_write.is_none()
            }
            _ => unreachable!(),
        }
    }
}

/// The timed Stream Access unit.
#[derive(Clone, Debug)]
pub struct StreamUnit {
    rate: usize,
    table_cap: usize,
    queue: VecDeque<StreamJob>,
    outstanding: HashMap<ReqId, LineReq>,
    inflight_lines: HashMap<LineAddr, ReqId>,
    /// Emptied element lists of completed line requests, reused by new ones.
    spare: Vec<Vec<(usize, Addr)>>,
}

impl StreamUnit {
    /// Creates a unit processing `rate` elements/cycle with a
    /// `table_cap`-entry Request Table.
    pub fn new(rate: usize, table_cap: usize) -> Self {
        StreamUnit {
            rate,
            table_cap,
            queue: VecDeque::new(),
            outstanding: HashMap::default(),
            inflight_lines: HashMap::default(),
            spare: Vec::new(),
        }
    }

    /// Accepts a dispatched SLD/SST.
    pub fn enqueue(&mut self, d: DispatchedInstr) {
        self.queue.push_back(StreamJob {
            d,
            next: 0,
            produced: 0,
            skipped: 0,
            acked: 0,
            sized: false,
            current_write: None,
        });
    }

    /// Whether no job or outstanding line remains.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.outstanding.is_empty()
    }

    /// Whether the next `step` would be a pure no-op given frozen scratchpad
    /// and response state (used by the engine's quiescence check).
    pub fn quiescent(&self, spd: &Scratchpad) -> bool {
        let Some(job) = self.queue.front() else {
            return true;
        };
        if !job.sized {
            return false; // step would size the destination tile
        }
        let (dtype, base, td, ts, tc) = job.fields();
        let count = job.count();
        if job.next >= count {
            // Only the final write flush (or retirement) remains.
            if job.current_write.is_some() {
                return self.outstanding.len() >= self.table_cap;
            }
            return !job.done();
        }
        let i = job.next;
        if tc.is_some_and(|c| !spd.tile(c).finished(i)) {
            return true; // chained on an unfinished condition element
        }
        if let Some(ts) = ts {
            if !spd.tile(ts).finished(i) {
                return true; // chained on an unfinished store value
            }
        }
        if tc.is_some_and(|c| spd.tile(c).get(i) == 0) {
            return false; // step would record a condition skip
        }
        let addr = base + (job.d.r1 + i as u64 * job.d.r2) * dtype.size_bytes();
        let line = LineAddr::containing(addr);
        match (td, ts) {
            // Load: coalescing onto an in-flight line is progress; otherwise
            // only a full Request Table blocks the element.
            (Some(_), None) => {
                !self.inflight_lines.contains_key(&line) && self.outstanding.len() >= self.table_cap
            }
            // Store: a full table blocks only the flush of a completed line;
            // composing onto the current line is always progress.
            (None, Some(_)) => {
                job.current_write.as_ref().is_some_and(|(l, _)| *l != line)
                    && self.outstanding.len() >= self.table_cap
            }
            _ => false,
        }
    }

    /// Processes up to `rate` elements of the head job.
    pub fn step(
        &mut self,
        now: Cycle,
        spd: &mut Scratchpad,
        mem: &mut MemoryImage,
        ports: &mut dyn MemPorts,
        ids: &mut IdAlloc,
        stats: &mut Dx100Stats,
    ) -> Option<u64> {
        let job = self.queue.front_mut()?;
        let (dtype, base, td, ts, tc) = job.fields();
        let count = job.count();
        if !job.sized {
            if let Some(td) = td {
                // A count beyond capacity is a program bug; surface loudly.
                assert!(count <= spd.capacity(), "SLD count exceeds tile capacity");
                spd.set_len(td, count);
            }
            job.sized = true;
        }
        let (start, stride) = (job.d.r1, job.d.r2);
        let esize = dtype.size_bytes();
        for _ in 0..self.rate {
            if job.next >= count {
                break;
            }
            let i = job.next;
            // Gate on the condition tile (and for stores, the value tile).
            if tc.is_some_and(|c| !spd.tile(c).finished(i)) {
                break;
            }
            if let Some(ts) = ts {
                if !spd.tile(ts).finished(i) {
                    break;
                }
            }
            let gated = tc.is_some_and(|c| spd.tile(c).get(i) == 0);
            let addr = base + (start + i as u64 * stride) * esize;
            let line = LineAddr::containing(addr);
            match (td, ts) {
                // Streaming load.
                (Some(td), None) => {
                    if gated {
                        spd.skip(td, i);
                        job.skipped += 1;
                        job.next += 1;
                        stats.condition_skips += 1;
                        continue;
                    }
                    if let Some(&rid) = self.inflight_lines.get(&line) {
                        self.outstanding
                            .get_mut(&rid)
                            .expect("inflight line without request")
                            .elems
                            .push((i, addr));
                        job.next += 1;
                        continue;
                    }
                    if self.outstanding.len() >= self.table_cap {
                        break; // Request Table full: structural stall.
                    }
                    let rid = ids.alloc();
                    let mut elems = self.spare.pop().unwrap_or_default();
                    elems.push((i, addr));
                    self.outstanding.insert(
                        rid,
                        LineReq {
                            elems,
                            is_write: false,
                        },
                    );
                    self.inflight_lines.insert(line, rid);
                    ports.llc_request(rid, line, false, now);
                    stats.stream_line_requests += 1;
                    job.next += 1;
                }
                // Streaming store.
                (None, Some(ts)) => {
                    if gated {
                        job.skipped += 1;
                        job.next += 1;
                        stats.condition_skips += 1;
                        continue;
                    }
                    // Flush the composed line if this element starts a new one.
                    if job.current_write.as_ref().is_some_and(|(l, _)| *l != line) {
                        if self.outstanding.len() >= self.table_cap {
                            break;
                        }
                        let (l, elems) = job.current_write.take().unwrap();
                        let rid = ids.alloc();
                        self.outstanding.insert(
                            rid,
                            LineReq {
                                elems,
                                is_write: true,
                            },
                        );
                        ports.llc_request(rid, l, true, now);
                        stats.stream_line_requests += 1;
                    }
                    // The data value is committed to memory at issue time
                    // (DX100 is the only writer inside the ROI).
                    let v = dx100_common::value::truncate(dtype, spd.tile(ts).get(i));
                    mem.write(dtype, addr, v);
                    job.current_write
                        .get_or_insert_with(|| (line, self.spare.pop().unwrap_or_default()))
                        .1
                        .push((i, addr));
                    job.next += 1;
                }
                _ => unreachable!(),
            }
        }
        // Flush the final composed write line once the loop is exhausted.
        if job.next >= count {
            if let Some((l, elems)) = job.current_write.take() {
                if self.outstanding.len() < self.table_cap {
                    let rid = ids.alloc();
                    self.outstanding.insert(
                        rid,
                        LineReq {
                            elems,
                            is_write: true,
                        },
                    );
                    ports.llc_request(rid, l, true, now);
                    stats.stream_line_requests += 1;
                } else {
                    job.current_write = Some((l, elems)); // retry next cycle
                }
            }
        }
        self.try_retire(spd)
    }

    /// Handles a completed line. Returns the handle of a job that finished.
    pub fn on_response(
        &mut self,
        id: ReqId,
        spd: &mut Scratchpad,
        mem: &MemoryImage,
    ) -> Option<u64> {
        let mut req = self
            .outstanding
            .remove(&id)
            .expect("unknown stream response");
        let job = self.queue.front_mut().expect("response without a job");
        let (dtype, _, td, _, _) = job.fields();
        if req.is_write {
            job.acked += req.elems.len();
        } else {
            let td = td.expect("read response on a store job");
            for (i, addr) in &req.elems {
                spd.produce(td, *i, mem.read(dtype, *addr));
            }
            job.produced += req.elems.len();
            if let Some((line, _)) = req
                .elems
                .first()
                .map(|(i, a)| (LineAddr::containing(*a), i))
            {
                self.inflight_lines.remove(&line);
            }
        }
        req.elems.clear();
        self.spare.push(req.elems);
        self.try_retire(spd)
    }

    fn try_retire(&mut self, _spd: &mut Scratchpad) -> Option<u64> {
        if self.queue.front().is_some_and(|j| j.done()) {
            let job = self.queue.pop_front().unwrap();
            Some(job.d.handle)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Dx100Config;
    use crate::isa::RegId;
    use crate::ports::TestPorts;

    const T0: TileId = TileId::new(0);
    const T1: TileId = TileId::new(1);

    fn sld_job(base: Addr, start: u64, stride: u64, count: u64) -> DispatchedInstr {
        DispatchedInstr {
            handle: 1,
            instr: Instruction::sld(
                DType::U32,
                base,
                T0,
                RegId::new(0),
                RegId::new(1),
                RegId::new(2),
            ),
            r1: start,
            r2: stride,
            r3: count,
            flag: None,
        }
    }

    fn drive(
        unit: &mut StreamUnit,
        spd: &mut Scratchpad,
        mem: &mut MemoryImage,
        ports: &mut TestPorts,
        ids: &mut IdAlloc,
        cycles: Cycle,
    ) -> Option<u64> {
        let mut stats = Dx100Stats::default();
        for now in 0..cycles {
            while let Some(id) = ports.pop_ready(now) {
                if let Some(h) = unit.on_response(id, spd, mem) {
                    return Some(h);
                }
            }
            if let Some(h) = unit.step(now, spd, mem, ports, ids, &mut stats) {
                return Some(h);
            }
        }
        None
    }

    #[test]
    fn streaming_load_coalesces_lines() {
        let mut mem = MemoryImage::new();
        let a = mem.alloc("a", DType::U32, 64);
        for i in 0..64 {
            mem.write_elem(a, i, i * 3);
        }
        let cfg = Dx100Config::paper();
        let mut spd = Scratchpad::new(2, 64);
        spd.begin_produce_unsized(T0);
        let mut unit = StreamUnit::new(cfg.stream_rate, cfg.request_table_entries);
        let mut ports = TestPorts::new(10);
        let mut ids = IdAlloc::default();
        unit.enqueue(sld_job(a.base(), 0, 1, 64));
        let h = drive(&mut unit, &mut spd, &mut mem, &mut ports, &mut ids, 500);
        assert_eq!(h, Some(1));
        // 64 u32 elements = 256 B = 4 cache lines.
        assert_eq!(ports.issued.len(), 4);
        assert_eq!(spd.tile(T0).get(10), 30);
        assert!(unit.is_idle());
    }

    #[test]
    fn streaming_store_writes_memory() {
        let mut mem = MemoryImage::new();
        let a = mem.alloc("a", DType::U32, 32);
        let mut spd = Scratchpad::new(2, 64);
        spd.write_tile(T1, &(0..32u64).map(|i| i + 500).collect::<Vec<_>>());
        let mut unit = StreamUnit::new(4, 128);
        let mut ports = TestPorts::new(5);
        let mut ids = IdAlloc::default();
        unit.enqueue(DispatchedInstr {
            handle: 2,
            instr: Instruction::Sst {
                dtype: DType::U32,
                base: a.base(),
                ts: T1,
                rs1: RegId::new(0),
                rs2: RegId::new(1),
                rs3: RegId::new(2),
                tc: None,
            },
            r1: 0,
            r2: 1,
            r3: 32,
            flag: None,
        });
        let h = drive(&mut unit, &mut spd, &mut mem, &mut ports, &mut ids, 500);
        assert_eq!(h, Some(2));
        assert_eq!(mem.read_elem(a, 31), 531);
        // 32 u32 = 128 B = 2 lines, all writes.
        assert_eq!(ports.issued.len(), 2);
        assert!(ports.issued.iter().all(|(_, _, w, _)| *w));
    }

    #[test]
    fn request_table_bounds_outstanding() {
        let mut mem = MemoryImage::new();
        let a = mem.alloc("a", DType::U32, 4096);
        let mut spd = Scratchpad::new(2, 4096);
        spd.begin_produce_unsized(T0);
        let mut unit = StreamUnit::new(16, 4); // tiny table
        let mut ports = TestPorts::new(100_000); // nothing ever returns
        let mut ids = IdAlloc::default();
        unit.enqueue(sld_job(a.base(), 0, 16, 256)); // stride 16 → one line each
        let mut stats = Dx100Stats::default();
        for now in 0..50 {
            unit.step(now, &mut spd, &mut mem, &mut ports, &mut ids, &mut stats);
        }
        assert_eq!(ports.issued.len(), 4, "request table must cap outstanding");
    }
}
