//! Where work runs. One [`Placement`] makes every choice of core, tile
//! and register a workload needs:
//!
//! - a baseline phase gives each core a contiguous share of its elements
//!   ([`Placement::push_loops`]) or deals them out round-robin
//!   ([`Placement::push_interleaved`]);
//! - DX100 tile job `k` gets a submitting core, a working set of `W`
//!   tiles, and that core's private register bank ([`TileSlot`]).
//!
//! The working sets rotate through the scratchpad's first 32 tiles, so
//! jobs `k` and `k + 32 / W` share tiles. Host tile writes bypass the
//! engine's scoreboard, so jobs that share tiles must be ordered by one
//! core's program. Job `k` is therefore submitted by core `k % s`, where
//! `s` is the largest divisor of the set count `32 / W` that does not
//! exceed the core count. Submission is never the bottleneck: 4-tile jobs
//! use up to 8 submitters, 8-tile jobs up to 4.

use std::collections::VecDeque;
use std::ops::Range;

use dx100_common::{Addr, CoreId, DType};
use dx100_core::isa::{Instruction, RegId, TileId};
use dx100_cpu::CoreOp;
use dx100_sim::System;

use super::TileJob;

/// Tiles the rotating working sets cover.
const SET_TILES: usize = 32;

/// Private register banks: the 64 physical registers hold 8 banks of
/// [`BANK_REGS`]. Register writes are MMIO actions that interleave across
/// cores, so two cores never share a bank (on up to 8 cores).
const BANKS: usize = 8;

/// Registers in a core's private bank.
const BANK_REGS: usize = 8;

/// The stream-slice registers `(lo, 1, len)` at the front of a bank.
const SLICE_REGS: usize = 3;

/// Decides where a workload's work runs on cores `0..cores`.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    cores: usize,
}

impl Placement {
    /// Places work on cores `0..cores`.
    ///
    /// # Panics
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "a placement needs at least one core");
        Placement { cores }
    }

    /// Places work on every core of `sys`.
    pub fn of(sys: &System) -> Self {
        Self::new(sys.num_cores())
    }

    /// A baseline phase over `0..n`: core `c` runs `body` over the `c`-th
    /// contiguous block of `⌈n / cores⌉` elements (trailing cores may get
    /// none).
    pub fn push_loops<B>(&self, sys: &mut System, n: usize, body: B)
    where
        B: FnMut(usize, &mut VecDeque<CoreOp>) + Clone + Send + 'static,
    {
        for (core, elems) in self.blocks(n) {
            sys.push_loop(core, elems, body.clone());
        }
    }

    /// Each core's contiguous block of `0..n`, `⌈n / cores⌉` elements
    /// each; cores whose block would be empty are left out.
    pub fn blocks(&self, n: usize) -> impl Iterator<Item = (CoreId, Range<usize>)> {
        let per = n.div_ceil(self.cores);
        (0..self.cores)
            .map(move |core| (core, core * per..((core + 1) * per).min(n)))
            .filter(|(_, elems)| !elems.is_empty())
    }

    /// Every core runs `body` over all of `0..n` (e.g. to warm its own
    /// caches).
    pub fn push_each<B>(&self, sys: &mut System, n: usize, body: B)
    where
        B: FnMut(usize, &mut VecDeque<CoreOp>) + Clone + Send + 'static,
    {
        for core in 0..self.cores {
            sys.push_loop(core, 0..n, body.clone());
        }
    }

    /// A baseline phase over `0..n` dealt out round-robin: core `c` runs
    /// `body` over `c, c + cores, c + 2·cores, …`, so the cores together
    /// keep the elements' global order.
    pub fn push_interleaved<B>(&self, sys: &mut System, n: usize, body: B)
    where
        B: FnMut(usize, &mut VecDeque<CoreOp>) + Clone + Send + 'static,
    {
        let cores = self.cores;
        for core in 0..cores.min(n) {
            let mut body = body.clone();
            let count = (n - core).div_ceil(cores);
            sys.push_loop(core, 0..count, move |e, ops| body(core + e * cores, ops));
        }
    }

    /// Tile jobs over `0..n`, `per_tile` elements each (the last may be
    /// shorter): job `k` takes the `k`-th slice.
    pub fn tiles<const W: usize>(
        &self,
        n: usize,
        per_tile: usize,
    ) -> impl Iterator<Item = TileSlot<W>> {
        self.slots(
            (0..n)
                .step_by(per_tile)
                .map(move |lo| lo..(lo + per_tile).min(n)),
        )
    }

    /// Tile jobs over the given element ranges: job `k` takes the `k`-th.
    pub fn slots<const W: usize>(
        &self,
        ranges: impl IntoIterator<Item = Range<usize>>,
    ) -> impl Iterator<Item = TileSlot<W>> {
        let place = *self;
        ranges
            .into_iter()
            .enumerate()
            .map(move |(k, elems)| place.slot(k, elems))
    }

    /// Tile job `k` over `elems`.
    fn slot<const W: usize>(&self, k: usize, elems: Range<usize>) -> TileSlot<W> {
        assert!(
            W > 0 && SET_TILES.is_multiple_of(W),
            "{W}-tile sets do not divide {SET_TILES} tiles"
        );
        let sets = SET_TILES / W;
        let core = k % self.submitters(sets);
        let set = k % sets;
        TileSlot {
            core,
            elems,
            tiles: std::array::from_fn(|i| TileId::new((set * W + i) as u8)),
            regs: std::array::from_fn(|i| RegId::new(((core % BANKS) * BANK_REGS + i) as u8)),
        }
    }

    /// How many cores submit jobs whose tiles rotate through `sets` sets:
    /// the largest divisor of `sets` not above the core count. Jobs `k` and
    /// `k + sets` share tiles, and `sets % submitters == 0` puts them on
    /// one core.
    fn submitters(&self, sets: usize) -> usize {
        (1..=self.cores.min(sets))
            .rev()
            .find(|&s| sets.is_multiple_of(s))
            .expect("1 divides every set count")
    }
}

/// Where one tile job runs and what it may use, as [`Placement`] decided.
/// Only a placement makes one, so its core always matches its tiles.
#[derive(Debug, Clone)]
pub struct TileSlot<const W: usize> {
    core: CoreId,
    elems: Range<usize>,
    tiles: [TileId; W],
    regs: [RegId; BANK_REGS],
}

impl<const W: usize> TileSlot<W> {
    /// Submitting core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The elements the job covers.
    pub fn elems(&self) -> Range<usize> {
        self.elems.clone()
    }

    /// The job's working set of tiles.
    pub fn tiles(&self) -> [TileId; W] {
        self.tiles
    }

    /// The submitting core's private register bank. [`TileSlot::job`]
    /// writes the stream slice `(lo, 1, len)` into `regs[0..3]`.
    pub fn regs(&self) -> [RegId; BANK_REGS] {
        self.regs
    }

    /// A stream load of the job's slice: `td[i] = base[lo + i]` for `i` in
    /// `0..len`.
    pub fn sld(&self, dtype: DType, base: Addr, td: TileId) -> Instruction {
        let r = self.regs;
        Instruction::sld(dtype, base, td, r[0], r[1], r[2])
    }

    /// A stream store of the job's slice: `base[lo + i] = ts[i]` for `i` in
    /// `0..len`.
    pub fn sst(&self, dtype: DType, base: Addr, ts: TileId) -> Instruction {
        let r = self.regs;
        Instruction::Sst {
            dtype,
            base,
            ts,
            rs1: r[0],
            rs2: r[1],
            rs3: r[2],
            tc: None,
        }
    }

    /// The job that writes the stream slice (`regs[0] = lo`, `regs[1] = 1`,
    /// `regs[2] = len`) and then `extra` into `regs[3..]`, and sends
    /// `instrs` in order.
    ///
    /// # Panics
    /// Panics if `extra` does not fit the bank.
    pub fn job(&self, extra: &[u64], instrs: Vec<Instruction>) -> TileJob {
        assert!(
            extra.len() <= BANK_REGS - SLICE_REGS,
            "{} extra registers overflow a bank",
            extra.len()
        );
        let slice = [self.elems.start as u64, 1, self.elems.len() as u64];
        TileJob {
            core: self.core,
            len: self.elems.len(),
            produce: None,
            tile_writes: Vec::new(),
            reg_writes: self
                .regs
                .into_iter()
                .zip(slice.into_iter().chain(extra.iter().copied()))
                .collect(),
            instrs,
            consume: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_sharing_tiles_share_a_core() {
        // Host tile writes bypass the engine scoreboard, so two jobs whose
        // working sets overlap must be ordered by one core's program, at
        // every core count and for both set widths.
        fn check<const W: usize>(cores: usize) {
            let place = Placement::new(cores);
            let slots: Vec<TileSlot<W>> = place.tiles(64 * 10, 10).collect();
            for a in &slots {
                assert!(a.core < cores);
                for b in &slots {
                    if a.tiles.iter().any(|t| b.tiles.contains(t)) {
                        assert_eq!(
                            a.core, b.core,
                            "{W}-tile jobs over {:?} and {:?} share tiles but not a core \
                             on {cores} cores",
                            a.elems, b.elems
                        );
                    }
                }
            }
        }
        for cores in 1..=8 {
            check::<4>(cores);
            check::<8>(cores);
        }
    }

    #[test]
    fn submitters_and_sets_on_the_shipped_machines() {
        // 4-tile jobs rotate through 8 sets on every core; 8-tile jobs
        // rotate through 4 sets on at most 4 submitting cores.
        for cores in [1, 2, 4, 8] {
            let place = Placement::new(cores);
            for (k, s) in place.tiles::<4>(320, 10).enumerate() {
                assert_eq!(s.core, k % cores);
                assert_eq!(s.tiles[0].index(), (k % 8) * 4);
            }
            for (k, s) in place.tiles::<8>(320, 10).enumerate() {
                assert_eq!(s.core, k % cores.min(4));
                assert_eq!(s.tiles[7].index(), (k % 4) * 8 + 7);
            }
        }
    }

    #[test]
    fn consecutive_jobs_of_a_core_double_buffer() {
        // On 4 cores, one core's consecutive 4-tile jobs (k, k + 4) use
        // disjoint sets; the eight sets cover all 32 tiles.
        let slots: Vec<TileSlot<4>> = Placement::new(4).tiles(160, 10).collect();
        for k in 0..8 {
            assert!(slots[k]
                .tiles
                .iter()
                .all(|t| !slots[k + 4].tiles.contains(t)));
        }
        let mut seen = std::collections::HashSet::new();
        for s in &slots[..8] {
            seen.extend(s.tiles.map(|t| t.index()));
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn register_banks_are_private_per_core() {
        let place = Placement::new(8);
        let banks: Vec<[RegId; 8]> = place.tiles::<4>(80, 10).map(|s| s.regs).collect();
        for a in 0..8 {
            for b in (a + 1)..8 {
                assert!(
                    banks[a].iter().all(|r| !banks[b].contains(r)),
                    "cores {a} and {b} share registers"
                );
            }
        }
    }

    #[test]
    fn tiles_cover_the_elements_in_order() {
        let elems: Vec<Range<usize>> = Placement::new(4)
            .tiles::<4>(10, 4)
            .map(|s| s.elems)
            .collect();
        assert_eq!(elems, vec![0..4, 4..8, 8..10]);
        assert_eq!(Placement::new(4).tiles::<4>(0, 4).count(), 0);
    }

    #[test]
    fn job_writes_the_stream_slice_then_the_extras() {
        let s = Placement::new(4).tiles::<4>(100, 30).nth(1).unwrap();
        let job = s.job(&[7, 9], vec![]);
        let r = s.regs;
        assert_eq!(job.core, 1);
        assert_eq!(job.len, 30);
        assert_eq!(
            job.reg_writes,
            vec![(r[0], 30), (r[1], 1), (r[2], 30), (r[3], 7), (r[4], 9)]
        );
    }

    #[test]
    fn blocks_cover_everything() {
        let ranges = |cores, n| -> Vec<(usize, usize)> {
            Placement::new(cores)
                .blocks(n)
                .enumerate()
                .map(|(k, (core, r))| {
                    assert_eq!(core, k);
                    (r.start, r.end)
                })
                .collect()
        };
        assert_eq!(ranges(4, 10), vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        assert_eq!(ranges(4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(ranges(4, 2), vec![(0, 1), (1, 2)]);
        let total: usize = ranges(4, 1001).iter().map(|(a, b)| b - a).sum();
        assert_eq!(total, 1001);
    }
}
