//! NAS Integer Sort (IS), bucket-disabled counting sort — the paper's
//! Table 1 pattern `RMW A[B[i]]` over a single loop.
//!
//! Three phases: (1) histogram `hist[keys[i]] += 1` — conditional-free bulk
//! RMW, the paper's headline IS pattern; (2) prefix sum over the histogram
//! (streaming, stays on the cores in both modes); (3) rank gather
//! `rank[i] = hist[keys[i]]`.
//!
//! Baseline: the RMW phase uses atomic read-modify-writes (required for
//! multicore correctness, Section 6.1); DX100 eliminates them by being the
//! sole writer of the histogram region.

use std::sync::Arc;

use dx100_common::{AluOp, DType};
use dx100_core::isa::Instruction;
use dx100_core::ArrayHandle;
use dx100_cpu::{CoreOp, OpStream};
use dx100_prefetch::IndirectPattern;
use dx100_sim::{System, SystemConfig};

use crate::datasets::rng;
use crate::util::{
    checksum, chunks, core_regs, install_jobs, tile_set4, Phase, PhasedDriver, TileJob,
};
use crate::{KernelRun, Mode, Scale, WorkloadResult};
use rand::Rng;

/// Stream ids for the prefetchers.
const S_KEYS: u32 = 1;
const S_HIST: u32 = 2;
const S_RANK: u32 = 3;

/// The IS kernel at a fixed scale.
#[derive(Debug, Clone)]
pub struct IntegerSort {
    keys: usize,
    key_space: usize,
}

impl IntegerSort {
    /// Default size: 2^20 keys over 2^21 buckets — the histogram (8 MB of
    /// u32) overflows the private caches and competes with the 10 MB LLC,
    /// the regime the paper's 2^25-key run operates in (sized down for
    /// simulation turnaround — see EXPERIMENTS.md).
    pub fn new(scale: Scale) -> Self {
        let keys = scale.apply(1 << 20, 1 << 10);
        IntegerSort {
            keys,
            key_space: (keys * 2).max(512),
        }
    }
}

struct Data {
    keys: Arc<Vec<u32>>,
    h_keys: ArrayHandle,
    h_hist: ArrayHandle,
    h_rank: ArrayHandle,
    ref_hist: Vec<u32>,
    ref_rank: Vec<u32>,
}

impl IntegerSort {
    fn build(&self, seed: u64) -> (dx100_core::MemoryImage, Data) {
        let mut r = rng(seed);
        let keys: Vec<u32> = (0..self.keys)
            .map(|_| r.gen_range(0..self.key_space as u32))
            .collect();
        let mut image = dx100_core::MemoryImage::new();
        let h_keys = image.alloc("keys", DType::U32, self.keys as u64);
        let h_hist = image.alloc("hist", DType::U32, self.key_space as u64);
        let h_rank = image.alloc("rank", DType::U32, self.keys as u64);
        image.fill_u32(h_keys, &keys);
        // Functional reference.
        let mut ref_hist = vec![0u32; self.key_space];
        for &k in &keys {
            ref_hist[k as usize] += 1;
        }
        let mut acc = 0u32;
        for h in ref_hist.iter_mut() {
            acc += *h;
            *h = acc;
        }
        let ref_rank: Vec<u32> = keys.iter().map(|&k| ref_hist[k as usize]).collect();
        (
            image,
            Data {
                keys: Arc::new(keys),
                h_keys,
                h_hist,
                h_rank,
                ref_hist,
                ref_rank,
            },
        )
    }

    fn result_checksum(&self, d: &Data) -> u64 {
        checksum(
            d.ref_hist
                .iter()
                .map(|&v| v as u64)
                .chain(d.ref_rank.iter().map(|&v| v as u64)),
        )
    }
}

/// Baseline phase-1 op stream: `hist[keys[i]] += 1` with atomics.
struct HistStream {
    keys: Arc<Vec<u32>>,
    h_keys: ArrayHandle,
    h_hist: ArrayHandle,
    i: usize,
    hi: usize,
    step: u8,
}

impl OpStream for HistStream {
    fn next_op(&mut self) -> Option<CoreOp> {
        if self.i >= self.hi {
            return None;
        }
        let op = match self.step {
            0 => CoreOp::load(self.h_keys.addr_of(self.i as u64), S_KEYS),
            1 => CoreOp::alu().with_dep(1), // address calculation
            2 => {
                let k = self.keys[self.i] as u64;
                CoreOp::atomic(self.h_hist.addr_of(k), S_HIST).with_dep(1)
            }
            _ => unreachable!(),
        };
        self.step += 1;
        if self.step == 3 {
            self.step = 0;
            self.i += 1;
        }
        Some(op)
    }
}

/// Baseline phase-3 op stream: `rank[i] = hist[keys[i]]`.
struct RankStream {
    keys: Arc<Vec<u32>>,
    h_keys: ArrayHandle,
    h_hist: ArrayHandle,
    h_rank: ArrayHandle,
    i: usize,
    hi: usize,
    step: u8,
}

impl OpStream for RankStream {
    fn next_op(&mut self) -> Option<CoreOp> {
        if self.i >= self.hi {
            return None;
        }
        let op = match self.step {
            0 => CoreOp::load(self.h_keys.addr_of(self.i as u64), S_KEYS),
            1 => CoreOp::alu().with_dep(1),
            2 => {
                let k = self.keys[self.i] as u64;
                CoreOp::Load {
                    addr: self.h_hist.addr_of(k),
                    stream: S_HIST,
                    dep: [1, 0],
                }
            }
            3 => CoreOp::Store {
                addr: self.h_rank.addr_of(self.i as u64),
                stream: S_RANK,
                dep: [1, 0],
            },
            _ => unreachable!(),
        };
        self.step += 1;
        if self.step == 4 {
            self.step = 0;
            self.i += 1;
        }
        Some(op)
    }
}

/// Prefix-sum op stream over the histogram (streaming; core 0).
struct PrefixStream {
    h_hist: ArrayHandle,
    k: usize,
    n: usize,
    step: u8,
}

impl OpStream for PrefixStream {
    fn next_op(&mut self) -> Option<CoreOp> {
        if self.k >= self.n {
            return None;
        }
        let op = match self.step {
            0 => CoreOp::load(self.h_hist.addr_of(self.k as u64), S_HIST),
            1 => CoreOp::alu().with_dep(1).with_dep(4), // acc += hist[k]
            2 => CoreOp::Store {
                addr: self.h_hist.addr_of(self.k as u64),
                stream: S_HIST,
                dep: [1, 0],
            },
            _ => unreachable!(),
        };
        self.step += 1;
        if self.step == 3 {
            self.step = 0;
            self.k += 1;
        }
        Some(op)
    }
}

impl KernelRun for IntegerSort {
    fn name(&self) -> &'static str {
        "is"
    }

    fn run(&self, mode: Mode, cfg: &SystemConfig, seed: u64) -> WorkloadResult {
        let (image, d) = self.build(seed);
        let expected = self.result_checksum(&d);
        let mut sys = System::new(cfg.clone(), image);
        if mode == Mode::Dx100 {
            // NAS IS zeroes the bucket histogram at the start of every
            // repetition — through the cores' caches — so its pages carry
            // H-bits and the engine's RMWs route via the LLC.
            sys.mark_host_resident(d.h_hist.base(), d.h_hist.size_bytes());
        }
        let cores = sys.num_cores();

        let phases = match mode {
            Mode::Baseline | Mode::Dmp => {
                if mode == Mode::Dmp {
                    let dmp = sys.dmp_mut().expect("DMP mode requires a DMP config");
                    dmp.add_pattern(IndirectPattern::simple(
                        d.h_keys.base(),
                        self.keys as u64,
                        DType::U32,
                        d.h_hist.base(),
                        DType::U32,
                    ));
                }
                baseline_phases(&d, self.keys, self.key_space, cores)
            }
            Mode::Dx100 => dx100_phases(&d, self.keys, self.key_space, cores, cfg),
        };
        let stats = sys.run(&mut PhasedDriver::new(phases));
        let telemetry = sys.telemetry();

        if mode == Mode::Dx100 {
            // Verify the machine's memory against the reference.
            let image = sys.into_image();
            for (k, want) in d.ref_hist.iter().enumerate() {
                assert_eq!(
                    image.read_elem(d.h_hist, k as u64) as u32,
                    *want,
                    "hist[{k}] mismatch"
                );
            }
            for (i, want) in d.ref_rank.iter().enumerate() {
                assert_eq!(
                    image.read_elem(d.h_rank, i as u64) as u32,
                    *want,
                    "rank[{i}] mismatch"
                );
            }
        }
        WorkloadResult {
            stats,
            checksum: expected,
            telemetry,
        }
    }
}

fn baseline_phases(d: &Data, keys: usize, key_space: usize, cores: usize) -> Vec<Phase> {
    let mut phases = vec![Phase::RoiBegin];
    // Phase 1: atomic histogram across cores.
    let parts = chunks(keys, cores);
    let (keys_rc, h_keys, h_hist, h_rank) = (d.keys.clone(), d.h_keys, d.h_hist, d.h_rank);
    phases.push(Phase::setup(move |sys| {
        for (c, (lo, hi)) in parts.iter().enumerate() {
            sys.push_stream(
                c,
                HistStream {
                    keys: keys_rc.clone(),
                    h_keys,
                    h_hist,
                    i: *lo,
                    hi: *hi,
                    step: 0,
                },
            );
        }
    }));
    phases.push(Phase::WaitCoresIdle);
    // Phase 2: prefix sum on core 0.
    phases.push(Phase::setup(move |sys| {
        sys.push_stream(
            0,
            PrefixStream {
                h_hist,
                k: 0,
                n: key_space,
                step: 0,
            },
        );
    }));
    phases.push(Phase::WaitCoresIdle);
    // Phase 3: rank gather.
    let parts = chunks(keys, cores);
    let keys_rc = d.keys.clone();
    phases.push(Phase::setup(move |sys| {
        for (c, (lo, hi)) in parts.iter().enumerate() {
            sys.push_stream(
                c,
                RankStream {
                    keys: keys_rc.clone(),
                    h_keys,
                    h_hist,
                    h_rank,
                    i: *lo,
                    hi: *hi,
                    step: 0,
                },
            );
        }
    }));
    phases.push(Phase::WaitCoresIdle);
    phases.push(Phase::RoiEnd);
    phases
}

fn dx100_phases(
    d: &Data,
    keys: usize,
    key_space: usize,
    cores: usize,
    cfg: &SystemConfig,
) -> Vec<Phase> {
    let tile = cfg
        .dx100
        .as_ref()
        .expect("DX100 mode requires config")
        .tile_elems;
    let (h_keys, h_hist, h_rank) = (d.h_keys, d.h_hist, d.h_rank);
    let mut phases = vec![Phase::RoiBegin];

    // Phase 1: IRMW histogram, tile by tile, round-robin across cores.
    let tiles1: Vec<(usize, usize)> = split_tiles(keys, tile);
    phases.push(Phase::setup(move |sys| {
        let jobs: Vec<TileJob> = tiles1
            .iter()
            .enumerate()
            .map(|(k, (lo, hi))| hist_tile(k % cores, k, *lo, *hi, h_keys, h_hist))
            .collect();
        install_jobs(sys, &jobs);
    }));
    phases.push(Phase::WaitCoresIdle);

    // Phase 2: prefix sum stays on core 0 (streaming); DX100 already wrote
    // the histogram into memory, so we both time it and apply it.
    phases.push(Phase::setup(move |sys| {
        // Functional effect on the image.
        let image = sys.image();
        let mut acc = 0u64;
        for k in 0..key_space as u64 {
            acc += image.read_elem(h_hist, k);
            image.write_elem(h_hist, k, acc);
        }
        sys.push_stream(
            0,
            PrefixStream {
                h_hist,
                k: 0,
                n: key_space,
                step: 0,
            },
        );
    }));
    phases.push(Phase::WaitCoresIdle);

    // Phase 3: gather ranks and stream-store them (Gather-Full shape).
    let tiles3: Vec<(usize, usize)> = split_tiles(keys, tile);
    phases.push(Phase::setup(move |sys| {
        let jobs: Vec<TileJob> = tiles3
            .iter()
            .enumerate()
            .map(|(k, (lo, hi))| rank_tile(k % cores, k, *lo, *hi, h_keys, h_hist, h_rank))
            .collect();
        install_jobs(sys, &jobs);
    }));
    phases.push(Phase::WaitCoresIdle);
    phases.push(Phase::RoiEnd);
    phases
}

/// One DX100 histogram tile: `hist[keys[lo..hi]] += 1` via sld/alus/irmw.
fn hist_tile(
    core: usize,
    k: usize,
    lo: usize,
    hi: usize,
    h_keys: ArrayHandle,
    h_hist: ArrayHandle,
) -> TileJob {
    let g = tile_set4(k);
    let r = core_regs(core);
    TileJob {
        core,
        pre_ops: vec![],
        tile_writes: vec![],
        reg_writes: vec![
            (r[0], lo as u64),
            (r[1], 1),
            (r[2], (hi - lo) as u64),
            (r[3], 0),
        ],
        instrs: vec![
            Instruction::sld(DType::U32, h_keys.base(), g[0], r[0], r[1], r[2]),
            // ones[i] = (keys[i] >= 0) — an all-ones value tile.
            Instruction::Alus {
                dtype: DType::U32,
                op: AluOp::Ge,
                td: g[1],
                ts: g[0],
                rs: r[3],
                tc: None,
            },
            Instruction::irmw(DType::U32, AluOp::Add, h_hist.base(), g[0], g[1]),
        ],
        post_ops: vec![],
    }
}

/// One DX100 rank tile: `rank[lo..hi] = hist[keys[lo..hi]]` via sld/ild/sst.
fn rank_tile(
    core: usize,
    k: usize,
    lo: usize,
    hi: usize,
    h_keys: ArrayHandle,
    h_hist: ArrayHandle,
    h_rank: ArrayHandle,
) -> TileJob {
    let g = tile_set4(k);
    let r = core_regs(core);
    TileJob {
        core,
        pre_ops: vec![],
        tile_writes: vec![],
        reg_writes: vec![(r[0], lo as u64), (r[1], 1), (r[2], (hi - lo) as u64)],
        instrs: vec![
            Instruction::sld(DType::U32, h_keys.base(), g[0], r[0], r[1], r[2]),
            Instruction::ild(DType::U32, h_hist.base(), g[1], g[0]),
            Instruction::Sst {
                dtype: DType::U32,
                base: h_rank.base(),
                ts: g[1],
                rs1: r[0],
                rs2: r[1],
                rs3: r[2],
                tc: None,
            },
        ],
        post_ops: vec![],
    }
}

/// Splits `n` elements into tile-sized chunks.
pub(crate) fn split_tiles(n: usize, tile: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut lo = 0;
    while lo < n {
        out.push((lo, (lo + tile).min(n)));
        lo += tile;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> IntegerSort {
        IntegerSort::new(Scale(1.0 / 128.0))
    }

    #[test]
    fn dx100_result_matches_reference() {
        let k = tiny();
        let res = k.run(Mode::Dx100, &SystemConfig::paper_dx100(), 42);
        assert!(res.stats.cycles > 0);
        let dx = res.stats.dx100.unwrap();
        assert!(dx.instructions_retired > 0);
    }

    #[test]
    fn baseline_and_dx100_share_checksums() {
        let k = tiny();
        let base = k.run(Mode::Baseline, &SystemConfig::paper_baseline(), 42);
        let dx = k.run(Mode::Dx100, &SystemConfig::paper_dx100(), 42);
        assert_eq!(base.checksum, dx.checksum);
        // The accelerator offloads the core's instruction stream.
        assert!(dx.stats.instructions < base.stats.instructions);
    }

    #[test]
    fn dmp_mode_runs_and_prefetches() {
        let k = tiny();
        let res = k.run(Mode::Dmp, &SystemConfig::paper_dmp(), 42);
        assert!(res.dmp_prefetches() > 0);
    }

    impl WorkloadResult {
        fn dmp_prefetches(&self) -> u64 {
            self.stats.dmp_prefetches
        }
    }
}
