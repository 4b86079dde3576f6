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
use dx100_cpu::CoreOp;
use dx100_prefetch::IndirectPattern;
use dx100_sim::{System, SystemConfig};

use crate::datasets::rng;
use crate::util::{checksum, install_jobs, Placement, TileJob, TileSlot};
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
        let place = Placement::of(&sys);

        sys.roi_begin();
        match mode {
            Mode::Baseline | Mode::Dmp => baseline(&mut sys, &d, self.keys, self.key_space, place),
            Mode::Dx100 => dx100(&mut sys, &d, self.keys, self.key_space, place, cfg),
        }
        sys.roi_end();
        let stats = sys.finish();
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

/// Prefix sum over the histogram on one core (streaming, both modes):
/// `acc += hist[k]; hist[k] = acc`.
fn push_prefix(sys: &mut System, h_hist: ArrayHandle, key_space: usize) {
    Placement::new(1).push_loops(sys, key_space, move |k, ops| {
        ops.extend([
            CoreOp::load(h_hist.addr_of(k as u64), S_HIST),
            CoreOp::alu().with_dep(1).with_dep(4), // acc += hist[k]
            CoreOp::store(h_hist.addr_of(k as u64), S_HIST).with_dep(1),
        ])
    });
}

fn baseline(sys: &mut System, d: &Data, n: usize, key_space: usize, place: Placement) {
    // Phase 1: atomic histogram across cores, `hist[keys[i]] += 1`.
    let (keys, h_keys, h_hist, h_rank) = (d.keys.clone(), d.h_keys, d.h_hist, d.h_rank);
    place.push_loops(sys, n, move |i, ops| {
        ops.extend([
            CoreOp::load(h_keys.addr_of(i as u64), S_KEYS),
            CoreOp::alu().with_dep(1), // address calculation
            CoreOp::atomic(h_hist.addr_of(keys[i] as u64), S_HIST).with_dep(1),
        ])
    });
    sys.run_until(System::cores_idle);
    // Phase 2: prefix sum on one core.
    push_prefix(sys, h_hist, key_space);
    sys.run_until(System::cores_idle);
    // Phase 3: rank gather, `rank[i] = hist[keys[i]]`.
    let keys = d.keys.clone();
    place.push_loops(sys, n, move |i, ops| {
        ops.extend([
            CoreOp::load(h_keys.addr_of(i as u64), S_KEYS),
            CoreOp::alu().with_dep(1),
            CoreOp::load(h_hist.addr_of(keys[i] as u64), S_HIST).with_dep(1),
            CoreOp::store(h_rank.addr_of(i as u64), S_RANK).with_dep(1),
        ])
    });
    sys.run_until(System::cores_idle);
}

fn dx100(
    sys: &mut System,
    d: &Data,
    n: usize,
    key_space: usize,
    place: Placement,
    cfg: &SystemConfig,
) {
    let tile = cfg
        .dx100
        .as_ref()
        .expect("DX100 mode requires config")
        .tile_elems;
    let (h_keys, h_hist, h_rank) = (d.h_keys, d.h_hist, d.h_rank);

    // Phase 1: IRMW histogram, tile by tile, round-robin across cores.
    let jobs = place.tiles(n, tile).map(|s| hist_tile(&s, h_keys, h_hist));
    install_jobs(sys, jobs);
    sys.run_until(System::cores_idle);

    // Phase 2: prefix sum stays on one core (streaming); DX100 already wrote
    // the histogram into memory, so we both time it and apply it.
    let image = sys.image();
    let mut acc = 0u64;
    for k in 0..key_space as u64 {
        acc += image.read_elem(h_hist, k);
        image.write_elem(h_hist, k, acc);
    }
    push_prefix(sys, h_hist, key_space);
    sys.run_until(System::cores_idle);

    // Phase 3: gather ranks and stream-store them (Gather-Full shape).
    let jobs = place
        .tiles(n, tile)
        .map(|s| rank_tile(&s, h_keys, h_hist, h_rank));
    install_jobs(sys, jobs);
    sys.run_until(System::cores_idle);
}

/// One DX100 histogram tile: `hist[keys[lo..hi]] += 1` via sld/alus/irmw.
fn hist_tile(s: &TileSlot<4>, h_keys: ArrayHandle, h_hist: ArrayHandle) -> TileJob {
    let (g, r) = (s.tiles(), s.regs());
    s.job(
        &[0],
        vec![
            s.sld(DType::U32, h_keys.base(), g[0]),
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
    )
}

/// One DX100 rank tile: `rank[lo..hi] = hist[keys[lo..hi]]` via sld/ild/sst.
fn rank_tile(
    s: &TileSlot<4>,
    h_keys: ArrayHandle,
    h_hist: ArrayHandle,
    h_rank: ArrayHandle,
) -> TileJob {
    let g = s.tiles();
    s.job(
        &[],
        vec![
            s.sld(DType::U32, h_keys.base(), g[0]),
            Instruction::ild(DType::U32, h_hist.base(), g[1], g[0]),
            s.sst(DType::U32, h_rank.base(), g[1]),
        ],
    )
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
