//! Hash-Join PRH: histogram-based parallel radix join partitioning —
//! Table 1 pattern `ST A[B[f(C[i])]]` with `f(C[i]) = (C[i] & F) >> G`.
//!
//! Phase 1 builds the bucket histogram with `hist[f(key)] += 1` (the ALU
//! mask/shift runs on DX100's ALUS lanes); phase 2 prefix-sums the
//! histogram; phase 3 scatters tuples to their partitions. Destination
//! indices are computed by the cores (the running per-bucket offset is
//! inherently sequential) and handed to DX100 as a host-produced tile for
//! the IST scatter.

use std::sync::Arc;

use dx100_common::{AluOp, DType};
use dx100_core::isa::Instruction;
use dx100_core::ArrayHandle;
use dx100_cpu::CoreOp;
use dx100_prefetch::IndirectPattern;
use dx100_sim::{System, SystemConfig};

use crate::datasets::join_tuples;
use crate::kernels::is::split_tiles;
use crate::util::{
    checksum, chunks, core_regs, install_jobs, produce_tile_ops, tile_set4, Phase, PhasedDriver,
    TileJob,
};
use crate::{KernelRun, Mode, Scale, WorkloadResult};

const S_KEY: u32 = 1;
const S_HIST: u32 = 2;
const S_OUT: u32 = 3;
const S_DEST: u32 = 4;

/// Radix bits (buckets = 2^BITS), masked from the low key bits then shifted.
const RADIX_BITS: u32 = 12;
const RADIX_SHIFT: u32 = 4;

/// The PRH kernel.
#[derive(Debug, Clone)]
pub struct RadixJoinHistogram {
    tuples: usize,
}

impl RadixJoinHistogram {
    /// Default: 2^19 tuples into 4096 buckets (paper: 2M tuples).
    pub fn new(scale: Scale) -> Self {
        RadixJoinHistogram {
            tuples: scale.apply(1 << 20, 1 << 10),
        }
    }

    fn bucket_of(key: u64) -> u64 {
        (key & (((1u64 << RADIX_BITS) - 1) << RADIX_SHIFT)) >> RADIX_SHIFT
    }
}

struct Data {
    keys: Arc<Vec<u64>>,
    h_key: ArrayHandle,
    h_hist: ArrayHandle,
    h_out: ArrayHandle,
    h_dest: ArrayHandle,
    ref_hist: Vec<u32>,
    dest: Vec<u32>,
    ref_out: Vec<u64>,
}

impl RadixJoinHistogram {
    fn build(&self, seed: u64) -> (dx100_core::MemoryImage, Data) {
        let n = self.tuples;
        let buckets = 1usize << RADIX_BITS;
        let tuples = join_tuples(n, u64::MAX >> 1, seed);
        let keys: Vec<u64> = tuples.iter().map(|(k, _)| *k).collect();
        let mut ref_hist = vec![0u32; buckets];
        for &k in &keys {
            ref_hist[Self::bucket_of(k) as usize] += 1;
        }
        let mut prefix = vec![0u32; buckets];
        let mut acc = 0u32;
        for b in 0..buckets {
            prefix[b] = acc;
            acc += ref_hist[b];
        }
        let mut running = prefix.clone();
        let mut dest = vec![0u32; n];
        let mut ref_out = vec![0u64; n];
        for (i, &k) in keys.iter().enumerate() {
            let b = Self::bucket_of(k) as usize;
            dest[i] = running[b];
            running[b] += 1;
            ref_out[dest[i] as usize] = k;
        }
        let mut image = dx100_core::MemoryImage::new();
        let h_key = image.alloc("keys", DType::U64, n as u64);
        let h_hist = image.alloc("hist", DType::U32, buckets as u64);
        let h_out = image.alloc("out", DType::U64, n as u64);
        let h_dest = image.alloc("dest", DType::U32, n as u64);
        for (i, &k) in keys.iter().enumerate() {
            image.write_elem(h_key, i as u64, k);
        }
        (
            image,
            Data {
                keys: Arc::new(keys),
                h_key,
                h_hist,
                h_out,
                h_dest,
                ref_hist,
                dest,
                ref_out,
            },
        )
    }
}

impl KernelRun for RadixJoinHistogram {
    fn name(&self) -> &'static str {
        "prh"
    }

    fn run(&self, mode: Mode, cfg: &SystemConfig, seed: u64) -> WorkloadResult {
        let (image, d) = self.build(seed);
        let expected = checksum(d.ref_out.iter().copied());
        let mut sys = System::new(cfg.clone(), image);
        if mode == Mode::Dx100 {
            // The host zeroes the histogram before each build pass, so its
            // pages carry H-bits and the engine's RMWs route via the LLC.
            sys.mark_host_resident(d.h_hist.base(), d.h_hist.size_bytes());
        }
        let cores = sys.num_cores();
        let n = self.tuples;
        let buckets = 1usize << RADIX_BITS;

        let mut phases = vec![Phase::RoiBegin];
        match mode {
            Mode::Baseline | Mode::Dmp => {
                if mode == Mode::Dmp {
                    let dmp = sys.dmp_mut().expect("DMP mode requires a DMP config");
                    dmp.add_pattern(IndirectPattern {
                        index_base: d.h_key.base(),
                        index_len: n as u64,
                        index_dtype: DType::U64,
                        target_base: d.h_hist.base(),
                        target_dtype: DType::U32,
                        index_shift: RADIX_SHIFT,
                        index_mask: ((1u64 << RADIX_BITS) - 1) << RADIX_SHIFT,
                    });
                }
                // Phase 1: histogram, with the mask/shift address
                // calculation.
                let parts = chunks(n, cores);
                let (keys, h_key, h_hist) = (d.keys.clone(), d.h_key, d.h_hist);
                phases.push(Phase::setup(move |sys| {
                    for (c, &(lo, hi)) in parts.iter().enumerate() {
                        let keys = keys.clone();
                        sys.push_loop(c, lo..hi, move |i, ops| {
                            let b = RadixJoinHistogram::bucket_of(keys[i]);
                            ops.extend([
                                CoreOp::load(h_key.addr_of(i as u64), S_KEY),
                                CoreOp::alu().with_dep(1), // mask
                                CoreOp::alu().with_dep(1), // shift
                                CoreOp::alu().with_dep(1), // address
                                CoreOp::atomic(h_hist.addr_of(b), S_HIST).with_dep(1),
                            ])
                        });
                    }
                }));
                phases.push(Phase::WaitCoresIdle);
                // Phase 2+3: prefix (folded into scatter cost) + partition.
                let parts = chunks(n, cores);
                let (keys, dest) = (d.keys.clone(), Arc::new(d.dest.clone()));
                let (h_key, h_hist, h_out) = (d.h_key, d.h_hist, d.h_out);
                // Dest calc, an atomic fetch-add on the bucket's running
                // offset, and the out store.
                phases.push(Phase::setup(move |sys| {
                    for (c, &(lo, hi)) in parts.iter().enumerate() {
                        let (keys, dest) = (keys.clone(), dest.clone());
                        sys.push_loop(c, lo..hi, move |i, ops| {
                            let b = RadixJoinHistogram::bucket_of(keys[i]);
                            ops.extend([
                                CoreOp::load(h_key.addr_of(i as u64), S_KEY),
                                CoreOp::alu().with_dep(1), // mask
                                CoreOp::alu().with_dep(1), // shift
                                CoreOp::atomic(h_hist.addr_of(b), S_HIST).with_dep(1),
                                CoreOp::store(h_out.addr_of(dest[i] as u64), S_OUT).with_dep(1),
                            ])
                        });
                    }
                }));
            }
            Mode::Dx100 => {
                let tile = cfg.dx100.as_ref().expect("dx100 config").tile_elems;
                // Phase 1: IRMW histogram with the mask/shift on DX100's ALU.
                let tiles1 = split_tiles(n, tile);
                let (h_key, h_hist) = (d.h_key, d.h_hist);
                let mask = ((1u64 << RADIX_BITS) - 1) << RADIX_SHIFT;
                phases.push(Phase::setup(move |sys| {
                    let jobs: Vec<TileJob> = tiles1
                        .iter()
                        .enumerate()
                        .map(|(k, (lo, hi))| {
                            let core = k % cores;
                            let g = tile_set4(k);
                            let r = core_regs(core);
                            TileJob {
                                core,
                                pre_ops: vec![],
                                tile_writes: vec![],
                                reg_writes: vec![
                                    (r[0], *lo as u64),
                                    (r[1], 1),
                                    (r[2], (hi - lo) as u64),
                                    (r[3], mask),
                                    (r[4], RADIX_SHIFT as u64),
                                    (r[5], 0),
                                ],
                                instrs: vec![
                                    Instruction::Sld {
                                        dtype: DType::U64,
                                        base: h_key.base(),
                                        td: g[0],
                                        rs1: r[0],
                                        rs2: r[1],
                                        rs3: r[2],
                                        tc: None,
                                    },
                                    Instruction::Alus {
                                        dtype: DType::U64,
                                        op: AluOp::And,
                                        td: g[1],
                                        ts: g[0],
                                        rs: r[3],
                                        tc: None,
                                    },
                                    Instruction::Alus {
                                        dtype: DType::U64,
                                        op: AluOp::Shr,
                                        td: g[2],
                                        ts: g[1],
                                        rs: r[4],
                                        tc: None,
                                    },
                                    // ones tile for the +1 updates
                                    Instruction::Alus {
                                        dtype: DType::U32,
                                        op: AluOp::Ge,
                                        td: g[3],
                                        ts: g[2],
                                        rs: r[5],
                                        tc: None,
                                    },
                                    Instruction::irmw(
                                        DType::U32,
                                        AluOp::Add,
                                        h_hist.base(),
                                        g[2],
                                        g[3],
                                    ),
                                ],
                                post_ops: vec![],
                            }
                        })
                        .collect();
                    install_jobs(sys, &jobs);
                }));
                phases.push(Phase::WaitCoresIdle);
                // Phase 3: cores compute destination indices into a host
                // tile; DX100 scatters the tuples.
                let tiles3 = split_tiles(n, tile);
                let (h_key, h_out) = (d.h_key, d.h_out);
                let dest = d.dest.clone();
                let h_dest = d.h_dest;
                phases.push(Phase::setup(move |sys| {
                    // Functional: dest array contents (also written to the
                    // image for reference symmetry).
                    for (i, &v) in dest.iter().enumerate() {
                        sys.image().write_elem(h_dest, i as u64, v as u64);
                    }
                    let jobs: Vec<TileJob> = tiles3
                        .iter()
                        .enumerate()
                        .map(|(k, (lo, hi))| {
                            let core = k % cores;
                            let g = tile_set4(k);
                            let r = core_regs(core);
                            let count = hi - lo;
                            // Host-produced destination tile: each element is
                            // key-load + 3 ALU (mask/shift/offset) + SPD store,
                            // then the data lands via a timed tile write.
                            let lanes: Vec<u64> =
                                dest[*lo..*hi].iter().map(|&v| v as u64).collect();
                            let pre = produce_tile_ops(sys, core, g[3], count, 3, S_DEST);
                            TileJob {
                                core,
                                pre_ops: pre,
                                tile_writes: vec![(g[3], lanes)],
                                reg_writes: vec![
                                    (r[0], *lo as u64),
                                    (r[1], 1),
                                    (r[2], count as u64),
                                ],
                                instrs: vec![
                                    Instruction::Sld {
                                        dtype: DType::U64,
                                        base: h_key.base(),
                                        td: g[0],
                                        rs1: r[0],
                                        rs2: r[1],
                                        rs3: r[2],
                                        tc: None,
                                    },
                                    Instruction::Ist {
                                        dtype: DType::U64,
                                        base: h_out.base(),
                                        ts1: g[3],
                                        ts2: g[0],
                                        tc: None,
                                    },
                                ],
                                post_ops: vec![],
                            }
                        })
                        .collect();
                    install_jobs(sys, &jobs);
                }));
            }
        }
        phases.push(Phase::WaitCoresIdle);
        phases.push(Phase::RoiEnd);
        let stats = sys.run(&mut PhasedDriver::new(phases));
        let telemetry = sys.telemetry();

        if mode == Mode::Dx100 {
            let image = sys.into_image();
            // Histogram (pre-prefix) counts.
            for (b, want) in d.ref_hist.iter().enumerate() {
                assert_eq!(
                    image.read_elem(d.h_hist, b as u64) as u32,
                    *want,
                    "hist[{b}]"
                );
            }
            for (i, want) in d.ref_out.iter().enumerate() {
                assert_eq!(image.read_elem(d.h_out, i as u64), *want, "out[{i}]");
            }
        }
        let _ = buckets;
        WorkloadResult {
            stats,
            checksum: expected,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_verified() {
        let k = RadixJoinHistogram::new(Scale(1.0 / 128.0));
        let b = k.run(Mode::Baseline, &SystemConfig::paper_baseline(), 4);
        let x = k.run(Mode::Dx100, &SystemConfig::paper_dx100(), 4);
        assert_eq!(b.checksum, x.checksum);
    }
}
