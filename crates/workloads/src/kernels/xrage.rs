//! Spatter / xRAGE scatter — Table 1 pattern `ST A[B[i]]` with an index
//! trace shaped like the xRAGE multi-physics application's accesses
//! (short strided bursts at scattered bases).

use std::sync::Arc;

use dx100_common::DType;
use dx100_core::isa::Instruction;
use dx100_core::ArrayHandle;
use dx100_cpu::CoreOp;
use dx100_prefetch::IndirectPattern;
use dx100_sim::{System, SystemConfig};

use crate::datasets::xrage_pattern;
use crate::kernels::is::split_tiles;
use crate::util::{
    checksum, chunks, core_regs, install_jobs, tile_set4, Phase, PhasedDriver, TileJob,
};
use crate::{KernelRun, Mode, Scale, WorkloadResult};

const S_PAT: u32 = 1;
const S_VAL: u32 = 2;
const S_OUT: u32 = 3;

/// The xRAGE scatter kernel.
#[derive(Debug, Clone)]
pub struct Xrage {
    n: usize,
    target: usize,
}

impl Xrage {
    /// Default: 1M scatter operations into a 4M-element target.
    pub fn new(scale: Scale) -> Self {
        Xrage {
            n: scale.apply(1 << 20, 1 << 10),
            target: scale.apply(1 << 22, 1 << 12),
        }
    }
}

struct Data {
    pattern: Arc<Vec<u32>>,
    h_pat: ArrayHandle,
    h_val: ArrayHandle,
    h_out: ArrayHandle,
    /// Reference output plus writer multiplicity per position.
    ref_out: Vec<u32>,
    writers: Vec<u8>,
}

impl Xrage {
    fn build(&self, seed: u64) -> (dx100_core::MemoryImage, Data) {
        let pattern = xrage_pattern(self.n, self.target, seed);
        let mut image = dx100_core::MemoryImage::new();
        let h_pat = image.alloc("pattern", DType::U32, self.n as u64);
        let h_val = image.alloc("values", DType::U32, self.n as u64);
        let h_out = image.alloc("out", DType::U32, self.target as u64);
        image.fill_u32(h_pat, &pattern);
        let vals: Vec<u32> = (0..self.n as u32).map(|i| i ^ 0x5a5a).collect();
        image.fill_u32(h_val, &vals);
        let mut ref_out = vec![0u32; self.target];
        let mut writers = vec![0u8; self.target];
        for (i, &p) in pattern.iter().enumerate() {
            ref_out[p as usize] = vals[i];
            writers[p as usize] = writers[p as usize].saturating_add(1);
        }
        (
            image,
            Data {
                pattern: Arc::new(pattern),
                h_pat,
                h_val,
                h_out,
                ref_out,
                writers,
            },
        )
    }
}

impl KernelRun for Xrage {
    fn name(&self) -> &'static str {
        "xrage"
    }

    fn run(&self, mode: Mode, cfg: &SystemConfig, seed: u64) -> WorkloadResult {
        let (image, d) = self.build(seed);
        let expected = checksum(d.ref_out.iter().map(|&v| v as u64));
        let mut sys = System::new(cfg.clone(), image);
        let cores = sys.num_cores();
        let n = self.n;

        let phases = match mode {
            Mode::Baseline | Mode::Dmp => {
                if mode == Mode::Dmp {
                    let dmp = sys.dmp_mut().expect("DMP mode requires a DMP config");
                    dmp.add_pattern(IndirectPattern::simple(
                        d.h_pat.base(),
                        n as u64,
                        DType::U32,
                        d.h_out.base(),
                        DType::U32,
                    ));
                }
                let parts = chunks(n, cores);
                let (pattern, h_pat, h_val, h_out) = (d.pattern.clone(), d.h_pat, d.h_val, d.h_out);
                vec![
                    Phase::RoiBegin,
                    // `out[pat[i]] = val[i]`.
                    Phase::setup(move |sys| {
                        for (c, &(lo, hi)) in parts.iter().enumerate() {
                            let pattern = pattern.clone();
                            sys.push_loop(c, lo..hi, move |i, ops| {
                                ops.extend([
                                    CoreOp::load(h_pat.addr_of(i as u64), S_PAT),
                                    CoreOp::alu().with_dep(1),
                                    CoreOp::load(h_val.addr_of(i as u64), S_VAL),
                                    CoreOp::store(h_out.addr_of(pattern[i] as u64), S_OUT)
                                        .with_dep(2)
                                        .with_dep(1),
                                ])
                            });
                        }
                    }),
                    Phase::WaitCoresIdle,
                    Phase::RoiEnd,
                ]
            }
            Mode::Dx100 => {
                let tile = cfg.dx100.as_ref().expect("dx100 config").tile_elems;
                let tiles = split_tiles(n, tile);
                let (h_pat, h_val, h_out) = (d.h_pat, d.h_val, d.h_out);
                vec![
                    Phase::RoiBegin,
                    Phase::setup(move |sys| {
                        let jobs: Vec<TileJob> = tiles
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
                                    ],
                                    instrs: vec![
                                        Instruction::sld(
                                            DType::U32,
                                            h_pat.base(),
                                            g[0],
                                            r[0],
                                            r[1],
                                            r[2],
                                        ),
                                        Instruction::sld(
                                            DType::U32,
                                            h_val.base(),
                                            g[1],
                                            r[0],
                                            r[1],
                                            r[2],
                                        ),
                                        Instruction::ist(DType::U32, h_out.base(), g[0], g[1]),
                                    ],
                                    post_ops: vec![],
                                }
                            })
                            .collect();
                        install_jobs(sys, &jobs);
                    }),
                    Phase::WaitCoresIdle,
                    Phase::RoiEnd,
                ]
            }
        };
        let stats = sys.run(&mut PhasedDriver::new(phases));
        let telemetry = sys.telemetry();

        if mode == Mode::Dx100 {
            // Positions with a single writer must match the reference
            // exactly; multi-writer positions (cross-tile write races,
            // "don't care" in Spatter semantics) must hold *some* writer's
            // value.
            let image = sys.into_image();
            let vals_of: std::collections::HashMap<u32, Vec<u32>> = {
                let mut m: std::collections::HashMap<u32, Vec<u32>> = Default::default();
                for (i, &p) in d.pattern.iter().enumerate() {
                    m.entry(p).or_default().push((i as u32) ^ 0x5a5a);
                }
                m
            };
            for (p, want) in d.ref_out.iter().enumerate() {
                let got = image.read_elem(d.h_out, p as u64) as u32;
                match d.writers[p] {
                    0 => assert_eq!(got, 0, "untouched out[{p}]"),
                    1 => assert_eq!(got, *want, "out[{p}]"),
                    _ => assert!(
                        vals_of[&(p as u32)].contains(&got),
                        "out[{p}] = {got} not among its writers"
                    ),
                }
            }
        }
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
    fn all_modes_run() {
        let k = Xrage::new(Scale(1.0 / 256.0));
        let b = k.run(Mode::Baseline, &SystemConfig::paper_baseline(), 3);
        let x = k.run(Mode::Dx100, &SystemConfig::paper_dx100(), 3);
        assert_eq!(b.checksum, x.checksum);
        assert!(x.stats.dx100.unwrap().indirect_line_writes > 0);
    }
}
