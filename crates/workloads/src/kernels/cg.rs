//! NAS Conjugate Gradient — the SpMV at its core: Table 1 pattern
//! `LD A[B[j]]` over direct range loops (CSR rows).
//!
//! `y[r] = Σ val[j] * x[col[j]]` for `j in offsets[r]..offsets[r+1]`.
//! Matrix values and column indices stream; only `x[col[j]]` is indirect.
//! DX100 gathers `x` tile-by-tile into the scratchpad; the cores stream
//! `val` from memory, read the gathered tile, and do the multiply-adds —
//! the split the paper describes for CG (mostly streaming, fewer indirect
//! accesses, hence its smaller 1.9× bandwidth gain).

use std::sync::Arc;

use dx100_common::{value, DType};
use dx100_core::isa::{Instruction, TileId};
use dx100_core::ArrayHandle;
use dx100_cpu::CoreOp;
use dx100_prefetch::IndirectPattern;
use dx100_sim::{System, SystemConfig};

use crate::datasets::{sparse_matrix, SparseMatrix};
use crate::kernels::is::split_tiles;
use crate::util::{
    checksum, chunks, core_regs, install_jobs, quantize_f64, tile_set4, Phase, PhasedDriver,
    TileJob,
};
use crate::{KernelRun, Mode, Scale, WorkloadResult};

const S_COL: u32 = 1;
const S_VAL: u32 = 2;
const S_X: u32 = 3;
const S_Y: u32 = 4;
const S_SPD: u32 = 5;

/// One CG SpMV iteration.
#[derive(Debug, Clone)]
pub struct ConjugateGradient {
    rows: usize,
}

impl ConjugateGradient {
    /// Default: 2^17 rows × ~16 nnz ≈ 2M nonzeros (paper: 150K×150K); the
    /// gathered vector is 1 MB and the streamed matrix 24 MB.
    pub fn new(scale: Scale) -> Self {
        ConjugateGradient {
            rows: scale.apply(1 << 17, 1 << 8),
        }
    }
}

struct Data {
    m: Arc<SparseMatrix>,
    h_col: ArrayHandle,
    h_val: ArrayHandle,
    h_x: ArrayHandle,
    h_y: ArrayHandle,
    x: Vec<f64>,
    ref_y: Vec<f64>,
}

impl ConjugateGradient {
    fn build(&self, seed: u64) -> (dx100_core::MemoryImage, Data) {
        let m = sparse_matrix(self.rows, 16, seed);
        let n = self.rows;
        let x: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) * 0.25).collect();
        let mut ref_y = vec![0.0f64; n];
        for (r, y) in ref_y.iter_mut().enumerate() {
            let (lo, hi) = (m.offsets[r] as usize, m.offsets[r + 1] as usize);
            for j in lo..hi {
                *y += m.vals[j] * x[m.cols[j] as usize];
            }
        }
        let mut image = dx100_core::MemoryImage::new();
        let h_col = image.alloc("col", DType::U32, m.nnz() as u64);
        let h_val = image.alloc("val", DType::F64, m.nnz() as u64);
        let h_x = image.alloc("x", DType::F64, n as u64);
        let h_y = image.alloc("y", DType::F64, n as u64);
        image.fill_u32(h_col, &m.cols);
        image.fill_f64(h_val, &m.vals);
        image.fill_f64(h_x, &x);
        (
            image,
            Data {
                m: Arc::new(m),
                h_col,
                h_val,
                h_x,
                h_y,
                x,
                ref_y,
            },
        )
    }
}

impl KernelRun for ConjugateGradient {
    fn name(&self) -> &'static str {
        "cg"
    }

    fn run(&self, mode: Mode, cfg: &SystemConfig, seed: u64) -> WorkloadResult {
        let (image, d) = self.build(seed);
        let expected = checksum(d.ref_y.iter().map(|&v| quantize_f64(v)));
        let mut sys = System::new(cfg.clone(), image);
        if mode == Mode::Dx100 {
            // x is rewritten by the host between SpMV calls (the CG axpy
            // phases), so its pages carry H-bits: the engine's gathers of
            // x route via the LLC, where they hit — the same residency the
            // baseline's gathers enjoy.
            sys.mark_host_resident(d.h_x.base(), d.h_x.size_bytes());
        }
        let cores = sys.num_cores();
        let nnz = d.m.nnz();

        let mut phases = vec![Phase::RoiBegin];
        // (core, tile, lo, hi) of the last DX100 tile, checked after the run.
        let mut verify_tile: Option<(usize, TileId, usize, usize)> = None;
        match mode {
            Mode::Baseline | Mode::Dmp => {
                if mode == Mode::Dmp {
                    let dmp = sys.dmp_mut().expect("DMP mode requires a DMP config");
                    dmp.add_pattern(IndirectPattern::simple(
                        d.h_col.base(),
                        nnz as u64,
                        DType::U32,
                        d.h_x.base(),
                        DType::F64,
                    ));
                }
                let parts = chunks(self.rows, cores);
                let (m, h_col, h_val, h_x, h_y) = (d.m.clone(), d.h_col, d.h_val, d.h_x, d.h_y);
                // One row: `acc += val[j] * x[col[j]]` over its nonzeros,
                // then `y[r] = acc`.
                phases.push(Phase::setup(move |sys| {
                    for (c, &(lo, hi)) in parts.iter().enumerate() {
                        let m = m.clone();
                        sys.push_loop(c, lo..hi, move |r, ops| {
                            let (start, end) = (m.offsets[r] as usize, m.offsets[r + 1] as usize);
                            for j in start..end {
                                ops.extend([
                                    CoreOp::load(h_col.addr_of(j as u64), S_COL),
                                    CoreOp::alu().with_dep(1),
                                    CoreOp::load(h_x.addr_of(m.cols[j] as u64), S_X).with_dep(1),
                                    CoreOp::load(h_val.addr_of(j as u64), S_VAL),
                                    CoreOp::alu().with_dep(1).with_dep(3), // multiply
                                    CoreOp::alu().with_dep(1),             // accumulate
                                ]);
                            }
                            ops.push_back(CoreOp::store(h_y.addr_of(r as u64), S_Y));
                        });
                    }
                }));
            }
            Mode::Dx100 => {
                let tile = cfg.dx100.as_ref().expect("dx100 config").tile_elems;
                let tiles = split_tiles(nnz, tile);
                let (h_col, h_val, h_x) = (d.h_col, d.h_val, d.h_x);
                if let Some((k, (lo, hi))) = tiles.iter().enumerate().next_back() {
                    verify_tile = Some((k % cores, tile_set4(k)[1], *lo, *hi));
                }
                phases.push(Phase::setup(move |sys| {
                    let jobs: Vec<TileJob> = tiles
                        .iter()
                        .enumerate()
                        .map(|(k, (lo, hi))| {
                            let core = k % cores;
                            let g = tile_set4(k);
                            let r = core_regs(core);
                            let n = hi - lo;
                            // Consume: load streamed val[j] from memory,
                            // load gathered x̂ from the scratchpad, multiply,
                            // accumulate; store y at row boundaries (~1/16).
                            let mut post = Vec::with_capacity(n * 4 + n / 16 + 1);
                            for i in 0..n {
                                post.push(CoreOp::load(h_val.addr_of((lo + i) as u64), S_VAL));
                                post.push(CoreOp::load(sys.spd_elem_addr(core, g[1], i), S_SPD));
                                post.push(CoreOp::alu().with_dep(1).with_dep(2));
                                post.push(CoreOp::alu().with_dep(1));
                                if i % 16 == 15 {
                                    post.push(CoreOp::store(0x7000_0000 + (lo + i) as u64, S_Y));
                                }
                            }
                            TileJob {
                                core,
                                pre_ops: vec![],
                                tile_writes: vec![],
                                reg_writes: vec![(r[0], *lo as u64), (r[1], 1), (r[2], n as u64)],
                                instrs: vec![
                                    Instruction::sld(
                                        DType::U32,
                                        h_col.base(),
                                        g[0],
                                        r[0],
                                        r[1],
                                        r[2],
                                    ),
                                    Instruction::ild(DType::F64, h_x.base(), g[1], g[0]),
                                ],
                                post_ops: post,
                            }
                        })
                        .collect();
                    install_jobs(sys, &jobs);
                }));
            }
        }
        phases.push(Phase::WaitCoresIdle);
        // Functional y (the cores computed it arithmetically; commit it).
        let (h_y, ref_y) = (d.h_y, d.ref_y.clone());
        phases.push(Phase::setup(move |sys| {
            let image = sys.image();
            for (r, v) in ref_y.iter().enumerate() {
                image.write_elem(h_y, r as u64, value::from_f64(*v));
            }
        }));
        phases.push(Phase::RoiEnd);
        let stats = sys.run(&mut PhasedDriver::new(phases));
        let telemetry = sys.telemetry();

        if mode == Mode::Dx100 {
            // Verify the final gathered tile against x[col[j]], on the
            // instance that serves the core the tile ran on.
            let (core, t, lo, hi) = verify_tile.expect("at least one tile");
            let got = sys
                .dx100_ref(sys.engine_of_core(core))
                .tile(t)
                .valid()
                .to_vec();
            assert_eq!(got.len(), hi - lo);
            for (i, lane) in got.iter().enumerate() {
                let c = d.m.cols[lo + i] as usize;
                assert_eq!(
                    value::to_f64(*lane),
                    d.x[c],
                    "gathered x mismatch at nnz {}",
                    lo + i
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_verified_and_modes_agree() {
        let k = ConjugateGradient::new(Scale(1.0 / 64.0));
        let b = k.run(Mode::Baseline, &SystemConfig::paper_baseline(), 5);
        let x = k.run(Mode::Dx100, &SystemConfig::paper_dx100(), 5);
        assert_eq!(b.checksum, x.checksum);
    }

    /// `run` checks the last tile on the instance of the core it ran on:
    /// with 8 cores on 2 instances, the smallest dataset's last tile lands
    /// on a core of instance 1.
    #[test]
    fn gather_verified_on_the_last_tiles_instance() {
        let k = ConjugateGradient::new(Scale(1e-9));
        k.run(
            Mode::Dx100,
            &SystemConfig::scaled(8, 2).with_tile_elems(1024),
            1,
        );
    }
}
