//! GAP PageRank (push-style) — Table 1 pattern `RMW A[B[j]]` over direct
//! range loops `j = H[i] .. H[i+1]`.
//!
//! One iteration: each node's contribution `contrib[u] = rank[u] / deg[u]`
//! is computed on the cores (streaming), then scattered to its out-neighbors
//! with `next[col[j]] += contrib[src[j]]` over the flattened edge list.
//! The baseline needs atomic f64 adds; DX100 issues IRMW tiles.

use std::sync::Arc;

use dx100_common::{value, AluOp, DType};
use dx100_core::isa::Instruction;
use dx100_core::ArrayHandle;
use dx100_cpu::CoreOp;
use dx100_prefetch::IndirectPattern;
use dx100_sim::{System, SystemConfig};

use crate::datasets::uniform_graph;
use crate::util::{
    assert_f64_close, checksum, install_jobs, quantize_f64, Placement, TileJob, TileSlot,
};
use crate::{KernelRun, Mode, Scale, WorkloadResult};

const S_SRC: u32 = 1;
const S_COL: u32 = 2;
const S_CONTRIB: u32 = 3;
const S_NEXT: u32 = 4;
const S_NODE: u32 = 5;

/// One push-style PageRank iteration.
#[derive(Debug, Clone)]
pub struct PageRank {
    nodes: usize,
}

impl PageRank {
    /// Default: 2^16 nodes, average degree 15 (paper: 2^20..2^22 nodes).
    pub fn new(scale: Scale) -> Self {
        PageRank {
            nodes: scale.apply(1 << 17, 1 << 9),
        }
    }
}

struct Data {
    src: Arc<Vec<u32>>,
    col: Arc<Vec<u32>>,
    h_src: ArrayHandle,
    h_col: ArrayHandle,
    h_contrib: ArrayHandle,
    h_next: ArrayHandle,
    h_rank: ArrayHandle,
    h_deg: ArrayHandle,
    ref_next: Vec<f64>,
    contrib: Vec<f64>,
}

impl PageRank {
    fn build(&self, seed: u64) -> (dx100_core::MemoryImage, Data) {
        let g = uniform_graph(self.nodes, 15, seed);
        let n = self.nodes;
        // Flatten: per-edge source array (the paper's range loop j=H[i]..H[i+1]
        // walked with its source node i).
        let mut src = Vec::with_capacity(g.edges());
        for u in 0..n {
            for _ in g.neigh(u) {
                src.push(u as u32);
            }
        }
        let col = g.cols.clone();
        let ranks: Vec<f64> = (0..n).map(|u| 1.0 + (u % 7) as f64 * 0.125).collect();
        let degs: Vec<f64> = (0..n).map(|u| g.neigh(u).len().max(1) as f64).collect();
        let contrib: Vec<f64> = (0..n).map(|u| ranks[u] / degs[u]).collect();
        let mut ref_next = vec![0.0f64; n];
        for (j, &v) in col.iter().enumerate() {
            ref_next[v as usize] += contrib[src[j] as usize];
        }
        let mut image = dx100_core::MemoryImage::new();
        let h_src = image.alloc("src", DType::U32, src.len() as u64);
        let h_col = image.alloc("col", DType::U32, col.len() as u64);
        let h_contrib = image.alloc("contrib", DType::F64, n as u64);
        let h_next = image.alloc("next", DType::F64, n as u64);
        let h_rank = image.alloc("rank", DType::F64, n as u64);
        let h_deg = image.alloc("deg", DType::F64, n as u64);
        image.fill_u32(h_src, &src);
        image.fill_u32(h_col, &col);
        image.fill_f64(h_rank, &ranks);
        image.fill_f64(h_deg, &degs);
        (
            image,
            Data {
                src: Arc::new(src),
                col: Arc::new(col),
                h_src,
                h_col,
                h_contrib,
                h_next,
                h_rank,
                h_deg,
                ref_next,
                contrib,
            },
        )
    }
}

impl KernelRun for PageRank {
    fn name(&self) -> &'static str {
        "pr"
    }

    fn run(&self, mode: Mode, cfg: &SystemConfig, seed: u64) -> WorkloadResult {
        let (image, d) = self.build(seed);
        let expected = checksum(d.ref_next.iter().map(|&v| quantize_f64(v)));
        let mut sys = System::new(cfg.clone(), image);
        let place = Placement::of(&sys);
        let n = self.nodes;
        let edges = d.col.len();

        if mode == Mode::Dmp {
            let dmp = sys.dmp_mut().expect("DMP mode requires a DMP config");
            dmp.add_pattern(IndirectPattern::simple(
                d.h_col.base(),
                edges as u64,
                DType::U32,
                d.h_next.base(),
                DType::F64,
            ));
            dmp.add_pattern(IndirectPattern::simple(
                d.h_src.base(),
                edges as u64,
                DType::U32,
                d.h_contrib.base(),
                DType::F64,
            ));
        }

        sys.roi_begin();
        // Phase A (both modes): compute contributions on the cores,
        // `contrib[u] = rank[u] / deg[u]` (streaming), and apply them
        // functionally so the scatter reads real data.
        let (h_rank, h_deg, h_contrib) = (d.h_rank, d.h_deg, d.h_contrib);
        let image = sys.image();
        for (u, c) in d.contrib.iter().enumerate() {
            image.write_elem(h_contrib, u as u64, value::from_f64(*c));
        }
        place.push_loops(&mut sys, n, move |u, ops| {
            ops.extend([
                CoreOp::load(h_rank.addr_of(u as u64), S_NODE),
                CoreOp::load(h_deg.addr_of(u as u64), S_NODE + 10),
                CoreOp::alu().with_dep(1).with_dep(2), // divide
                CoreOp::store(h_contrib.addr_of(u as u64), S_CONTRIB).with_dep(1),
            ])
        });
        sys.run_until(System::cores_idle);
        // Phase B: edge scatter.
        let (h_src, h_col, h_next) = (d.h_src, d.h_col, d.h_next);
        match mode {
            Mode::Baseline | Mode::Dmp => {
                let (src, col) = (d.src.clone(), d.col.clone());
                // `next[col[j]] += contrib[src[j]]` with atomics.
                place.push_loops(&mut sys, edges, move |j, ops| {
                    let (u, v) = (src[j] as u64, col[j] as u64);
                    ops.extend([
                        CoreOp::load(h_src.addr_of(j as u64), S_SRC),
                        CoreOp::alu().with_dep(1),
                        CoreOp::load(h_contrib.addr_of(u), S_CONTRIB).with_dep(1),
                        CoreOp::load(h_col.addr_of(j as u64), S_COL),
                        CoreOp::alu().with_dep(1),
                        CoreOp::atomic(h_next.addr_of(v), S_NEXT)
                            .with_dep(1)
                            .with_dep(3),
                    ])
                });
            }
            Mode::Dx100 => {
                let tile = cfg.dx100.as_ref().expect("dx100 config").tile_elems;
                let jobs = place
                    .tiles(edges, tile)
                    .map(|s| scatter_tile(&s, h_src, h_contrib, h_col, h_next));
                install_jobs(&mut sys, jobs);
            }
        }
        sys.run_until(System::cores_idle);
        sys.roi_end();
        let stats = sys.finish();
        let telemetry = sys.telemetry();

        if mode == Mode::Dx100 {
            let image = sys.into_image();
            let got: Vec<f64> = (0..n)
                .map(|v| value::to_f64(image.read_elem(d.h_next, v as u64)))
                .collect();
            assert_f64_close(&got, &d.ref_next, 1e-9);
        }
        WorkloadResult {
            stats,
            checksum: expected,
            telemetry,
        }
    }
}

/// One DX100 scatter tile: `next[col[lo..hi]] += contrib[src[lo..hi]]`.
fn scatter_tile(
    s: &TileSlot<4>,
    h_src: ArrayHandle,
    h_contrib: ArrayHandle,
    h_col: ArrayHandle,
    h_next: ArrayHandle,
) -> TileJob {
    let g = s.tiles();
    s.job(
        &[],
        vec![
            // Gather contributions via the source ids.
            s.sld(DType::U32, h_src.base(), g[0]),
            Instruction::ild(DType::F64, h_contrib.base(), g[1], g[0]),
            // Scatter-add into next ranks.
            s.sld(DType::U32, h_col.base(), g[2]),
            Instruction::irmw(DType::F64, AluOp::Add, h_next.base(), g[2], g[1]),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dx100_matches_reference_and_beats_baseline_shape() {
        let k = PageRank::new(Scale(1.0 / 64.0));
        let b = k.run(Mode::Baseline, &SystemConfig::paper_baseline(), 11);
        let x = k.run(Mode::Dx100, &SystemConfig::paper_dx100(), 11);
        assert_eq!(b.checksum, x.checksum);
        assert!(x.stats.instructions < b.stats.instructions);
    }
}
