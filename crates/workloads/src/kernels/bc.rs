//! GAP Betweenness Centrality — the forward (path-counting) sweep:
//! Table 1 pattern `RMW A[B[j]] if (D[E[j]] == F)` over indirect range
//! loops.
//!
//! Per BFS level `d`, every frontier node `u` scatters its path count to
//! next-level neighbors: `sigma[v] += sigma[u] if depth[v] == d+1`. The
//! condition is an indirect depth check, the update an indirect RMW —
//! exactly the paper's BC row. Levels come from a BFS computed at setup
//! (the GAP kernel runs them back to back).

use std::sync::Arc;

use dx100_common::{AluOp, DType};
use dx100_core::isa::Instruction;
use dx100_cpu::CoreOp;
use dx100_prefetch::IndirectPattern;
use dx100_sim::{System, SystemConfig};

use crate::datasets::uniform_graph;
use crate::kernels::bfs::INF;
use crate::util::{checksum, install_jobs, Placement, TileSlot};
use crate::{KernelRun, Mode, Scale, WorkloadResult};

const S_K: u32 = 1;
const S_H: u32 = 2;
const S_COL: u32 = 3;
const S_DEPTH: u32 = 4;
const S_SIGMA: u32 = 5;

/// The BC forward sweep.
#[derive(Debug, Clone)]
pub struct BetweennessCentrality {
    nodes: usize,
}

impl BetweennessCentrality {
    /// Default: 2^16 nodes, average degree 15.
    pub fn new(scale: Scale) -> Self {
        BetweennessCentrality {
            nodes: scale.apply(1 << 17, 1 << 9),
        }
    }
}

impl KernelRun for BetweennessCentrality {
    fn name(&self) -> &'static str {
        "bc"
    }

    fn run(&self, mode: Mode, cfg: &SystemConfig, seed: u64) -> WorkloadResult {
        let g = Arc::new(uniform_graph(self.nodes, 15, seed));
        let n = self.nodes;
        // Depths and the per-level frontiers (setup, as in the GAP kernel).
        let mut depth = vec![INF; n];
        depth[0] = 0;
        let mut levels: Vec<Vec<u32>> = vec![vec![0u32]];
        loop {
            let d = (levels.len() - 1) as u32;
            let mut next = Vec::new();
            for u in 0..n {
                if depth[u] != INF {
                    continue;
                }
                if g.neigh(u).iter().any(|&v| depth[v as usize] == d) {
                    depth[u] = d + 1;
                    next.push(u as u32);
                }
            }
            if next.is_empty() {
                break;
            }
            levels.push(next);
        }
        // Reference sigma (path counts).
        let mut ref_sigma = vec![0u64; n];
        ref_sigma[0] = 1;
        for (d, frontier) in levels.iter().enumerate() {
            for &u in frontier {
                let su = ref_sigma[u as usize];
                for &v in g.neigh(u as usize) {
                    if depth[v as usize] == d as u32 + 1 {
                        ref_sigma[v as usize] += su;
                    }
                }
            }
        }
        let expected = checksum(ref_sigma.iter().copied());

        let mut image = dx100_core::MemoryImage::new();
        let h_k = image.alloc("K", DType::U32, n as u64);
        let h_off = image.alloc("H", DType::U32, (n + 1) as u64);
        let h_col = image.alloc("col", DType::U32, g.edges().max(1) as u64);
        let h_depth = image.alloc("depth", DType::U32, n as u64);
        let h_sigma = image.alloc("sigma", DType::U64, n as u64);
        image.fill_u32(h_off, &g.offsets);
        if !g.cols.is_empty() {
            image.fill_u32(h_col, &g.cols);
        }
        for (u, &dv) in depth.iter().enumerate() {
            image.write_elem(h_depth, u as u64, dv as u64);
        }
        image.write_elem(h_sigma, 0, 1);

        let mut sys = System::new(cfg.clone(), image);
        if mode == Mode::Dx100 {
            // Same residency story as BFS: host-built CSR + depth.
            for h in [h_k, h_off, h_col, h_depth] {
                sys.mark_host_resident(h.base(), h.size_bytes());
            }
        }
        if mode == Mode::Dmp {
            let dmp = sys.dmp_mut().expect("DMP mode requires a DMP config");
            dmp.add_pattern(IndirectPattern::simple(
                h_col.base(),
                g.edges() as u64,
                DType::U32,
                h_depth.base(),
                DType::U32,
            ));
        }

        let tile = cfg
            .dx100
            .as_ref()
            .map(|d| d.tile_elems)
            .unwrap_or(16 * 1024);
        let depth = Arc::new(depth);
        sys.roi_begin();
        // One pass per level (levels are known after setup).
        for (d, frontier) in levels.into_iter().enumerate() {
            let (frontier, g, depth, d) = (Arc::new(frontier), g.clone(), depth.clone(), d as u32);
            // Publish this level's frontier.
            let image = sys.image();
            for (i, &u) in frontier.iter().enumerate() {
                image.write_elem(h_k, i as u64, u as u64);
            }
            let m = frontier.len();
            match mode {
                Mode::Baseline | Mode::Dmp => {
                    // Frontier edges with conditional atomic adds.
                    Placement::of(&sys).push_loops(&mut sys, m, move |i, ops| {
                        let u = frontier[i] as usize;
                        ops.extend([
                            CoreOp::load(h_k.addr_of(i as u64), S_K),
                            CoreOp::alu().with_dep(1),
                            CoreOp::load(h_off.addr_of(u as u64), S_H).with_dep(1),
                            CoreOp::load(h_off.addr_of((u + 1) as u64), S_H).with_dep(2),
                            // sigma[u] load (reused across the row).
                            CoreOp::load(h_sigma.addr_of(u as u64), S_SIGMA).with_dep(3),
                        ]);
                        for j in g.offsets[u]..g.offsets[u + 1] {
                            let v = g.cols[j as usize] as u64;
                            ops.extend([
                                CoreOp::load(h_col.addr_of(j as u64), S_COL),
                                CoreOp::alu().with_dep(1),
                                CoreOp::load(h_depth.addr_of(v), S_DEPTH).with_dep(1),
                                CoreOp::alu().with_dep(1), // compare
                            ]);
                            if depth[v as usize] == d + 1 {
                                ops.push_back(
                                    CoreOp::atomic(h_sigma.addr_of(v), S_SIGMA).with_dep(1),
                                );
                            }
                        }
                    });
                }
                Mode::Dx100 => {
                    let outer_per_tile = (tile / 32).max(1);
                    let jobs =
                        Placement::of(&sys)
                            .tiles(m, outer_per_tile)
                            .map(|s: TileSlot<8>| {
                                let (gt, r) = (s.tiles(), s.regs());
                                s.job(
                                    &[1, tile as u64, d as u64 + 1],
                                    vec![
                                        s.sld(DType::U32, h_k.base(), gt[0]),
                                        Instruction::ild(DType::U32, h_off.base(), gt[1], gt[0]),
                                        Instruction::Alus {
                                            dtype: DType::U32,
                                            op: AluOp::Add,
                                            td: gt[2],
                                            ts: gt[0],
                                            rs: r[3],
                                            tc: None,
                                        },
                                        Instruction::ild(DType::U32, h_off.base(), gt[3], gt[2]),
                                        Instruction::Rng {
                                            td1: gt[4],
                                            td2: gt[5],
                                            ts1: gt[1],
                                            ts2: gt[3],
                                            rs1: r[4],
                                            tc: None,
                                        },
                                        // v = col[j]; its depth; the d+1 check.
                                        Instruction::ild(DType::U32, h_col.base(), gt[6], gt[5]),
                                        Instruction::ild(DType::U32, h_depth.base(), gt[7], gt[6]),
                                        Instruction::Alus {
                                            dtype: DType::U32,
                                            op: AluOp::Eq,
                                            td: gt[2],
                                            ts: gt[7],
                                            rs: r[5],
                                            tc: None,
                                        },
                                        // Rebase the tile-relative outer index by
                                        // `lo`, then u = K[outer].
                                        Instruction::Alus {
                                            dtype: DType::U32,
                                            op: AluOp::Add,
                                            td: gt[1],
                                            ts: gt[4],
                                            rs: r[0],
                                            tc: None,
                                        },
                                        Instruction::ild(DType::U32, h_k.base(), gt[7], gt[1]),
                                        Instruction::ild(DType::U64, h_sigma.base(), gt[3], gt[7])
                                            .with_condition(gt[2]),
                                        // sigma[v] += sigma[u] where depth matches.
                                        Instruction::irmw(
                                            DType::U64,
                                            AluOp::Add,
                                            h_sigma.base(),
                                            gt[6],
                                            gt[3],
                                        )
                                        .with_condition(gt[2]),
                                    ],
                                )
                            });
                    install_jobs(&mut sys, jobs);
                }
            }
            sys.run_until(System::cores_idle);
        }
        sys.roi_end();
        let stats = sys.finish();
        let telemetry = sys.telemetry();

        if mode == Mode::Dx100 {
            let image = sys.into_image();
            for (u, want) in ref_sigma.iter().enumerate() {
                assert_eq!(image.read_elem(h_sigma, u as u64), *want, "sigma[{u}]");
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
    fn path_counts_verified() {
        let k = BetweennessCentrality::new(Scale(1.0 / 64.0));
        let b = k.run(Mode::Baseline, &SystemConfig::paper_baseline(), 12);
        let x = k.run(Mode::Dx100, &SystemConfig::paper_dx100(), 12);
        assert_eq!(b.checksum, x.checksum);
    }
}
