//! GAP bottom-up Breadth-First Search (the paper's footnote 1 variant) —
//! Table 1 shape: conditional store through indirect range loops
//! `j = H[K[i]] .. H[K[i]+1]`.
//!
//! Per level `d`: every still-unvisited node scans its neighbors; if one
//! sits at depth `d`, the node joins level `d+1`. The unvisited list is the
//! paper's `K`; the neighbor scan is the indirect range loop; the depth
//! check is the condition; the discovery write is the conditional store.
//!
//! The level loop is data-dependent, so its program is a plain `loop`:
//! install a level, wait for every core to drain, apply it, and stop when
//! a level discovers nothing — the same structure as the paper's OpenMP
//! level loop (whose spin-wait synchronization is charged to the
//! instruction count, Section 6.2).

use std::sync::Arc;

use dx100_common::{AluOp, DType};
use dx100_core::isa::Instruction;
use dx100_core::ArrayHandle;
use dx100_cpu::CoreOp;
use dx100_prefetch::IndirectPattern;
use dx100_sim::{System, SystemConfig};

use crate::datasets::{uniform_graph, Csr};
use crate::util::{checksum, install_jobs, Placement, TileSlot};
use crate::{KernelRun, Mode, Scale, WorkloadResult};

const S_U: u32 = 1;
const S_H: u32 = 2;
const S_COL: u32 = 3;
const S_DEPTH: u32 = 4;
const S_REBUILD: u32 = 5;

/// "Not yet visited" depth marker.
pub(crate) const INF: u32 = u32::MAX / 2;

/// Bottom-up BFS from node 0.
#[derive(Debug, Clone)]
pub struct Bfs {
    nodes: usize,
}

impl Bfs {
    /// Default: 2^16 nodes, average degree 15.
    pub fn new(scale: Scale) -> Self {
        Bfs {
            nodes: scale.apply(1 << 18, 1 << 9),
        }
    }

    fn reference(&self, g: &Csr) -> Vec<u32> {
        // Level-synchronous BFS (identical depths to bottom-up execution).
        let n = g.nodes();
        let mut depth = vec![INF; n];
        depth[0] = 0;
        let mut frontier = vec![0u32];
        let mut d = 0;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            // Bottom-up: unvisited nodes look for a level-d neighbor.
            for u in 0..n {
                if depth[u] != INF {
                    continue;
                }
                if g.neigh(u).iter().any(|&v| depth[v as usize] == d) {
                    depth[u] = d + 1;
                    next.push(u as u32);
                }
            }
            frontier = next;
            d += 1;
        }
        depth
    }
}

struct Shared {
    g: Arc<Csr>,
    h_u: ArrayHandle,
    h_off: ArrayHandle,
    h_col: ArrayHandle,
    h_depth: ArrayHandle,
}

/// The level loop's state, shared by baseline and DX100 modes.
struct Levels {
    shared: Arc<Shared>,
    mode: Mode,
    tile: usize,
    /// Shared with the loop bodies that replay a level from them.
    depth: Arc<Vec<u32>>,
    unvisited: Arc<Vec<u32>>,
    d: u32,
}

impl Levels {
    /// Installs one level's work.
    fn start(&mut self, sys: &mut System) {
        // Publish the unvisited list and current depths to the image.
        let (h_u, h_depth) = (self.shared.h_u, self.shared.h_depth);
        {
            let image = sys.image();
            for (i, &u) in self.unvisited.iter().enumerate() {
                image.write_elem(h_u, i as u64, u as u64);
            }
            for (u, &dv) in self.depth.iter().enumerate() {
                image.write_elem(h_depth, u as u64, dv as u64);
            }
        }
        let m = self.unvisited.len();
        match self.mode {
            Mode::Baseline | Mode::Dmp => {
                // For each unvisited node, walk its neighbors until a
                // level-`d` one is found (replayed from the functional
                // state).
                let (shared, unvisited, depth) = (
                    self.shared.clone(),
                    self.unvisited.clone(),
                    self.depth.clone(),
                );
                let d = self.d;
                Placement::of(sys).push_loops(sys, m, move |i, ops| {
                    let u = unvisited[i] as usize;
                    let g = &shared.g;
                    ops.extend([
                        CoreOp::load(shared.h_u.addr_of(i as u64), S_U),
                        CoreOp::alu().with_dep(1),
                        CoreOp::load(shared.h_off.addr_of(u as u64), S_H).with_dep(1),
                        CoreOp::load(shared.h_off.addr_of((u + 1) as u64), S_H).with_dep(2),
                    ]);
                    for j in g.offsets[u]..g.offsets[u + 1] {
                        let v = g.cols[j as usize] as u64;
                        ops.extend([
                            CoreOp::load(shared.h_col.addr_of(j as u64), S_COL),
                            CoreOp::alu().with_dep(1),
                            CoreOp::load(shared.h_depth.addr_of(v), S_DEPTH).with_dep(1),
                            CoreOp::alu().with_dep(1), // compare
                        ]);
                        if depth[v as usize] == d {
                            // Discovered: store the new depth, stop
                            // scanning.
                            ops.push_back(
                                CoreOp::store(shared.h_depth.addr_of(u as u64), S_DEPTH)
                                    .with_dep(1),
                            );
                            break;
                        }
                    }
                });
            }
            Mode::Dx100 => {
                // Outer tiles sized for the fused range budget (degree ≤ 30).
                let outer_per_tile = (self.tile / 32).max(1);
                let shared = &self.shared;
                let (h_u, h_off, h_col, h_depth) =
                    (shared.h_u, shared.h_off, shared.h_col, shared.h_depth);
                let (d, budget) = (self.d as u64, self.tile as u64);
                let jobs = Placement::of(sys)
                    .tiles(m, outer_per_tile)
                    .map(|s: TileSlot<8>| {
                        let (g, r) = (s.tiles(), s.regs());
                        s.job(
                            &[1, budget, d, d + 1],
                            vec![
                                // Unvisited ids and their neighbor ranges.
                                s.sld(DType::U32, h_u.base(), g[0]),
                                Instruction::ild(DType::U32, h_off.base(), g[1], g[0]),
                                Instruction::Alus {
                                    dtype: DType::U32,
                                    op: AluOp::Add,
                                    td: g[2],
                                    ts: g[0],
                                    rs: r[3],
                                    tc: None,
                                },
                                Instruction::ild(DType::U32, h_off.base(), g[3], g[2]),
                                // Fuse: (outer index, edge j).
                                Instruction::Rng {
                                    td1: g[4],
                                    td2: g[5],
                                    ts1: g[1],
                                    ts2: g[3],
                                    rs1: r[4],
                                    tc: None,
                                },
                                // Neighbor ids and depths.
                                Instruction::ild(DType::U32, h_col.base(), g[6], g[5]),
                                Instruction::ild(DType::U32, h_depth.base(), g[7], g[6]),
                                // match = (depth[v] == d)
                                Instruction::Alus {
                                    dtype: DType::U32,
                                    op: AluOp::Eq,
                                    td: g[2],
                                    ts: g[7],
                                    rs: r[5],
                                    tc: None,
                                },
                                // The fused outer index is tile-relative;
                                // rebase by `lo` before gathering u ids.
                                Instruction::Alus {
                                    dtype: DType::U32,
                                    op: AluOp::Add,
                                    td: g[1],
                                    ts: g[4],
                                    rs: r[0],
                                    tc: None,
                                },
                                Instruction::ild(DType::U32, h_u.base(), g[7], g[1]),
                                // value tile = d+1 on matched lanes.
                                Instruction::Alus {
                                    dtype: DType::U32,
                                    op: AluOp::Mul,
                                    td: g[3],
                                    ts: g[2],
                                    rs: r[6],
                                    tc: None,
                                },
                                // depth[u] = d+1 where a neighbor matched.
                                Instruction::Ist {
                                    dtype: DType::U32,
                                    base: h_depth.base(),
                                    ts1: g[7],
                                    ts2: g[3],
                                    tc: Some(g[2]),
                                },
                            ],
                        )
                    });
                install_jobs(sys, jobs);
            }
        }
    }

    /// Applies the level functionally and queues the rebuild-scan timing;
    /// whether another level follows.
    fn finish(&mut self, sys: &mut System) -> bool {
        // Read discoveries back from the image (DX100 wrote them; the
        // baseline replayed them into its stream, so recompute functionally).
        let mut discovered = 0;
        let g = &self.shared.g;
        let mut new_depth = Vec::clone(&self.depth);
        for &u in self.unvisited.iter() {
            let u = u as usize;
            if g.neigh(u).iter().any(|&v| self.depth[v as usize] == self.d) {
                new_depth[u] = self.d + 1;
                discovered += 1;
            }
        }
        if self.mode == Mode::Dx100 {
            // The machine's depth array must agree with the reference step.
            let image = sys.image_ref();
            for &u in self.unvisited.iter() {
                assert_eq!(
                    image.read_elem(self.shared.h_depth, u as u64) as u32,
                    new_depth[u as usize],
                    "depth[{u}] after level {}",
                    self.d
                );
            }
        }
        self.depth = Arc::new(new_depth);
        // Rebuild scan: each core streams over its share of the old
        // unvisited list (load depth + compare + occasional append store).
        let (h_u, h_depth) = (self.shared.h_u, self.shared.h_depth);
        let (unvisited, depth) = (self.unvisited.clone(), self.depth.clone());
        Placement::of(sys).push_loops(sys, unvisited.len(), move |i, ops| {
            let u = unvisited[i];
            ops.extend([
                CoreOp::load(h_depth.addr_of(u as u64), S_REBUILD),
                CoreOp::alu().with_dep(1),
            ]);
            if depth[u as usize] == INF {
                ops.push_back(CoreOp::store(h_u.addr_of(i as u64), S_U));
            }
        });
        let still: Vec<u32> = self
            .unvisited
            .iter()
            .copied()
            .filter(|&u| self.depth[u as usize] == INF)
            .collect();
        self.unvisited = Arc::new(still);
        self.d += 1;
        discovered > 0 && !self.unvisited.is_empty()
    }
}

impl KernelRun for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn run(&self, mode: Mode, cfg: &SystemConfig, seed: u64) -> WorkloadResult {
        let g = Arc::new(uniform_graph(self.nodes, 15, seed));
        let n = self.nodes;
        let ref_depth = self.reference(&g);
        let expected = checksum(ref_depth.iter().map(|&v| v as u64));

        let mut image = dx100_core::MemoryImage::new();
        let h_u = image.alloc("U", DType::U32, n as u64);
        let h_off = image.alloc("H", DType::U32, (n + 1) as u64);
        let h_col = image.alloc("col", DType::U32, g.edges().max(1) as u64);
        let h_depth = image.alloc("depth", DType::U32, n as u64);
        image.fill_u32(h_off, &g.offsets);
        if !g.cols.is_empty() {
            image.fill_u32(h_col, &g.cols);
        }
        for u in 0..n {
            image.write_elem(h_depth, u as u64, INF as u64);
        }
        image.write_elem(h_depth, 0, 0);

        let mut sys = System::new(cfg.clone(), image);
        if mode == Mode::Dx100 {
            // The frontier and depth arrays are host-written every level
            // (frontier compaction, depth init), so their pages carry
            // H-bits. The CSR is deliberately NOT marked: at full scale it
            // exceeds the LLC, so its pages' H-bits are clear in steady
            // state and edge gathers take the reordered direct-DRAM path.
            for h in [h_u, h_depth] {
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
        let shared = Arc::new(Shared {
            g: g.clone(),
            h_u,
            h_off,
            h_col,
            h_depth,
        });
        let mut depth = vec![INF; n];
        depth[0] = 0;
        let mut levels = Levels {
            shared,
            mode,
            tile: cfg
                .dx100
                .as_ref()
                .map(|d| d.tile_elems)
                .unwrap_or(16 * 1024),
            depth: Arc::new(depth),
            unvisited: Arc::new((1..n as u32).collect()),
            d: 0,
        };
        sys.roi_begin();
        loop {
            levels.start(&mut sys);
            sys.run_until(System::cores_idle);
            if !levels.finish(&mut sys) {
                break;
            }
        }
        sys.roi_end();
        let stats = sys.finish();
        let telemetry = sys.telemetry();

        // Final depths must match the reference in every mode (each DX100
        // level was checked against the reference step already).
        assert_eq!(*levels.depth, ref_depth, "BFS depths diverged");
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
    fn bfs_levels_verified() {
        let k = Bfs::new(Scale(1.0 / 64.0));
        let b = k.run(Mode::Baseline, &SystemConfig::paper_baseline(), 8);
        let x = k.run(Mode::Dx100, &SystemConfig::paper_dx100(), 8);
        assert_eq!(b.checksum, x.checksum);
        assert!(x.stats.cycles > 0);
    }
}
