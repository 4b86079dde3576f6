//! UME unstructured-mesh gradient kernels (GZZ, GZP, GZZI, GZPI) —
//! Table 1 patterns:
//!
//! * **GZZ / GZP** (direct): `RMW A[B[i]] if (D[i] >= F)` — conditional
//!   scatter-add of zone/point values through a mesh connectivity map with
//!   the paper's measured low spatial locality (mean index distance ≈ 4% of
//!   the mesh, their 85K over 2M points).
//! * **GZZI / GZPI** (indirect): `LD A[B[C[j]]] if (D[j] >= F)` over
//!   indirect range loops `j = H[K[i]] .. H[K[i]+1]` — two levels of
//!   indirection behind the Range Fuser.

use std::sync::Arc;

use dx100_common::{value, AluOp, DType};
use dx100_core::isa::Instruction;
use dx100_core::ArrayHandle;
use dx100_cpu::CoreOp;
use dx100_prefetch::IndirectPattern;
use dx100_sim::{System, SystemConfig};

use crate::datasets::{rng, ume_index_map};
use crate::util::{assert_f64_close, checksum, install_jobs, quantize_f64, Placement, TileSlot};
use crate::{KernelRun, Mode, Scale, WorkloadResult};
use rand::Rng;

const S_MAP: u32 = 1;
const S_MASK: u32 = 2;
const S_VAL: u32 = 3;
const S_GRAD: u32 = 4;
const S_K: u32 = 5;
const S_H: u32 = 6;
const S_C: u32 = 7;
const S_B: u32 = 8;
const S_A: u32 = 9;
const S_OUT: u32 = 10;

/// Condition threshold: `mask[i] >= F` keeps ~60% of iterations active.
const F_THRESHOLD: u64 = 40;

/// One UME gradient kernel (zone or point; direct or indirect variant).
#[derive(Debug, Clone)]
pub struct Ume {
    n: usize,
    indirect: bool,
    name: &'static str,
    /// Mean index distance as a fraction of the mesh (zones and points use
    /// slightly different connectivity shapes).
    distance_frac: f64,
}

impl Ume {
    /// Zone-gradient kernel: `gzz` (direct) or `gzzi` (indirect).
    pub fn zone(scale: Scale, indirect: bool) -> Self {
        Ume {
            n: scale.apply(1 << 19, 1 << 10),
            indirect,
            name: if indirect { "gzzi" } else { "gzz" },
            distance_frac: 0.042, // the paper's 85K / 2M
        }
    }

    /// Point-gradient kernel: `gzp` (direct) or `gzpi` (indirect).
    pub fn point(scale: Scale, indirect: bool) -> Self {
        Ume {
            n: scale.apply(1 << 19, 1 << 10),
            indirect,
            name: if indirect { "gzpi" } else { "gzp" },
            distance_frac: 0.08,
        }
    }
}

struct DirectData {
    map: Arc<Vec<u32>>,
    mask: Arc<Vec<u32>>,
    h_map: ArrayHandle,
    h_mask: ArrayHandle,
    h_val: ArrayHandle,
    h_grad: ArrayHandle,
    ref_grad: Vec<f64>,
}

struct IndirectData {
    k_list: Arc<Vec<u32>>,
    c_map: Arc<Vec<u32>>,
    b_map: Arc<Vec<u32>>,
    mask: Arc<Vec<u32>>,
    hk: ArrayHandle,
    hh: ArrayHandle,
    hc: ArrayHandle,
    hb: ArrayHandle,
    hmask: ArrayHandle,
    ha: ArrayHandle,
    hout: ArrayHandle,
    ref_out: Vec<f64>,
    /// Flattened (outer, j) pairs for the baseline stream.
    flat: Arc<Vec<(u32, u32)>>,
}

impl Ume {
    fn build_direct(&self, seed: u64) -> (dx100_core::MemoryImage, DirectData) {
        let n = self.n;
        let mut r = rng(seed);
        let map = ume_index_map(n, (n as f64 * self.distance_frac) as usize, seed);
        let mask: Vec<u32> = (0..n).map(|_| r.gen_range(0..100u32)).collect();
        let vals: Vec<f64> = (0..n).map(|i| ((i % 31) as f64 - 15.0) * 0.5).collect();
        let mut ref_grad = vec![0.0f64; n];
        for i in 0..n {
            if mask[i] as u64 >= F_THRESHOLD {
                ref_grad[map[i] as usize] += vals[i];
            }
        }
        let mut image = dx100_core::MemoryImage::new();
        let h_map = image.alloc("map", DType::U32, n as u64);
        let h_mask = image.alloc("mask", DType::U32, n as u64);
        let h_val = image.alloc("val", DType::F64, n as u64);
        let h_grad = image.alloc("grad", DType::F64, n as u64);
        image.fill_u32(h_map, &map);
        image.fill_u32(h_mask, &mask);
        image.fill_f64(h_val, &vals);
        (
            image,
            DirectData {
                map: Arc::new(map),
                mask: Arc::new(mask),
                h_map,
                h_mask,
                h_val,
                h_grad,
                ref_grad,
            },
        )
    }

    fn build_indirect(&self, seed: u64) -> (dx100_core::MemoryImage, IndirectData) {
        // Outer list K of zones; each zone has a corner range in H;
        // corners map to points via C; points map to data slots via B.
        let n_outer = self.n / 8;
        let mut r = rng(seed);
        let mut h_off = Vec::with_capacity(n_outer + 1);
        h_off.push(0u32);
        for _ in 0..n_outer {
            let len = r.gen_range(2..=6u32);
            h_off.push(h_off.last().unwrap() + len);
        }
        let n_corner = *h_off.last().unwrap() as usize;
        let n_point = self.n;
        let c_map = ume_index_map(
            n_corner.max(1),
            (n_point as f64 * self.distance_frac) as usize,
            seed ^ 1,
        )
        .into_iter()
        .map(|v| v % n_point as u32)
        .collect::<Vec<_>>();
        let b_map = ume_index_map(
            n_point,
            (n_point as f64 * self.distance_frac) as usize,
            seed ^ 2,
        );
        let mask: Vec<u32> = (0..n_corner).map(|_| r.gen_range(0..100u32)).collect();
        let a: Vec<f64> = (0..n_point).map(|i| (i % 17) as f64 * 0.75).collect();
        // Shuffled outer order (frontier-like).
        let mut k_list: Vec<u32> = (0..n_outer as u32).collect();
        for i in (1..k_list.len()).rev() {
            k_list.swap(i, r.gen_range(0..=i));
        }
        let mut ref_out = vec![0.0f64; n_corner.max(1)];
        let mut flat = Vec::new();
        for (oi, &kz) in k_list.iter().enumerate() {
            let (lo, hi) = (h_off[kz as usize], h_off[kz as usize + 1]);
            for j in lo..hi {
                flat.push((oi as u32, j));
                if mask[j as usize] as u64 >= F_THRESHOLD {
                    ref_out[j as usize] = a[b_map[c_map[j as usize] as usize] as usize];
                }
            }
        }
        let mut image = dx100_core::MemoryImage::new();
        let hk = image.alloc("K", DType::U32, k_list.len() as u64);
        let hh = image.alloc("H", DType::U32, h_off.len() as u64);
        let hc = image.alloc("C", DType::U32, c_map.len() as u64);
        let hb = image.alloc("B", DType::U32, b_map.len() as u64);
        let hmask = image.alloc("mask", DType::U32, mask.len().max(1) as u64);
        let ha = image.alloc("A", DType::F64, a.len() as u64);
        let hout = image.alloc("out", DType::F64, ref_out.len() as u64);
        image.fill_u32(hk, &k_list);
        image.fill_u32(hh, &h_off);
        image.fill_u32(hc, &c_map);
        image.fill_u32(hb, &b_map);
        if !mask.is_empty() {
            image.fill_u32(hmask, &mask);
        }
        image.fill_f64(ha, &a);
        (
            image,
            IndirectData {
                k_list: Arc::new(k_list),
                c_map: Arc::new(c_map),
                b_map: Arc::new(b_map),
                mask: Arc::new(mask),
                hk,
                hh,
                hc,
                hb,
                hmask,
                ha,
                hout,
                ref_out,
                flat: Arc::new(flat),
            },
        )
    }
}

impl KernelRun for Ume {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, mode: Mode, cfg: &SystemConfig, seed: u64) -> WorkloadResult {
        if self.indirect {
            self.run_indirect(mode, cfg, seed)
        } else {
            self.run_direct(mode, cfg, seed)
        }
    }
}

impl Ume {
    fn run_direct(&self, mode: Mode, cfg: &SystemConfig, seed: u64) -> WorkloadResult {
        let (image, d) = self.build_direct(seed);
        let expected = checksum(d.ref_grad.iter().map(|&v| quantize_f64(v)));
        let mut sys = System::new(cfg.clone(), image);
        let place = Placement::of(&sys);
        let n = self.n;

        if mode == Mode::Dmp {
            let dmp = sys.dmp_mut().expect("DMP mode requires a DMP config");
            dmp.add_pattern(IndirectPattern::simple(
                d.h_map.base(),
                n as u64,
                DType::U32,
                d.h_grad.base(),
                DType::F64,
            ));
        }

        sys.roi_begin();
        match mode {
            Mode::Baseline | Mode::Dmp => {
                let (map, mask) = (d.map.clone(), d.mask.clone());
                let (h_map, h_mask, h_val, h_grad) = (d.h_map, d.h_mask, d.h_val, d.h_grad);
                // `if mask[i] >= F { grad[map[i]] += val[i] }`; an untaken
                // iteration does only the condition work.
                place.push_loops(&mut sys, n, move |i, ops| {
                    ops.extend([
                        CoreOp::load(h_mask.addr_of(i as u64), S_MASK),
                        CoreOp::alu().with_dep(1), // compare + branch
                    ]);
                    if mask[i] as u64 >= F_THRESHOLD {
                        ops.extend([
                            CoreOp::load(h_map.addr_of(i as u64), S_MAP),
                            CoreOp::alu().with_dep(1),
                            CoreOp::load(h_val.addr_of(i as u64), S_VAL),
                            CoreOp::atomic(h_grad.addr_of(map[i] as u64), S_GRAD)
                                .with_dep(1)
                                .with_dep(3),
                        ]);
                    }
                });
            }
            Mode::Dx100 => {
                let tile = cfg.dx100.as_ref().expect("dx100 config").tile_elems;
                let (h_map, h_mask, h_val, h_grad) = (d.h_map, d.h_mask, d.h_val, d.h_grad);
                let jobs = place.tiles(n, tile).map(|s: TileSlot<4>| {
                    let (g, r) = (s.tiles(), s.regs());
                    s.job(
                        &[F_THRESHOLD],
                        vec![
                            s.sld(DType::U32, h_mask.base(), g[0]),
                            // cond = mask >= F
                            Instruction::Alus {
                                dtype: DType::U32,
                                op: AluOp::Ge,
                                td: g[1],
                                ts: g[0],
                                rs: r[3],
                                tc: None,
                            },
                            s.sld(DType::U32, h_map.base(), g[2]),
                            s.sld(DType::F64, h_val.base(), g[3]),
                            Instruction::irmw(DType::F64, AluOp::Add, h_grad.base(), g[2], g[3])
                                .with_condition(g[1]),
                        ],
                    )
                });
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
                .map(|i| value::to_f64(image.read_elem(d.h_grad, i as u64)))
                .collect();
            assert_f64_close(&got, &d.ref_grad, 1e-9);
        }
        WorkloadResult {
            stats,
            checksum: expected,
            telemetry,
        }
    }

    fn run_indirect(&self, mode: Mode, cfg: &SystemConfig, seed: u64) -> WorkloadResult {
        let (image, d) = self.build_indirect(seed);
        let expected = checksum(d.ref_out.iter().map(|&v| quantize_f64(v)));
        let mut sys = System::new(cfg.clone(), image);
        if mode == Mode::Dx100 {
            // The mesh values A are recomputed by the host between gather
            // phases, and the host-built connectivity maps B and C are
            // re-walked every timestep. The indexed variants' accesses have
            // a windowed hot set (~4-8% of the mesh), so H-bits route the
            // engine's gathers via the LLC, where the window stays
            // resident — the same residency the baseline's loads enjoy.
            for h in [d.ha, d.hb, d.hc] {
                sys.mark_host_resident(h.base(), h.size_bytes());
            }
        }
        let place = Placement::of(&sys);
        let n_outer = d.k_list.len();
        let flat_len = d.flat.len();

        if mode == Mode::Dmp {
            let dmp = sys.dmp_mut().expect("DMP mode requires a DMP config");
            dmp.add_pattern(IndirectPattern::simple(
                d.hc.base(),
                d.c_map.len() as u64,
                DType::U32,
                d.hb.base(),
                DType::U32,
            ));
        }

        sys.roi_begin();
        match mode {
            Mode::Baseline | Mode::Dmp => {
                let (flat, c_map, b_map, mask) = (
                    d.flat.clone(),
                    d.c_map.clone(),
                    d.b_map.clone(),
                    d.mask.clone(),
                );
                let (hk, hh, hc, hb, hmask, ha, hout) =
                    (d.hk, d.hh, d.hc, d.hb, d.hmask, d.ha, d.hout);
                // Over the flattened (outer, j) pairs:
                // `if mask[j] >= F { out[j] = A[B[C[j]]] }`, plus the range
                // setup loads (K[i], H[K[i]]) at each new outer iteration
                // (each core starts its share with one).
                let mut last_outer = u32::MAX;
                place.push_loops(&mut sys, flat_len, move |idx, ops| {
                    let (outer, j) = flat[idx];
                    let ju = j as usize;
                    if outer != last_outer {
                        last_outer = outer;
                        ops.extend([
                            CoreOp::load(hk.addr_of(outer as u64), S_K),
                            CoreOp::alu().with_dep(1),
                            CoreOp::load(hh.addr_of(outer as u64 % hh.len()), S_H).with_dep(1),
                        ]);
                    }
                    ops.extend([
                        CoreOp::load(hmask.addr_of(j as u64), S_MASK),
                        CoreOp::alu().with_dep(1),
                    ]);
                    if mask[ju] as u64 >= F_THRESHOLD {
                        let c = c_map[ju];
                        ops.extend([
                            CoreOp::load(hc.addr_of(j as u64), S_C),
                            CoreOp::load(hb.addr_of(c as u64), S_B).with_dep(1),
                            CoreOp::load(ha.addr_of(b_map[c as usize] as u64), S_A).with_dep(1),
                            CoreOp::store(hout.addr_of(j as u64), S_OUT).with_dep(1),
                        ]);
                    }
                });
            }
            Mode::Dx100 => {
                // Outer tiles sized so fused ranges fit one tile (ranges are
                // ≤ 6 elements).
                let tile = cfg.dx100.as_ref().expect("dx100 config").tile_elems;
                let outer_per_tile = (tile / 8).max(1);
                let (hk, hh, hc, hb, hmask, ha, hout) =
                    (d.hk, d.hh, d.hc, d.hb, d.hmask, d.ha, d.hout);
                let budget = tile as u64;
                let jobs = place.tiles(n_outer, outer_per_tile).map(|s: TileSlot<8>| {
                    let (g, r) = (s.tiles(), s.regs());
                    s.job(
                        &[1, budget, F_THRESHOLD],
                        vec![
                            // K tile and its range bounds.
                            s.sld(DType::U32, hk.base(), g[0]),
                            Instruction::ild(DType::U32, hh.base(), g[1], g[0]), // lo = H[K]
                            Instruction::Alus {
                                dtype: DType::U32,
                                op: AluOp::Add,
                                td: g[2],
                                ts: g[0],
                                rs: r[3],
                                tc: None,
                            },
                            Instruction::ild(DType::U32, hh.base(), g[3], g[2]), // hi = H[K+1]
                            // Fuse ranges → (outer, j).
                            Instruction::Rng {
                                td1: g[4],
                                td2: g[5],
                                ts1: g[1],
                                ts2: g[3],
                                rs1: r[4],
                                tc: None,
                            },
                            // cond = mask[j] >= F.
                            Instruction::ild(DType::U32, hmask.base(), g[6], g[5]),
                            Instruction::Alus {
                                dtype: DType::U32,
                                op: AluOp::Ge,
                                td: g[7],
                                ts: g[6],
                                rs: r[5],
                                tc: None,
                            },
                            // Two-level gather A[B[C[j]]] (reuse g[1]/g[2]
                            // once their consumers are done — the
                            // scoreboard serializes as needed).
                            Instruction::ild(DType::U32, hc.base(), g[1], g[5])
                                .with_condition(g[7]),
                            Instruction::ild(DType::U32, hb.base(), g[2], g[1])
                                .with_condition(g[7]),
                            Instruction::ild(DType::F64, ha.base(), g[3], g[2])
                                .with_condition(g[7]),
                            // Scatter to out[j].
                            Instruction::ist(DType::F64, hout.base(), g[5], g[3])
                                .with_condition(g[7]),
                        ],
                    )
                });
                install_jobs(&mut sys, jobs);
            }
        }
        sys.run_until(System::cores_idle);
        sys.roi_end();
        let stats = sys.finish();
        let telemetry = sys.telemetry();

        if mode == Mode::Dx100 {
            let image = sys.into_image();
            let got: Vec<f64> = (0..d.ref_out.len())
                .map(|j| value::to_f64(image.read_elem(d.hout, j as u64)))
                .collect();
            assert_f64_close(&got, &d.ref_out, 1e-9);
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
    fn gzz_direct_verifies() {
        let k = Ume::zone(Scale(1.0 / 128.0), false);
        let b = k.run(Mode::Baseline, &SystemConfig::paper_baseline(), 9);
        let x = k.run(Mode::Dx100, &SystemConfig::paper_dx100(), 9);
        assert_eq!(b.checksum, x.checksum);
        assert!(x.stats.dx100.unwrap().condition_skips > 0);
    }

    #[test]
    fn gzzi_indirect_verifies() {
        let k = Ume::zone(Scale(1.0 / 128.0), true);
        let b = k.run(Mode::Baseline, &SystemConfig::paper_baseline(), 9);
        let x = k.run(Mode::Dx100, &SystemConfig::paper_dx100(), 9);
        assert_eq!(b.checksum, x.checksum);
    }

    #[test]
    fn gzp_and_gzpi_run() {
        let k = Ume::point(Scale(1.0 / 256.0), false);
        let x = k.run(Mode::Dx100, &SystemConfig::paper_dx100(), 2);
        assert!(x.stats.cycles > 0);
        let ki = Ume::point(Scale(1.0 / 256.0), true);
        let xi = ki.run(Mode::Dx100, &SystemConfig::paper_dx100(), 2);
        assert!(xi.stats.cycles > 0);
    }
}
