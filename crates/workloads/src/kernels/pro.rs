//! Hash-Join PRO: bucket-chaining radix join *probe* — array-based
//! linked-list traversal `nodes[next_idx[i]]`, the pattern Section 4.1
//! highlights ("DX100 accelerates this pattern by processing bulk
//! linked-list traversal operations across many tuples").
//!
//! The hash table is bucket-chained: `head[h]` points at a node, nodes link
//! through `next[]`. A probe walks its chain comparing keys. The baseline
//! pays a dependent-load chain per step; DX100 walks *all* probes' chains in
//! lockstep rounds — per round one bulk `ILD` per array with a shrinking
//! active mask.

use std::sync::Arc;

use dx100_common::{AluOp, DType};
use dx100_core::isa::Instruction;
use dx100_core::ArrayHandle;
use dx100_cpu::CoreOp;
use dx100_prefetch::IndirectPattern;
use dx100_sim::{System, SystemConfig};

use crate::datasets::rng;
use crate::util::{checksum, install_jobs, Placement, TileSlot};
use crate::{KernelRun, Mode, Scale, WorkloadResult};
use rand::Rng;

const S_PROBE: u32 = 1;
const S_HEAD: u32 = 2;
const S_NKEY: u32 = 3;
const S_NEXT: u32 = 4;
const S_FOUND: u32 = 5;

/// Chain-walk rounds (build sizing keeps chains within this bound for the
/// probes that match).
const ROUNDS: usize = 4;

/// The PRO kernel.
#[derive(Debug, Clone)]
pub struct RadixJoinChaining {
    tuples: usize,
}

impl RadixJoinChaining {
    /// Default: 2^18 build tuples, 2^18 probes, 2^16 buckets (avg chain 4).
    pub fn new(scale: Scale) -> Self {
        RadixJoinChaining {
            tuples: scale.apply(1 << 18, 1 << 10),
        }
    }
}

struct Data {
    probes: Arc<Vec<u32>>,
    node_keys: Arc<Vec<u32>>,
    next: Arc<Vec<u32>>,
    head: Arc<Vec<u32>>,
    h_probe: ArrayHandle,
    h_head: ArrayHandle,
    h_nkey: ArrayHandle,
    h_next: ArrayHandle,
    h_found: ArrayHandle,
    h_iota: ArrayHandle,
    ref_found: Vec<u32>,
    mask: u32,
    sentinel: u32,
}

impl RadixJoinChaining {
    fn build(&self, seed: u64) -> (dx100_core::MemoryImage, Data) {
        let n = self.tuples;
        let buckets = (n / 4).next_power_of_two().max(16);
        let mask = (buckets - 1) as u32;
        let sentinel = n as u32;
        let mut r = rng(seed);
        // Build side: node i holds key build_keys[i]; chains via head/next.
        let node_keys: Vec<u32> = (0..n).map(|_| r.gen_range(1..u32::MAX)).collect();
        let mut head = vec![sentinel; buckets];
        let mut next = vec![sentinel; n + 1];
        for i in 0..n {
            let h = (node_keys[i] & mask) as usize;
            next[i] = head[h];
            head[h] = i as u32;
        }
        // Probe side: half hit (reuse a build key), half miss.
        let probes: Vec<u32> = (0..n)
            .map(|_| {
                if r.gen_bool(0.5) {
                    node_keys[r.gen_range(0..n)]
                } else {
                    r.gen_range(1..u32::MAX)
                }
            })
            .collect();
        // Reference: found within ROUNDS chain steps.
        let ref_found: Vec<u32> = probes
            .iter()
            .map(|&k| {
                let mut cur = head[(k & mask) as usize];
                for _ in 0..ROUNDS {
                    if cur == sentinel {
                        break;
                    }
                    if node_keys[cur as usize] == k {
                        return 1;
                    }
                    cur = next[cur as usize];
                }
                0
            })
            .collect();
        let mut image = dx100_core::MemoryImage::new();
        let h_probe = image.alloc("probes", DType::U32, n as u64);
        let h_head = image.alloc("head", DType::U32, buckets as u64);
        // One extra sentinel slot so gated lanes stay in bounds.
        let h_nkey = image.alloc("node_keys", DType::U32, (n + 1) as u64);
        let h_next = image.alloc("next", DType::U32, (n + 1) as u64);
        let h_found = image.alloc("found", DType::U32, n as u64);
        let h_iota = image.alloc("iota", DType::U32, n as u64);
        image.fill_u32(h_probe, &probes);
        image.fill_u32(h_head, &head);
        for (i, &k) in node_keys.iter().enumerate() {
            image.write_elem(h_nkey, i as u64, k as u64);
        }
        for (i, &v) in next.iter().enumerate() {
            image.write_elem(h_next, i as u64, v as u64);
        }
        for i in 0..n {
            image.write_elem(h_iota, i as u64, i as u64);
        }
        (
            image,
            Data {
                probes: Arc::new(probes),
                node_keys: Arc::new(node_keys),
                next: Arc::new(next),
                head: Arc::new(head),
                h_probe,
                h_head,
                h_nkey,
                h_next,
                h_found,
                h_iota,
                ref_found,
                mask,
                sentinel,
            },
        )
    }
}

impl KernelRun for RadixJoinChaining {
    fn name(&self) -> &'static str {
        "pro"
    }

    fn run(&self, mode: Mode, cfg: &SystemConfig, seed: u64) -> WorkloadResult {
        let (image, d) = self.build(seed);
        let expected = checksum(d.ref_found.iter().map(|&v| v as u64));
        let mut sys = System::new(cfg.clone(), image);
        if mode == Mode::Dx100 {
            // The hash table (head/node_keys/next) is built by the host
            // before the probe phase, so its pages carry H-bits: the
            // engine's probe gathers route via the LLC, capturing the
            // same residency the baseline's probes enjoy.
            for h in [d.h_head, d.h_nkey, d.h_next] {
                sys.mark_host_resident(h.base(), h.size_bytes());
            }
        }
        let place = Placement::of(&sys);
        let n = self.tuples;

        if mode == Mode::Dmp {
            let dmp = sys.dmp_mut().expect("DMP mode requires a DMP config");
            // DMP can cover the first hop (head[hash(probe)]); the
            // chain hops are data-dependent beyond its reach.
            dmp.add_pattern(IndirectPattern {
                index_base: d.h_probe.base(),
                index_len: n as u64,
                index_dtype: DType::U32,
                target_base: d.h_head.base(),
                target_dtype: DType::U32,
                index_shift: 0,
                index_mask: d.mask as u64,
            });
        }

        sys.roi_begin();
        match mode {
            Mode::Baseline | Mode::Dmp => {
                // Hash, then a dependent chain walk with early exit
                // (replayed from the functional state).
                let (probes, node_keys, next, head) = (
                    d.probes.clone(),
                    d.node_keys.clone(),
                    d.next.clone(),
                    d.head.clone(),
                );
                let (h_probe, h_head, h_nkey, h_next, h_found) =
                    (d.h_probe, d.h_head, d.h_nkey, d.h_next, d.h_found);
                let (mask, sentinel) = (d.mask, d.sentinel);
                place.push_loops(&mut sys, n, move |i, ops| {
                    let k = probes[i];
                    let h = (k & mask) as usize;
                    ops.extend([
                        CoreOp::load(h_probe.addr_of(i as u64), S_PROBE),
                        CoreOp::alu().with_dep(1), // hash
                        CoreOp::load(h_head.addr_of(h as u64), S_HEAD).with_dep(1),
                    ]);
                    let mut cur = head[h];
                    for _ in 0..ROUNDS {
                        if cur == sentinel {
                            break;
                        }
                        // Dependent loads: node key, compare, then
                        // the next pointer.
                        ops.extend([
                            CoreOp::load(h_nkey.addr_of(cur as u64), S_NKEY).with_dep(1),
                            CoreOp::alu().with_dep(1), // compare
                        ]);
                        if node_keys[cur as usize] == k {
                            break;
                        }
                        ops.push_back(CoreOp::load(h_next.addr_of(cur as u64), S_NEXT).with_dep(3));
                        cur = next[cur as usize];
                    }
                    ops.push_back(CoreOp::store(h_found.addr_of(i as u64), S_FOUND).with_dep(1));
                });
            }
            Mode::Dx100 => {
                let tile = cfg.dx100.as_ref().expect("dx100 config").tile_elems;
                let (h_probe, h_head, h_nkey, h_next, h_found, h_iota) =
                    (d.h_probe, d.h_head, d.h_nkey, d.h_next, d.h_found, d.h_iota);
                let (mask, sentinel) = (d.mask as u64, d.sentinel as u64);
                let jobs = place.tiles(n, tile).map(|s: TileSlot<8>| {
                    let (g, r) = (s.tiles(), s.regs());
                    // g0 probes, g1 iota, cur: g2↔g3, active: g4↔g5,
                    // scratch: g6 (node keys / lt), g7 (eq).
                    let mut instrs = vec![
                        s.sld(DType::U32, h_probe.base(), g[0]),
                        s.sld(DType::U32, h_iota.base(), g[1]),
                        // bucket = probe & mask
                        Instruction::Alus {
                            dtype: DType::U32,
                            op: AluOp::And,
                            td: g[6],
                            ts: g[0],
                            rs: r[3],
                            tc: None,
                        },
                        // cur = head[bucket]
                        Instruction::ild(DType::U32, h_head.base(), g[2], g[6]),
                        // active = cur < sentinel
                        Instruction::Alus {
                            dtype: DType::U32,
                            op: AluOp::Lt,
                            td: g[4],
                            ts: g[2],
                            rs: r[4],
                            tc: None,
                        },
                    ];
                    for round in 0..ROUNDS {
                        let (cur, curn) = if round % 2 == 0 {
                            (g[2], g[3])
                        } else {
                            (g[3], g[2])
                        };
                        let (act, actn) = if round % 2 == 0 {
                            (g[4], g[5])
                        } else {
                            (g[5], g[4])
                        };
                        instrs.extend([
                            // node keys for active lanes (0 elsewhere)
                            Instruction::ild(DType::U32, h_nkey.base(), g[6], cur)
                                .with_condition(act),
                            // eq = active & (node key == probe key)
                            Instruction::Aluv {
                                dtype: DType::U32,
                                op: AluOp::Eq,
                                td: g[7],
                                ts1: g[6],
                                ts2: g[0],
                                tc: Some(act),
                            },
                            // record matches: found[iota] = 1 where eq
                            Instruction::Ist {
                                dtype: DType::U32,
                                base: h_found.base(),
                                ts1: g[1],
                                ts2: g[7],
                                tc: Some(g[7]),
                            },
                            // advance the chain
                            Instruction::ild(DType::U32, h_next.base(), curn, cur)
                                .with_condition(act),
                            // still-in-chain test, folded with the mask
                            Instruction::Alus {
                                dtype: DType::U32,
                                op: AluOp::Lt,
                                td: g[6],
                                ts: curn,
                                rs: r[4],
                                tc: None,
                            },
                            Instruction::Aluv {
                                dtype: DType::U32,
                                op: AluOp::And,
                                td: actn,
                                ts1: g[4 + round % 2],
                                ts2: g[6],
                                tc: None,
                            },
                        ]);
                    }
                    s.job(&[mask, sentinel], instrs)
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
            for (i, want) in d.ref_found.iter().enumerate() {
                assert_eq!(
                    image.read_elem(d.h_found, i as u64) as u32,
                    *want,
                    "found[{i}] (probe key {})",
                    d.probes[i]
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
    fn chain_walk_verified() {
        let k = RadixJoinChaining::new(Scale(1.0 / 128.0));
        let b = k.run(Mode::Baseline, &SystemConfig::paper_baseline(), 6);
        let x = k.run(Mode::Dx100, &SystemConfig::paper_dx100(), 6);
        assert_eq!(b.checksum, x.checksum);
    }
}
