//! End-to-end system tests: a gather kernel run three ways — baseline core
//! loop, DMP-assisted baseline, and DX100-offloaded — on the full machine
//! (cores + caches + DRAM + accelerator).

use dx100_common::DType;
use dx100_core::isa::{Instruction, RegId, TileId};
use dx100_core::{ArrayHandle, MemoryImage};
use dx100_cpu::CoreOp;
use dx100_prefetch::IndirectPattern;
use dx100_sim::{RunStats, System, SystemConfig};

const T0: TileId = TileId::new(0);
const T1: TileId = TileId::new(1);
const R0: RegId = RegId::new(0);
const R1: RegId = RegId::new(1);
const R2: RegId = RegId::new(2);

struct Setup {
    image: MemoryImage,
    a: ArrayHandle,
    b: ArrayHandle,
    n: u64,
}

fn make_setup(n: u64, a_len: u64) -> Setup {
    let mut image = MemoryImage::new();
    let a = image.alloc("A", DType::U32, a_len);
    let b = image.alloc("B", DType::U32, n);
    for i in 0..a_len {
        image.write_elem(a, i, (i * 7 + 3) & 0xffff);
    }
    for i in 0..n {
        // Pseudo-random indices spread over A.
        image.write_elem(b, i, (i.wrapping_mul(2654435761)) % a_len);
    }
    Setup { image, a, b, n }
}

fn expected_gather(s: &Setup) -> Vec<u64> {
    (0..s.n)
        .map(|i| {
            let idx = s.image.read_elem(s.b, i);
            s.image.read_elem(s.a, idx)
        })
        .collect()
}

/// Baseline loop body: load B[i], address calc, load A[B[i]].
fn baseline_ops(s: &Setup, core: usize, cores: usize) -> Vec<CoreOp> {
    let mut ops = Vec::new();
    let chunk = s.n / cores as u64;
    let (lo, hi) = (core as u64 * chunk, ((core as u64 + 1) * chunk).min(s.n));
    for i in lo..hi {
        let idx = s.image.read_elem(s.b, i);
        ops.push(CoreOp::load(s.b.addr_of(i), 1)); // index load
        ops.push(CoreOp::alu().with_dep(1)); // address calculation
        ops.push(CoreOp::Load {
            addr: s.a.addr_of(idx),
            stream: 2,
            dep: [1, 0], // depends on the address calc
        });
        ops.push(CoreOp::alu().with_dep(1)); // consume
    }
    ops
}

/// The DX100 gather program on core 0: stream `B` into a tile, gather
/// `A[B[i]]` into another, and wait on the gather's ready flag.
fn dx100_gather(sys: &mut System, a: ArrayHandle, b: ArrayHandle, n: u64) -> RunStats {
    sys.roi_begin();
    let f = sys.alloc_flag();
    sys.send_reg_write(0, R0, 0);
    sys.send_reg_write(0, R1, 1);
    sys.send_reg_write(0, R2, n);
    sys.send_instruction(
        0,
        Instruction::sld(DType::U32, b.base(), T0, R0, R1, R2),
        None,
    );
    let ild = Instruction::ild(DType::U32, a.base(), T1, T0);
    sys.send_instruction(0, ild, Some(f));
    sys.push_wait(0, f, false);
    sys.run_until(|sys| sys.flag(f));
    sys.finish()
}

#[test]
fn dx100_gather_produces_correct_data() {
    let s = make_setup(2048, 256 * 1024);
    let expect = expected_gather(&s);
    let mut sys = System::new(SystemConfig::paper_dx100(), s.image);
    let stats = dx100_gather(&mut sys, s.a, s.b, s.n);
    assert_eq!(sys.dx100_ref(0).tile(T1).valid(), &expect[..]);
    assert!(stats.cycles > 0);
    let dx = stats.dx100.unwrap();
    assert_eq!(dx.instructions_retired, 2);
    assert!(dx.indirect_line_reads > 0);
    // The accelerator leaves the cores nearly idle: tiny instruction count.
    assert!(
        stats.instructions < 200,
        "DX100 run must be instruction-light, got {}",
        stats.instructions
    );
}

#[test]
fn baseline_gather_runs_to_completion() {
    let s = make_setup(2048, 256 * 1024);
    let per_core: Vec<Vec<CoreOp>> = (0..4).map(|c| baseline_ops(&s, c, 4)).collect();
    let mut sys = System::new(SystemConfig::paper_baseline(), s.image);
    for (c, ops) in per_core.into_iter().enumerate() {
        sys.push_ops(c, ops);
    }
    sys.roi_begin();
    let stats = sys.finish();
    // 2048 iterations × 4 µops.
    assert_eq!(stats.instructions, 2048 * 4);
    assert!(stats.cycles > 0);
    assert!(stats.hierarchy.l1.demand_accesses() >= 2 * 2048);
    assert!(stats.dram.requests() > 0, "random gather must reach DRAM");
}

#[test]
fn dx100_beats_baseline_on_allmiss_gather() {
    // Large enough that indirect accesses miss the LLC.
    let n = 4096;
    let a_len = 4 * 1024 * 1024; // 16 MB of u32 — exceeds every cache
    let s = make_setup(n, a_len);
    let (b_handle, a_handle) = (s.b, s.a);
    let _ = (b_handle, a_handle);
    let mut base_sys = System::new(SystemConfig::paper_baseline(), s.image);
    for c in 0..4 {
        let chunk = n / 4;
        let (lo, hi) = (c as u64 * chunk, (c as u64 + 1) * chunk);
        let mut ops = Vec::new();
        for i in lo..hi {
            let idx = base_sys.image_ref().read_elem(s.b, i);
            ops.push(CoreOp::load(s.b.addr_of(i), 1));
            ops.push(CoreOp::alu().with_dep(1));
            ops.push(CoreOp::Load {
                addr: s.a.addr_of(idx),
                stream: 2,
                dep: [1, 0],
            });
            ops.push(CoreOp::alu().with_dep(1));
        }
        base_sys.push_ops(c as usize, ops);
    }
    base_sys.roi_begin();
    let base = base_sys.finish();

    let s2 = make_setup(n, a_len);
    let mut dx_sys = System::new(SystemConfig::paper_dx100(), s2.image);
    let dx = dx100_gather(&mut dx_sys, s2.a, s2.b, n);

    let speedup = dx.speedup_over(&base);
    assert!(
        speedup > 1.5,
        "DX100 must clearly win the all-miss gather: speedup {speedup:.2} \
         (base {} cycles, dx {} cycles, dx bw {:.2}, base bw {:.2})",
        base.cycles,
        dx.cycles,
        dx.bandwidth_utilization(),
        base.bandwidth_utilization()
    );
    assert!(
        dx.bandwidth_utilization() > base.bandwidth_utilization(),
        "DX100 must raise DRAM bandwidth utilization"
    );
}

#[test]
fn dmp_prefetcher_reduces_baseline_cycles() {
    let n = 4096;
    let a_len = 4 * 1024 * 1024;

    let run = |cfg: SystemConfig| {
        let s = make_setup(n, a_len);
        let (a, b) = (s.a, s.b);
        let mut sys = System::new(cfg, s.image);
        if let Some(dmp) = sys.dmp_mut() {
            dmp.add_pattern(IndirectPattern::simple(
                b.base(),
                n,
                DType::U32,
                a.base(),
                DType::U32,
            ));
        }
        for c in 0..4usize {
            let chunk = n / 4;
            let (lo, hi) = (c as u64 * chunk, (c as u64 + 1) * chunk);
            let mut ops = Vec::new();
            for i in lo..hi {
                let idx = sys.image_ref().read_elem(b, i);
                ops.push(CoreOp::load(b.addr_of(i), 1));
                ops.push(CoreOp::alu().with_dep(1));
                ops.push(CoreOp::Load {
                    addr: a.addr_of(idx),
                    stream: 2,
                    dep: [1, 0],
                });
                ops.push(CoreOp::alu().with_dep(1));
            }
            sys.push_ops(c, ops);
        }
        sys.roi_begin();
        sys.finish()
    };

    let base = run(SystemConfig::paper_baseline());
    let dmp = run(SystemConfig::paper_dmp());
    assert!(dmp.dmp_prefetches > 0, "DMP must issue prefetches");
    assert!(
        dmp.cycles < base.cycles,
        "DMP must reduce cycles: base {}, dmp {}",
        base.cycles,
        dmp.cycles
    );
}
