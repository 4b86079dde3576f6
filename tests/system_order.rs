//! System-glue ordering and routing regressions:
//!
//! * MMIO delivery must keep register writes behind older instructions on
//!   every machine: each instance applies its cores' stores in the order
//!   they land. A younger register write overtaking an instruction stalled
//!   on region acquisition corrupts its scalar-operand snapshot (this
//!   exact scenario lost BFS depth updates on the 8-core / 2-instance
//!   Figure 14 machine).
//! * `mark_host_resident` must steer the engine's accesses through the
//!   LLC (page-granular H-bits), and unmarked data must keep the
//!   direct-DRAM path.
//! * A program's barrier (`run_until`) checks before it steps, and the old
//!   `run(&mut NullDriver)` entry point is `finish()` under another name.

use dx100::common::DType;
use dx100::core::isa::{Instruction, RegId, TileId};
use dx100::core::MemoryImage;
use dx100::cpu::CoreOp;
use dx100::sim::driver::NullDriver;
use dx100::sim::{System, SystemConfig};

fn image_with_arrays(n: u64) -> (MemoryImage, Vec<dx100::core::ArrayHandle>) {
    let mut image = MemoryImage::new();
    let handles: Vec<_> = (0..3)
        .map(|k| {
            let h = image.alloc(["A", "B", "C"][k], DType::U32, n);
            for i in 0..n {
                image.write_elem(h, i, (k as u64 + 1) * 1000 + i * 10);
            }
            h
        })
        .collect();
    (image, handles)
}

/// The register snapshot of a queued instruction must come from program
/// order, not arrival-time races: a younger register write sent while
/// older instructions are still queued must not be visible. One instance
/// applies each store in the cycle it lands; on two, the gathers' region
/// acquisitions stall the queue while the clobber lands behind them.
#[test]
fn queued_instruction_ignores_younger_reg_write() {
    let machines = [
        ("one instance", SystemConfig::paper_dx100()),
        ("two instances", SystemConfig::scaled(8, 2)),
    ];
    for (machine, cfg) in machines {
        let (image, hs) = image_with_arrays(256);
        let (a, b, c) = (hs[0], hs[1], hs[2]);
        let mut sys = System::new(cfg, image);

        let t_idx = TileId::new(0);
        let t_dst = TileId::new(1);
        let t_sld = TileId::new(2);
        let (r0, r1, r2) = (RegId::new(0), RegId::new(1), RegId::new(2));

        // A small index tile, installed directly (functional setup).
        sys.dx100(0).write_tile(t_idx, &[0, 1, 2, 3]);

        let f = sys.alloc_flag();
        sys.send_reg_write(0, r0, 5); // start = 5
        sys.send_reg_write(0, r1, 1); // stride = 1
        sys.send_reg_write(0, r2, 8); // count = 8

        // Three gathers to distinct regions: on two instances each first
        // touch stalls the delivery head for the region-acquisition
        // latency, so the SLD below sits queued long after the clobbering
        // register write lands.
        for array in [a, b, c] {
            sys.send_instruction(
                0,
                Instruction::ild(DType::U32, array.base(), t_dst, t_idx),
                None,
            );
        }
        sys.send_instruction(
            0,
            Instruction::sld(DType::U32, a.base(), t_sld, r0, r1, r2),
            Some(f),
        );
        // The clobber: one MMIO beat, sent after the SLD.
        sys.send_reg_write(0, r0, 99);
        sys.push_wait(0, f, false);

        sys.run_until(System::cores_idle);
        sys.finish();

        // SLD must have streamed A[5..13] (start 5), not A[99..107].
        let tile = sys.dx100_ref(0).tile(t_sld);
        assert_eq!(tile.len(), Some(8), "{machine}");
        let got: Vec<u64> = (0..8).map(|i| tile.valid()[i]).collect();
        let want: Vec<u64> = (5..13).map(|i| 1000 + i * 10).collect();
        assert_eq!(
            got, want,
            "{machine}: SLD snapshotted the younger register value"
        );
    }
}

/// H-bit routing: marked pages send the engine to the LLC; unmarked pages
/// go direct to DRAM.
#[test]
fn host_resident_pages_route_via_llc() {
    for marked in [false, true] {
        let (image, hs) = image_with_arrays(4096);
        let a = hs[0];
        let cfg = SystemConfig::scaled(4, 1);
        let mut sys = System::new(cfg, image);
        if marked {
            sys.mark_host_resident(a.base(), a.size_bytes());
        }
        let t_idx = TileId::new(0);
        let t_dst = TileId::new(1);
        let idx: Vec<u64> = (0..512).map(|i| (i * 37) % 4096).collect();
        sys.dx100(0).write_tile(t_idx, &idx);
        let f = sys.alloc_flag();
        sys.roi_begin();
        sys.send_instruction(
            0,
            Instruction::ild(DType::U32, a.base(), t_dst, t_idx),
            Some(f),
        );
        sys.push_wait(0, f, false);
        sys.run_until(System::cores_idle);
        sys.finish();
        sys.roi_end();
        let stats = sys.collect_stats();
        let llc_dx = stats.hierarchy.llc.dx100_accesses;
        if marked {
            assert!(llc_dx > 0, "marked pages should be looked up in the LLC");
        } else {
            assert_eq!(llc_dx, 0, "unmarked cold pages must go direct to DRAM");
        }
        // Routing never changes results.
        let tile = sys.dx100_ref(0).tile(t_dst);
        for (i, &ix) in idx.iter().enumerate() {
            assert_eq!(tile.valid()[i], 1000 + ix * 10);
        }
    }
}

/// Repeated gathers of a marked array hit the LLC after first touch —
/// the reuse-capture behaviour the Figure 9 kernels rely on.
#[test]
fn marked_pages_capture_reuse_across_instructions() {
    let (image, hs) = image_with_arrays(4096);
    let a = hs[0];
    let cfg = SystemConfig::scaled(4, 1);
    let mut sys = System::new(cfg, image);
    sys.mark_host_resident(a.base(), a.size_bytes());
    let t_idx = TileId::new(0);
    let idx: Vec<u64> = (0..512).map(|i| (i * 13) % 4096).collect();
    sys.dx100(0).write_tile(t_idx, &idx);
    sys.roi_begin();
    let mut flag = None;
    for round in 0..3 {
        let f = sys.alloc_flag();
        sys.send_instruction(
            0,
            Instruction::ild(DType::U32, a.base(), TileId::new(1 + round), t_idx),
            Some(f),
        );
        flag = Some(f);
    }
    sys.push_wait(0, flag.unwrap(), false);
    sys.run_until(System::cores_idle);
    sys.finish();
    sys.roi_end();
    let stats = sys.collect_stats();
    let llc = &stats.hierarchy.llc;
    assert!(
        llc.dx100_hits * 2 > llc.dx100_accesses,
        "later rounds should mostly hit lines allocated by round one \
         (hits {} of {})",
        llc.dx100_hits,
        llc.dx100_accesses
    );
}

/// `run(&mut NullDriver)` must give the same statistics, trace and epochs
/// as `finish()`; `run_until` must not step while its predicate holds.
#[test]
fn run_is_finish_and_a_met_barrier_does_not_step() {
    let build = || {
        let (image, hs) = image_with_arrays(4096);
        let mut cfg = SystemConfig::paper_baseline();
        cfg.obs.trace = true;
        cfg.obs.epoch_cycles = Some(500);
        let mut sys = System::new(cfg, image);
        let loads = (0..64).map(|i| CoreOp::load(hs[0].addr_of(i * 61 % 4096), 1));
        sys.push_ops(0, loads);
        sys
    };
    let via_run = format!("{:?}", build().run(&mut NullDriver));
    assert_eq!(via_run, format!("{:?}", build().finish()));

    let mut sys = build();
    let mut checks = 0;
    sys.run_until(|_| {
        checks += 1;
        true
    });
    assert_eq!(checks, 1, "a met predicate is checked once");
    assert_eq!(sys.collect_stats().cycles, 0, "a met barrier stepped");
    sys.run_until(System::cores_idle);
    let drained_at = sys.collect_stats().cycles;
    assert!(drained_at > 0);
    sys.run_until(System::cores_idle);
    assert_eq!(
        sys.collect_stats().cycles,
        drained_at,
        "a met barrier stepped"
    );
}
