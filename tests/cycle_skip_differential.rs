//! Differential and property tests for activity gating (`cycle_skip`).
//!
//! Gating in `System::step` must be *invisible*: with `cycle_skip` on,
//! every kernel must produce bit-identical statistics, epoch samples, and
//! trace events to a run that ticks every unit every cycle — only
//! wall-clock time may differ. These tests run every paper kernel both
//! ways and compare (plus the two-instance Figure 14 machine), drive one
//! tiny machine per wake edge (an input reaching a sleeping unit), check
//! that whole-system sleep engages on an idle-heavy run, and property-test
//! the `next_event` contracts of the two substrate schedulers
//! ([`DelayQueue`] and the DRAM channel controller) that sleeping is built
//! on.

use dx100::common::hash::fnv1a_64;
use dx100::common::{Cycle, DType, DelayQueue, LineAddr};
use dx100::core::isa::{Instruction, TileId};
use dx100::cpu::CoreOp;
use dx100::dram::{DramConfig, DramSystem, MemRequest};
use dx100::mem::{Access, HierarchyConfig, MemoryHierarchy, Requester};
use dx100::sim::{System, SystemConfig};
use dx100::workloads::micro::allhit::{run_allhit, MicroKind};
use dx100::workloads::{all_kernels, Mode, Scale};
use dx100_core::MemoryImage;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::VecDeque;

/// Small enough that a full kernel sweep stays test-suite friendly.
const TINY: Scale = Scale(1.0 / 128.0);
const SEED: u64 = 7;

fn cfg_for(mode: Mode, skip: bool) -> SystemConfig {
    let mut cfg = match mode {
        Mode::Baseline => SystemConfig::paper_baseline(),
        Mode::Dmp => SystemConfig::paper_dmp(),
        Mode::Dx100 => SystemConfig::paper_dx100(),
    };
    cfg.cycle_skip = skip;
    // Enable every observer so the comparison covers trace events and
    // epoch samples, not just end-of-run counters.
    cfg.obs.trace = true;
    cfg.obs.epoch_cycles = Some(5000);
    cfg
}

/// Pinned results of every skip-on run below: (kernel, machine, checksum,
/// FNV-1a 64 of `format!("{:?}", stats)`). The on/off differentials only
/// show that skipping is invisible; these show that the simulated machine
/// itself has not moved, so a host-side optimisation that shifts the same
/// bit with skipping on and off still fails. Regenerate only for an
/// intended modeling change, and say which one.
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("is", "baseline", 0x14a1aeaa43b49145, 0x6e7a24fda5b0f33d),
    ("is", "dx100", 0x14a1aeaa43b49145, 0x3e9b79a9af26286d),
    ("is", "dmp", 0x14a1aeaa43b49145, 0x2ade744c05c203be),
    ("cg", "baseline", 0x11561c64df287325, 0x56a79fb18a2ede46),
    ("cg", "dx100", 0x11561c64df287325, 0xbc5012b9ba7cd271),
    ("bfs", "baseline", 0x368d41b0f0767ea6, 0x072af24867a2fc7f),
    ("bfs", "dx100", 0x368d41b0f0767ea6, 0x56653ce4085c7275),
    ("bc", "baseline", 0xcf2b7fb169eb0d88, 0x5405ff6b0bd3bc9f),
    ("bc", "dx100", 0xcf2b7fb169eb0d88, 0x0d8a9a77cc8fd646),
    ("pr", "baseline", 0xa417bcb2df287325, 0xfe9069d9c19d523e),
    ("pr", "dx100", 0xa417bcb2df287325, 0x99ad780acc0e4cec),
    ("pr", "dmp", 0xa417bcb2df287325, 0xd894d915ef75c01b),
    ("prh", "baseline", 0x451947af0caefe72, 0x8de2772671f47c13),
    ("prh", "dx100", 0x451947af0caefe72, 0x695ec3d4db3b8c8d),
    ("pro", "baseline", 0x234dd112922cffed, 0x4d664096c07fd802),
    ("pro", "dx100", 0x234dd112922cffed, 0x9291177c07ba673d),
    ("gzz", "baseline", 0xd64b75cfce3b6325, 0x05fdefbd6b493638),
    ("gzz", "dx100", 0xd64b75cfce3b6325, 0xdce252d13fa0e14c),
    ("gzzi", "baseline", 0x7f6a8fbfdb08a0f7, 0x9d44439a07e32038),
    ("gzzi", "dx100", 0x7f6a8fbfdb08a0f7, 0x0be5133c923f0c9c),
    ("gzp", "baseline", 0xd3ace571ce3b6325, 0xde83ebef4b85dec6),
    ("gzp", "dx100", 0xd3ace571ce3b6325, 0x126295474bafaa0b),
    ("gzpi", "baseline", 0xecc21a7ddb08a0f7, 0x92f7084ff8759795),
    ("gzpi", "dx100", 0xecc21a7ddb08a0f7, 0xadf3cea7df7f3bb3),
    ("xrage", "baseline", 0xf43bad5b6ef1dd5b, 0xf3f524f0afd5686d),
    ("xrage", "dx100", 0xf43bad5b6ef1dd5b, 0x551a634da7b61a5f),
];

/// Pinned results of the two-instance runs below, recorded like
/// [`GOLDEN`]: (kernel, checksum, FNV-1a 64 of the stats' Debug form).
const GOLDEN_TWO_INSTANCE: &[(&str, u64, u64)] = &[
    ("is", 0x14a1aeaa43b49145, 0x851c243e12ab36e9),
    ("gzz", 0xd64b75cfce3b6325, 0xfd198b271a63150b),
];

/// Pinned Figure 8a all-hit micros, skip on, recorded like [`GOLDEN`]:
/// (micro, machine, FNV-1a 64 of the stats' Debug form). The two RMW
/// micros share one DX100 program, hence one digest.
const GOLDEN_MICRO: &[(&str, &str, u64)] = &[
    ("gather-spd", "baseline", 0xcbcbd0fd3db8e27c),
    ("gather-spd", "dx100", 0xc94b43d72f0c2bc1),
    ("gather-full", "baseline", 0x2652b2c11433976a),
    ("gather-full", "dx100", 0x5d728973714c2800),
    ("rmw-atomic", "baseline", 0xcd98a5c601b76bb2),
    ("rmw-atomic", "dx100", 0x87dad8fb5e511121),
    ("rmw-noatom", "baseline", 0xecae09cfc817f3e1),
    ("rmw-noatom", "dx100", 0x87dad8fb5e511121),
    ("scatter", "baseline", 0x2466ff4167dec9d3),
    ("scatter", "dx100", 0x043d99d07e4c04f7),
];

/// Asserts one skip-on run against its [`GOLDEN`] entry.
fn assert_golden(kernel: &str, mode: Mode, checksum: u64, stats_debug: &str) {
    let &(_, _, want_checksum, want_digest) = GOLDEN
        .iter()
        .find(|g| g.0 == kernel && g.1 == mode.label())
        .unwrap_or_else(|| panic!("no golden entry for {kernel} [{}]", mode.label()));
    let label = format!("{kernel} [{}]", mode.label());
    assert_eq!(checksum, want_checksum, "checksum moved: {label}");
    assert_eq!(
        fnv1a_64(stats_debug.as_bytes()),
        want_digest,
        "simulated stats moved from the golden digest: {label}"
    );
}

/// Skip-on and skip-off runs must agree bit-for-bit: checksum, cycle
/// count, every counter, every epoch sample, every trace event. `RunStats`
/// has no `PartialEq`, but its `Debug` output prints floats with
/// shortest-roundtrip formatting, so Debug-string equality is bit equality.
#[test]
fn skip_on_off_bit_identical_all_kernels() {
    for kernel in all_kernels(TINY) {
        for mode in [Mode::Baseline, Mode::Dx100] {
            let on = kernel.run(mode, &cfg_for(mode, true), SEED);
            let off = kernel.run(mode, &cfg_for(mode, false), SEED);
            let label = format!("{} [{}]", kernel.name(), mode.label());
            assert_eq!(on.checksum, off.checksum, "checksum diverged: {label}");
            let on_debug = format!("{:?}", on.stats);
            assert_eq!(
                on_debug,
                format!("{:?}", off.stats),
                "stats diverged with cycle skipping: {label}"
            );
            assert_golden(kernel.name(), mode, on.checksum, &on_debug);
        }
    }
}

/// The DMP prefetcher path (pending injections keep the system awake and
/// wake the L2s they land in) gets its own differential pass on the two
/// most prefetch-sensitive kernels.
#[test]
fn skip_on_off_bit_identical_dmp() {
    for kernel in all_kernels(TINY) {
        if !matches!(kernel.name(), "is" | "pr") {
            continue;
        }
        let on = kernel.run(Mode::Dmp, &cfg_for(Mode::Dmp, true), SEED);
        let off = kernel.run(Mode::Dmp, &cfg_for(Mode::Dmp, false), SEED);
        assert_eq!(
            on.checksum,
            off.checksum,
            "checksum diverged: {}",
            kernel.name()
        );
        let on_debug = format!("{:?}", on.stats);
        assert_eq!(
            on_debug,
            format!("{:?}", off.stats),
            "stats diverged with cycle skipping: {} [dmp]",
            kernel.name()
        );
        assert_golden(kernel.name(), Mode::Dmp, on.checksum, &on_debug);
    }
}

/// Figure 14's two-instance machine (8 cores, 4 DRAM channels, two DX100
/// engines) runs region coherence and the in-order MMIO delivery queues,
/// whose deliveries wake engines; no single-instance run covers them.
#[test]
fn skip_on_off_bit_identical_two_instances() {
    for kernel in all_kernels(TINY) {
        let Some(&(_, want_checksum, want_digest)) =
            GOLDEN_TWO_INSTANCE.iter().find(|g| g.0 == kernel.name())
        else {
            continue;
        };
        let run = |skip: bool| {
            let mut cfg = SystemConfig::scaled(8, 2);
            cfg.cycle_skip = skip;
            cfg.obs.trace = true;
            cfg.obs.epoch_cycles = Some(5000);
            kernel.run(Mode::Dx100, &cfg, SEED)
        };
        let (on, off) = (run(true), run(false));
        let label = format!("{} [8 cores, 2 instances]", kernel.name());
        let on_debug = format!("{:?}", on.stats);
        assert_eq!(
            on_debug,
            format!("{:?}", off.stats),
            "stats diverged: {label}"
        );
        assert_eq!(on.checksum, off.checksum, "checksum diverged: {label}");
        assert_eq!(on.checksum, want_checksum, "checksum moved: {label}");
        assert_eq!(
            fnv1a_64(on_debug.as_bytes()),
            want_digest,
            "simulated stats moved from the golden digest: {label}"
        );
    }
}

/// The Figure 8a micros have programs of their own (a warm pass before
/// the region of interest, one block per core as a tile); no kernel run
/// covers them.
#[test]
fn allhit_micros_match_goldens() {
    for kind in MicroKind::ALL {
        for mode in [Mode::Baseline, Mode::Dx100] {
            let stats = run_allhit(kind, mode == Mode::Dx100, &cfg_for(mode, true), SEED);
            let label = format!("{} [{}]", kind.label(), mode.label());
            let &(_, _, want_digest) = GOLDEN_MICRO
                .iter()
                .find(|g| g.0 == kind.label() && g.1 == mode.label())
                .unwrap_or_else(|| panic!("no golden entry for {label}"));
            assert_eq!(
                fnv1a_64(format!("{stats:?}").as_bytes()),
                want_digest,
                "simulated stats moved from the golden digest: {label}"
            );
        }
    }
}

fn cfg_profiled(mode: Mode, skip: bool) -> SystemConfig {
    let mut cfg = cfg_for(mode, skip);
    cfg.obs.profile = true;
    cfg
}

/// With profiling on, the attribution itself must be bit-identical between
/// gating on and off: every slept span is batch-credited through the same
/// rules that credit stats, and the counter-event series is sampled only at
/// settle points, which are never elided. Also re-checks the MECE sums in
/// release builds, where `collect_profile`'s debug_asserts are compiled
/// out.
#[test]
fn profile_bit_identical_skip_on_off() {
    for kernel in all_kernels(TINY) {
        for mode in [Mode::Baseline, Mode::Dx100] {
            let on = kernel.run(mode, &cfg_profiled(mode, true), SEED);
            let off = kernel.run(mode, &cfg_profiled(mode, false), SEED);
            let label = format!("{} [{}]", kernel.name(), mode.label());
            assert_eq!(
                on.telemetry.profile, off.telemetry.profile,
                "cycle attribution diverged with cycle skipping: {label}"
            );
            assert_eq!(
                on.telemetry.counters, off.telemetry.counters,
                "counter-event series diverged with cycle skipping: {label}"
            );
            let p = on.telemetry.profile.as_ref().expect("profile enabled");
            // MECE: all core-cycles land in exactly one bucket or `drained`.
            assert_eq!(
                p.cores.attributed() + p.core_drained,
                p.elapsed * p.num_cores as u64,
                "core attribution does not sum to elapsed core-cycles: {label}"
            );
            // Every DX100 instance attributes each elapsed cycle once.
            if let Some(e) = &p.engines {
                assert!(
                    e.attributed() > 0 && e.attributed() % p.elapsed == 0,
                    "engine attribution is not a whole number of instances: {label}"
                );
            }
            // Channels tick in lockstep; each attributes every tick once.
            for (i, ch) in p.dram.iter().enumerate() {
                assert_eq!(
                    ch.attributed(),
                    p.dram[0].attributed(),
                    "channel {i} attributed a different tick count: {label}"
                );
                assert_eq!(
                    ch.queue_depth.total(),
                    ch.attributed(),
                    "channel {i} queue-depth samples != ticks: {label}"
                );
            }
        }
    }
}

/// Turning the profiler on must not perturb the simulation: `RunStats`
/// (including traces and epoch samples, which `cfg_for` enables) and the
/// checksum stay byte-identical with `--profile` on vs off.
#[test]
fn run_stats_identical_profile_on_off() {
    for kernel in all_kernels(TINY) {
        for mode in [Mode::Baseline, Mode::Dx100] {
            let prof = kernel.run(mode, &cfg_profiled(mode, true), SEED);
            let bare = kernel.run(mode, &cfg_for(mode, true), SEED);
            let label = format!("{} [{}]", kernel.name(), mode.label());
            assert_eq!(prof.checksum, bare.checksum, "checksum diverged: {label}");
            assert_eq!(
                format!("{:?}", prof.stats),
                format!("{:?}", bare.stats),
                "stats/trace/epochs diverged with profiling on: {label}"
            );
        }
    }
}

/// A serial pointer-chase over a cold array: one core, each load dependent
/// on the previous one, so the machine spends most cycles waiting on DRAM.
fn sparse_chase() -> (MemoryImage, Vec<CoreOp>) {
    let mut image = MemoryImage::new();
    let a = image.alloc("A", DType::U32, 1 << 20); // 4 MB, exceeds L2
    let mut ops = Vec::new();
    let mut x = 0x9e3779b97f4a7c15u64;
    for i in 0..64u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let idx = (x >> 33) % (1 << 20);
        let load = CoreOp::load(a.addr_of(idx), 1);
        ops.push(if i == 0 { load } else { load.with_dep(1) });
    }
    (image, ops)
}

/// Skipping must actually engage on an idle-heavy run (otherwise the whole
/// optimisation could silently regress to a no-op) while leaving the final
/// cycle count untouched.
#[test]
fn skip_engages_on_idle_heavy_run() {
    let run = |skip: bool| {
        let (image, ops) = sparse_chase();
        let mut cfg = SystemConfig::paper_baseline();
        cfg.cycle_skip = skip;
        let mut sys = System::new(cfg, image);
        sys.push_ops(0, ops);
        let stats = sys.finish();
        (stats.cycles, sys.skip_stats())
    };
    let (cycles_on, (skipped, skip_events)) = run(true);
    let (cycles_off, (skipped_off, _)) = run(false);
    assert_eq!(
        cycles_on, cycles_off,
        "skipping changed the final cycle count"
    );
    assert_eq!(
        skipped_off, 0,
        "skip telemetry must stay zero with skipping off"
    );
    assert!(
        skipped > cycles_on / 2,
        "a serial miss chain should skip most cycles: {skipped} of {cycles_on}"
    );
    assert!(skip_events > 0);
}

// ---------------------------------------------------------------------------
// One tiny machine per wake edge. Each scenario puts the receiving unit to
// sleep with no event of its own due, then delivers the input; a missed
// wake either leaves the unit asleep for good (the run hits `max_cycles`)
// or lets it tick late, and either way the gated run stops matching the
// ungated one.
// ---------------------------------------------------------------------------

/// A 16 MB array of `u32`: large enough that lines 64 KB apart miss every
/// cache and land in distinct DRAM rows.
fn big_image() -> (MemoryImage, dx100::core::ArrayHandle) {
    let mut image = MemoryImage::new();
    let a = image.alloc("A", DType::U32, 1 << 22);
    for i in 0..(1 << 12) {
        image.write_elem(a, i, i * 7 % 4096);
    }
    (image, a)
}

/// Runs `program` on `cfg` with gating on and off and asserts the two runs
/// agree bit for bit. A missed wake fails fast: `max_cycles` is small.
fn assert_gating_invisible(mut cfg: SystemConfig, program: impl Fn(&mut System)) {
    cfg.max_cycles = 1_000_000;
    cfg.obs.trace = true;
    cfg.obs.epoch_cycles = Some(500);
    let run = |skip: bool| {
        let mut cfg = cfg.clone();
        cfg.cycle_skip = skip;
        let (image, _) = big_image();
        let mut sys = System::new(cfg, image);
        program(&mut sys);
        sys.run_until(System::cores_idle);
        format!("{:?}", sys.finish())
    };
    assert_eq!(
        run(true),
        run(false),
        "gated run diverged from the ungated one"
    );
}

/// A load's completion wakes its core, asleep on a full ROB.
#[test]
fn completion_wakes_core_asleep_on_rob_full() {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.core.rob = 8;
    assert_gating_invisible(cfg, |sys| {
        let a = big_image().1;
        let mut ops: Vec<CoreOp> = (0..8)
            .map(|i| CoreOp::load(a.addr_of(i << 14), 1))
            .collect();
        ops.extend((0..32).map(|_| CoreOp::alu()));
        sys.push_ops(0, ops);
    });
}

/// A `SetFlag` wakes a waiter on another core: a higher-index waiter ticks
/// in the setter's own cycle, a lower-index one in the next.
#[test]
fn flag_set_by_a_core_wakes_waiters_in_order() {
    assert_gating_invisible(SystemConfig::paper_baseline(), |sys| {
        let (f, g) = (sys.alloc_flag(), sys.alloc_flag());
        let chain = |n: usize| {
            (0..n).map(|i| {
                if i == 0 {
                    CoreOp::alu()
                } else {
                    CoreOp::alu().with_dep(1)
                }
            })
        };
        sys.push_wait(3, f, false);
        sys.push_ops(3, chain(4));
        sys.push_ops(0, chain(40));
        sys.push_ops(0, [CoreOp::SetFlag { flag: f }]);
        sys.push_wait(1, g, true);
        sys.push_ops(1, chain(4));
        sys.push_ops(2, chain(90));
        sys.push_ops(2, [CoreOp::SetFlag { flag: g }]);
    });
}

/// An engine retirement sets the flag its issuing core sleeps on.
#[test]
fn engine_retirement_wakes_flag_waiter() {
    assert_gating_invisible(SystemConfig::paper_dx100(), |sys| {
        let a = big_image().1;
        let idx: Vec<u64> = (0..256).map(|i| i * 37 % 4096).collect();
        sys.dx100(0).write_tile(TileId::new(0), &idx);
        let f = sys.alloc_flag();
        let ild = Instruction::ild(DType::U32, a.base(), TileId::new(1), TileId::new(0));
        sys.send_instruction(0, ild, Some(f));
        sys.push_wait(0, f, false);
        sys.push_wait(1, f, true);
    });
}

/// Two dependent cold loads with a long ALU chain between them: by the
/// second load the L1, the L2, the LLC and both DRAM channels have gone
/// back to sleep.
fn load_after_idle_gap(sys: &mut System) {
    let a = big_image().1;
    let mut ops = vec![CoreOp::load(a.addr_of(0), 1)];
    ops.extend((0..60).map(|_| CoreOp::alu().with_dep(1)));
    ops.push(CoreOp::load(a.addr_of(1 << 20), 1).with_dep(1));
    sys.push_ops(0, ops);
}

/// Completions that free nothing reach a core asleep on a full ROB: loads
/// that hit in the L1 behind a cold load at the ROB head, with no
/// dependents. The core sleeps on through them.
#[test]
fn completion_that_frees_nothing_leaves_core_asleep() {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.core.rob = 8;
    assert_gating_invisible(cfg, |sys| {
        let a = big_image().1;
        sys.push_ops(0, [CoreOp::load(a.addr_of(0), 1)]);
        sys.run_until(System::cores_idle);
        let mut ops = vec![CoreOp::load(a.addr_of(1 << 20), 1)];
        ops.extend((0..7).map(|_| CoreOp::load(a.addr_of(0), 1)));
        ops.extend((0..8).map(|_| CoreOp::alu()));
        sys.push_ops(0, ops);
    });
}

/// A core access reaches its sleeping L1.
#[test]
fn core_access_wakes_sleeping_l1() {
    assert_gating_invisible(SystemConfig::paper_baseline(), load_after_idle_gap);
}

/// Forty independent cold loads from one core: the L1's 16 MSHRs fill, the
/// rest wait in its retry queue, and each fill frees an MSHR for a retry.
fn loads_past_full_mshrs(sys: &mut System) {
    let a = big_image().1;
    sys.push_ops(0, (0..40).map(|i| CoreOp::load(a.addr_of(i << 14), 1)));
}

/// A fill reaches an L1 whose MSHR file is full while an access waits in
/// its retry queue.
#[test]
fn fill_wakes_l1_with_full_mshrs() {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.max_cycles = 1_000_000;
    let (image, _) = big_image();
    let mut sys = System::new(cfg, image);
    loads_past_full_mshrs(&mut sys);
    let stats = sys.finish();
    assert!(
        stats.hierarchy.l1.mshr_full_stalls > 0,
        "the scenario must fill the L1's MSHR file"
    );
    assert_gating_invisible(SystemConfig::paper_baseline(), loads_past_full_mshrs);
}

/// An `accept` into a sleeping cache moves its timer to the lookup cycle
/// and wakes nothing: the hierarchy then sleeps until exactly `now +
/// latency`, and its statistics and occupancy profile still match an
/// ungated hierarchy's.
#[test]
fn accept_sleeps_cache_until_its_lookup() {
    let cfg = HierarchyConfig::paper_baseline(1);
    let latency = cfg.l1.latency;
    let mut mems = [MemoryHierarchy::new(cfg.clone()), MemoryHierarchy::new(cfg)];
    mems[0].enable_gating();
    let mut fills = [DelayQueue::new(), DelayQueue::new()];
    let mut to_dram = Vec::new();
    for mem in &mut mems {
        mem.enable_profile();
    }
    // One cold load every 500 cycles, each done long before the next.
    for now in 0..2000 {
        let load_at = now - now % 500 + 100;
        if now == load_at {
            assert_eq!(
                mems[0].asleep_until(),
                Some(Cycle::MAX),
                "every cache sleeps before the access at {now}"
            );
            for mem in &mut mems {
                mem.core_access(
                    Access::load(now, LineAddr(now << 8), 0, Requester::Core(0)),
                    now,
                );
            }
        }
        if (load_at..load_at + latency).contains(&now) {
            assert_eq!(
                mems[0].asleep_until(),
                Some(load_at + latency),
                "the L1 must sleep until exactly its lookup"
            );
        }
        for (mem, fills) in mems.iter_mut().zip(&mut fills) {
            mem.tick(now, &mut to_dram);
            for d in to_dram.drain(..).filter(|d| !d.is_write) {
                fills.push_at(now + 60, d.line);
            }
            while let Some(line) = fills.pop_ready(now) {
                mem.dram_fill(line, now, &mut to_dram);
            }
            while mem.pop_core_response().is_some() {}
        }
    }
    let [gated, ungated] = &mut mems;
    gated.settle(2000);
    assert_eq!(
        format!("{:?}", gated.stats()),
        format!("{:?}", ungated.stats())
    );
    assert_eq!(gated.profile(), ungated.profile());
}

/// An LLC miss's enqueue reaches a sleeping DRAM channel.
#[test]
fn enqueue_wakes_sleeping_dram_channel() {
    assert_gating_invisible(SystemConfig::paper_baseline(), load_after_idle_gap);
}

/// An LLC miss's enqueue reaches DRAM channels asleep in their first
/// refresh (tRFC), where it cannot issue before the refresh ends: the
/// channel sleeps on until then.
#[test]
fn enqueue_during_refresh_leaves_channel_asleep() {
    let cfg = SystemConfig::paper_baseline();
    let dram_tick = cfg.cpu_cycles_per_dram_tick;
    let refresh = cfg.dram.timings.t_refi * dram_tick;
    assert_gating_invisible(cfg, move |sys| {
        let a = big_image().1;
        sys.run_until(|sys| sys.collect_stats().cycles >= refresh + 20);
        sys.push_ops(0, [CoreOp::load(a.addr_of(1 << 20), 1)]);
    });
}

/// An indirect gather whose engine sleeps between responses: through the
/// LLC when the array's pages are host-resident, straight from DRAM when
/// they are not.
fn gather(marked: bool) -> impl Fn(&mut System) {
    move |sys| {
        let a = big_image().1;
        if marked {
            sys.mark_host_resident(a.base(), 4096 * 4);
        }
        let idx: Vec<u64> = (0..64).map(|i| i * 1031 % 4096).collect();
        sys.dx100(0).write_tile(TileId::new(0), &idx);
        let f = sys.alloc_flag();
        let ild = Instruction::ild(DType::U32, a.base(), TileId::new(1), TileId::new(0));
        sys.send_instruction(0, ild, Some(f));
        sys.push_wait(0, f, false);
    }
}

/// LLC responses reach a sleeping engine.
#[test]
fn llc_response_wakes_sleeping_engine() {
    assert_gating_invisible(SystemConfig::paper_dx100(), gather(true));
}

/// DRAM responses reach a sleeping engine.
#[test]
fn dram_response_wakes_sleeping_engine() {
    assert_gating_invisible(SystemConfig::paper_dx100(), gather(false));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `DelayQueue::next_ready_at` is tight: it names exactly the earliest
    /// ready cycle (nothing pops strictly before it, something pops at it),
    /// and equal-cycle items drain in FIFO order.
    #[test]
    fn delay_queue_next_ready_at_is_tight(delays in proptest::collection::vec(0u64..100, 1..50)) {
        let mut q = DelayQueue::new();
        let mut remaining: Vec<(u64, usize)> =
            delays.iter().enumerate().map(|(i, d)| (*d, i)).collect();
        for &(d, i) in &remaining {
            q.push_at(d, i);
        }
        remaining.sort(); // pop order: (ready cycle, insertion sequence)
        for &(ready, idx) in &remaining {
            let t = q.next_ready_at();
            prop_assert_eq!(t, Some(ready), "next_ready_at must be the min ready cycle");
            if ready > 0 {
                prop_assert!(q.pop_ready(ready - 1).is_none(), "popped before ready");
            }
            prop_assert_eq!(q.pop_ready(ready), Some(idx), "FIFO order violated");
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.next_ready_at(), None);
    }

    /// Per-channel gating is invisible to the DRAM system. A gated
    /// `DramSystem` (each channel sleeps until its `next_event`, and an
    /// enqueue re-times a sleeping channel) and an ungated one, driven by
    /// the same random request stream, produce the same response schedule,
    /// statistics and cycle-attribution profile. In half the cases the
    /// requests come back to back, `rate` per tick until the buffers fill,
    /// so queues run deep and enqueues meet full buffers; in the rest they
    /// arrive at random gaps of up to `max_gap` ticks, so enqueues reach
    /// sleeping channels. When every channel sleeps past the next arrival,
    /// the gated side jumps the gap as the system does (`sleep_through`),
    /// and while approaching a channel's next event, asking its
    /// `next_event` later never moves the event later (no missed wakeups).
    /// The profile must also stay MECE: every channel attributes exactly
    /// `ticks` ticks, however gating carves the run into spans.
    #[test]
    fn dram_gap_skip_equals_tick_by_tick(
        reqs in proptest::collection::vec((0u64..4096, any::<bool>(), 0u64..48), 1usize..120),
        rate in 1usize..4,
        max_gap in prop_oneof![Just(0u64), 1u64..48],
    ) {
        // (response id, tick) schedule plus final stats and profiles.
        type Driven = Result<(Vec<(u64, u64)>, String, String, u64), TestCaseError>;
        let drive = |gated: bool| -> Driven {
            let mut dram = DramSystem::new(DramConfig::ddr4_3200_2ch());
            dram.enable_profile();
            if gated {
                dram.enable_gating();
            }
            // Each request arrives its gap after the one before it.
            let mut pending: VecDeque<(u64, u64, LineAddr, bool)> = reqs
                .iter()
                .enumerate()
                .scan(0, |at, (i, &(l, w, gap))| {
                    *at += gap % (max_gap + 1);
                    Some((*at, i as u64, LineAddr(l), w))
                })
                .collect();
            let mut schedule = Vec::new();
            let mut skipped = 0u64;
            let mut now = 0u64;
            while schedule.len() < reqs.len() {
                prop_assert!(now < 4_000_000, "drain timeout");
                for _ in 0..rate {
                    let Some(&(at, id, line, w)) = pending.front() else { break };
                    let req = if w { MemRequest::write(id, line) } else { MemRequest::read(id, line) };
                    if at > now || !dram.try_enqueue(req, now) {
                        break;
                    }
                    pending.pop_front();
                }
                if gated {
                    let arrival = pending.front().map_or(Cycle::MAX, |p| p.0);
                    let due = dram.next_tick_due().map_or(now, |t| t.min(arrival));
                    if due > now {
                        for (ch, c) in dram.controllers().iter().enumerate() {
                            let Some(t) = c.next_event(now).filter(|&t| t > now) else {
                                continue;
                            };
                            for probe in [now + 1, now + (t - now) / 2, t - 1] {
                                if probe > now && probe < t {
                                    let e = c.next_event(probe);
                                    prop_assert!(
                                        e.is_some_and(|x| x <= t),
                                        "channel {ch}: event receded: next_event({probe}) = {e:?} > {t}"
                                    );
                                }
                            }
                        }
                        dram.sleep_through(due);
                        skipped += due - now;
                        now = due;
                        continue;
                    }
                }
                dram.tick(now);
                while let Some(resp) = dram.pop_response() {
                    schedule.push((resp.id, now));
                }
                now += 1;
            }
            dram.settle(now);
            let ticks = dram.stats().ticks;
            let profiles = dram.channel_profiles();
            for (i, p) in profiles.iter().enumerate() {
                let p = p.expect("profile enabled");
                prop_assert_eq!(
                    p.attributed(), ticks,
                    "channel {} attribution is not MECE (gated={})", i, gated
                );
                prop_assert_eq!(
                    p.queue_depth.total(), ticks,
                    "channel {} queue-depth samples != ticks (gated={})", i, gated
                );
            }
            Ok((
                schedule,
                format!("{:?}", dram.stats()),
                format!("{:?}", profiles),
                skipped,
            ))
        };
        let (sched_gated, stats_gated, prof_gated, skipped) = drive(true)?;
        let (sched_tick, stats_tick, prof_tick, _) = drive(false)?;
        prop_assert_eq!(sched_gated, sched_tick, "response schedule diverged");
        prop_assert_eq!(stats_gated, stats_tick, "DRAM stats diverged (skipped {} ticks)", skipped);
        prop_assert_eq!(prof_gated, prof_tick, "DRAM attribution diverged (skipped {} ticks)", skipped);
    }
}
