//! Layer probes for the traced run: each is a tight loop over a canned
//! input that calls one component's public API, with the component built
//! before the timed region. Each reports the median over repetitions.

use std::hint::black_box;
use std::time::Instant;

use dx100_common::{DType, DelayQueue, LineAddr};
use dx100_core::functional::FunctionalDx100;
use dx100_core::isa::{Instruction, RegId, TileId};
use dx100_core::{Dx100Config, MemoryImage};
use dx100_cpu::CoreOp;
use dx100_dram::{DramConfig, DramSystem, MemRequest};
use dx100_mem::{Access, HierarchyConfig, MemoryHierarchy, Requester};
use dx100_sim::driver::NullDriver;
use dx100_sim::{System, SystemConfig};
use dx100_workloads::micro::allhit::{run_allhit, MicroKind};

use crate::stats::median;
use crate::Report;

const REPS: usize = 7;

/// Median seconds of `REPS` timed calls, each after an untimed `prepare`.
fn time_reps<P, T>(mut prepare: impl FnMut() -> P, mut body: impl FnMut(P) -> T) -> f64 {
    let mut secs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let input = prepare();
        let t = Instant::now();
        black_box(body(black_box(input)));
        secs.push(t.elapsed().as_secs_f64());
    }
    median(&secs)
}

/// FR-FCFS scheduling through `DramSystem`: a stream of random-line reads
/// kept as full as the controller accepts. Returns ns per request.
fn dram_ns_per_req() -> f64 {
    const REQS: u64 = 8192;
    let mut dram = DramSystem::new(DramConfig::ddr4_3200_2ch());
    let mut now = 0;
    let mut next_id = 0u64;
    let secs = time_reps(
        || (),
        |()| {
            let (mut sent, mut got) = (0, 0);
            while got < REQS {
                while sent < REQS {
                    let line = LineAddr(next_id.wrapping_mul(2654435761) % (1 << 22));
                    if !dram.try_enqueue(MemRequest::read(next_id, line), now) {
                        break;
                    }
                    sent += 1;
                    next_id += 1;
                }
                dram.tick(now);
                while dram.pop_response().is_some() {
                    got += 1;
                }
                now += 1;
            }
            got
        },
    );
    secs * 1e9 / REQS as f64
}

/// `MemoryHierarchy::core_access` + `tick` on a 4-core hierarchy: four
/// cores loading from a working set a little larger than L2, so accesses
/// mix L1/L2/LLC hits with some misses. DRAM answers after a fixed delay.
/// Returns ns per access.
fn cache_ns_per_access() -> f64 {
    const ACCESSES: u64 = 1 << 15;
    const OUTSTANDING: u64 = 8;
    const LINES: u64 = 24 * 1024;
    const DRAM_LATENCY: u64 = 100;
    let cores = 4;
    let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_baseline(cores));
    let mut fills: DelayQueue<LineAddr> = DelayQueue::new();
    let mut to_dram = Vec::new();
    let mut now = 0;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let secs = time_reps(
        || (),
        |()| {
            let (mut issued, mut done) = (0u64, 0u64);
            while done < ACCESSES {
                if issued < ACCESSES && issued - done < OUTSTANDING * cores as u64 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let line = LineAddr(0x10_0000 + (x >> 33) % LINES);
                    let core = (issued % cores as u64) as usize;
                    mem.core_access(Access::load(issued, line, 0, Requester::Core(core)), now);
                    issued += 1;
                }
                mem.tick(now, &mut to_dram);
                for d in to_dram.drain(..) {
                    if !d.is_write {
                        fills.push_at(now + DRAM_LATENCY, d.line);
                    }
                }
                while let Some(line) = fills.pop_ready(now) {
                    mem.dram_fill(line, now, &mut to_dram);
                }
                while mem.pop_core_response().is_some() {
                    done += 1;
                }
                now += 1;
            }
            done
        },
    );
    secs * 1e9 / ACCESSES as f64
}

/// A dependent-load chase through `System` + `NullDriver`: every load
/// misses and waits a DRAM round trip, so this times the skip probe and
/// the idle path. Returns ns per load.
fn chase_ns_per_load() -> f64 {
    const LOADS: u64 = 2048;
    let secs = time_reps(
        || {
            let mut image = MemoryImage::new();
            let a = image.alloc("A", DType::U32, 1 << 20);
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let ops: Vec<CoreOp> = (0..LOADS)
                .map(|i| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let load = CoreOp::load(a.addr_of((x >> 33) % (1 << 20)), 1);
                    if i == 0 {
                        load
                    } else {
                        load.with_dep(1)
                    }
                })
                .collect();
            let mut sys = System::new(SystemConfig::paper_baseline(), image);
            sys.push_ops(0, ops);
            sys
        },
        |mut sys| sys.run(&mut NullDriver).cycles,
    );
    secs * 1e9 / LOADS as f64
}

/// The all-hit gather microbenchmark on the DX100 machine: the engine
/// streaming at full tilt. Returns ms per run.
fn gather_ms() -> f64 {
    let cfg = SystemConfig::paper_dx100();
    time_reps(
        || (),
        |()| run_allhit(MicroKind::GatherFull, true, &cfg, 1).cycles,
    ) * 1e3
}

/// The functional accelerator model: a 16K-element gather. Returns ms.
fn functional_gather_ms() -> f64 {
    const N: u64 = 16 * 1024;
    let mut mem = MemoryImage::new();
    let a = mem.alloc("A", DType::U32, 1 << 20);
    let idx = mem.alloc("B", DType::U32, N);
    for i in 0..N {
        mem.write_elem(idx, i, (i * 2654435761) % (1 << 20));
    }
    let program = [
        Instruction::sld(
            DType::U32,
            idx.base(),
            TileId::new(0),
            RegId::new(0),
            RegId::new(1),
            RegId::new(2),
        ),
        Instruction::ild(DType::U32, a.base(), TileId::new(1), TileId::new(0)),
    ];
    time_reps(
        || {
            let mut dx = FunctionalDx100::new(Dx100Config::paper());
            dx.write_reg(RegId::new(0), 0);
            dx.write_reg(RegId::new(1), 1);
            dx.write_reg(RegId::new(2), N);
            dx
        },
        |mut dx| {
            dx.run(&program, &mut mem).expect("functional gather");
            dx.tile(TileId::new(1)).get(0)
        },
    ) * 1e3
}

/// Runs every probe and records its metric.
pub fn run(r: &mut Report) {
    r.layer("probe.dram_ns_per_req", dram_ns_per_req());
    r.layer("probe.cache_ns_per_access", cache_ns_per_access());
    r.layer("probe.chase_ns_per_load", chase_ns_per_load());
    r.layer("probe.gather_ms", gather_ms());
    r.layer("probe.functional_gather_ms", functional_gather_ms());
}
