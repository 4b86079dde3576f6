//! Microbenchmarks of the core simulation loop with event-driven cycle
//! skipping on and off. Two workload shapes bracket the design space:
//!
//! * **idle-heavy** — a single core chasing dependent cache-missing loads,
//!   so almost every cycle is a quiescent DRAM wait. Skipping should win
//!   big here (the acceptance target is ≥2×).
//! * **traffic-heavy** — the all-hit gather microbenchmark with the DX100
//!   engine streaming at full tilt, where quiescent spans are rare. The
//!   `try_skip` probe runs (and usually fails) every cycle, so this
//!   measures the optimisation's overhead ceiling (target: ≤5% slower).
//!
//! Each shape also runs with the cycle-attribution profiler on and off
//! (`profile_on`/`profile_off`), measuring the per-tick cost of the
//! attribution counters (target: ≤5% on traffic-heavy).
//!
//! Run with `cargo bench -p dx100-bench --features bench-harness --bench
//! step_bench`. Results are recorded in DESIGN.md ("Simulation
//! performance").

use criterion::{criterion_group, criterion_main, Criterion};
use dx100_common::DType;
use dx100_core::MemoryImage;
use dx100_cpu::CoreOp;
use dx100_sim::{System, SystemConfig};
use dx100_workloads::micro::allhit::{run_allhit, MicroKind};

/// A serial pointer-chase: each load depends on the previous one and
/// misses every cache, so the machine idles for a full DRAM round trip
/// between instructions.
fn sparse_chase(loads: u64) -> (MemoryImage, Vec<CoreOp>) {
    let mut image = MemoryImage::new();
    let a = image.alloc("A", DType::U32, 1 << 20); // 4 MB
    let mut ops = Vec::new();
    let mut x = 0x9e3779b97f4a7c15u64;
    for i in 0..loads {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let idx = (x >> 33) % (1 << 20);
        let load = CoreOp::load(a.addr_of(idx), 1);
        ops.push(if i == 0 { load } else { load.with_dep(1) });
    }
    (image, ops)
}

fn run_chase(skip: bool, profile: bool, loads: u64) -> u64 {
    let (image, ops) = sparse_chase(loads);
    let mut cfg = SystemConfig::paper_baseline();
    cfg.cycle_skip = skip;
    cfg.obs.profile = profile;
    let mut sys = System::new(cfg, image);
    sys.push_ops(0, ops);
    sys.finish().cycles
}

fn bench_idle_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("step_idle_heavy");
    g.sample_size(10);
    for (name, skip) in [("skip_on", true), ("skip_off", false)] {
        g.bench_function(name, |b| b.iter(|| run_chase(skip, false, 256)));
    }
    for (name, profile) in [("profile_on", true), ("profile_off", false)] {
        g.bench_function(name, |b| b.iter(|| run_chase(true, profile, 256)));
    }
    g.finish();
}

fn bench_traffic_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("step_traffic_heavy");
    g.sample_size(10);
    for (name, skip) in [("skip_on", true), ("skip_off", false)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = SystemConfig::paper_dx100();
                cfg.cycle_skip = skip;
                run_allhit(MicroKind::GatherFull, true, &cfg, 1).cycles
            })
        });
    }
    for (name, profile) in [("profile_on", true), ("profile_off", false)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = SystemConfig::paper_dx100();
                cfg.obs.profile = profile;
                run_allhit(MicroKind::GatherFull, true, &cfg, 1).cycles
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_idle_heavy, bench_traffic_heavy);
criterion_main!(benches);
