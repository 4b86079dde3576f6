//! Allocation guards for the per-cycle path under `System::step`.
//!
//! Once a run is warm, simulating more cycles must not allocate more: every
//! per-event structure (ROB waiter lists, MSHR waiter lists, cache tags,
//! link and DRAM queues, the ring a core's loops generate into, DX100's Row
//! Table, Word Table and request-id windows) is reused in place. Each test
//! counts heap allocations made inside `System::finish` for a run of size
//! `n` and of size `2n`; the second run simulates about twice the cycles,
//! so any per-op, per-word or per-cycle allocation shows up as a difference
//! of thousands, and one per batch of generated ops or per tile as a
//! difference of a hundred, while amortized queue growth adds only a
//! handful.
//!
//! * The baseline machine runs a canned program of `n` and of `2n` ops per
//!   core, fed once as literal ops (`System::push_ops`) and once as a loop
//!   (`System::push_loop`).
//! * The DX100 machine runs `n` and `2n` tile jobs, each a gather and an
//!   indirect add (IRMW). Indirect stores (IST) are left out: each IST job
//!   keeps a map of the last iteration applied per address, for
//!   duplicate-index ordering, which allocates as it fills.
//!
//! The counter belongs to the process-wide allocator, but it counts only
//! on the thread that sets the thread-local switch, so the test harness's
//! own threads, and a test running beside, never add to it.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::collections::VecDeque;

use dx100::common::{AluOp, DType};
use dx100::cpu::CoreOp;
use dx100::sim::{System, SystemConfig};
use dx100::workloads::util::{install_jobs, Placement};
use dx100_core::isa::Instruction;
use dx100_core::{ArrayHandle, MemoryImage};

thread_local! {
    /// Allocations counted on this thread while `COUNTING` is set.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Forwards to the system allocator, counting allocations made on a
/// thread that switched counting on. `GlobalAlloc`'s default `realloc` and
/// `alloc_zeroed` go through `alloc`, so growth is counted too.
struct CountingAlloc;

fn note_alloc() {
    // `try_with`: the thread-locals may already be gone while a thread
    // tears down, and an allocator must never panic.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: both methods forward to `std::alloc::System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the counting
// touches only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator's `alloc`, i.e. from
        // `System`, with this `layout`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CORES: usize = 4;

/// How a core receives its program.
#[derive(Debug, Clone, Copy)]
enum Feed {
    Ops,
    Loop,
}

/// The body of `core`'s canned loop of `n / 4` iterations, each four ops: a
/// load from the 4 MB array `a` at a scattered index (most miss to DRAM),
/// an ALU op on the loaded value, a store of the result to the streamed
/// output array `b`, and an ALU op that joins this iteration's result with
/// the previous iteration's. Iterations must run in order.
fn canned_body(
    a: ArrayHandle,
    b: ArrayHandle,
    core: usize,
    n: usize,
) -> impl FnMut(usize, &mut VecDeque<CoreOp>) + Send + 'static {
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ core as u64;
    move |j, ops| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let join = CoreOp::alu().with_dep(2);
        ops.extend([
            CoreOp::load(a.addr_of((x >> 33) % (1 << 20)), 1),
            CoreOp::alu().with_dep(1),
            CoreOp::store(b.addr_of((core * n + j) as u64), 2).with_dep(1),
            if j == 0 { join } else { join.with_dep(6) },
        ]);
    }
}

/// Heap allocations made inside `System::finish` on this thread, and the
/// simulated cycle count.
fn allocs_in_finish(mut sys: System) -> (u64, u64) {
    ALLOCS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let stats = sys.finish();
    COUNTING.with(|on| on.set(false));
    (ALLOCS.with(|c| c.get()), stats.cycles)
}

/// Heap allocations made inside `System::finish` for `n` ops per core fed as
/// `feed`, and the simulated cycle count.
fn allocs_in_run(n: usize, feed: Feed) -> (u64, u64) {
    let mut image = MemoryImage::new();
    let a = image.alloc("A", DType::U32, 1 << 20);
    let b = image.alloc("B", DType::U32, (CORES * n) as u64);
    let mut sys = System::new(SystemConfig::paper_baseline(), image);
    for core in 0..CORES {
        let mut body = canned_body(a, b, core, n);
        match feed {
            Feed::Ops => {
                let mut ops = VecDeque::with_capacity(n);
                (0..n / 4).for_each(|j| body(j, &mut ops));
                sys.push_ops(core, ops);
            }
            Feed::Loop => sys.push_loop(core, 0..n / 4, body),
        }
    }
    allocs_in_finish(sys)
}

/// Elements per DX100 tile job.
const TILE: usize = 512;

/// Heap allocations made inside `System::finish` for `tiles` DX100 tile
/// jobs, and the simulated cycle count. Each job stream-loads `TILE`
/// scattered indices into the 4 MB array `A` (most miss to DRAM), gathers
/// `A` at them, and adds the gathered values into `B` at the same indices.
fn allocs_in_tile_run(tiles: usize) -> (u64, u64) {
    let n = tiles * TILE;
    let mut image = MemoryImage::new();
    let idx = image.alloc("IDX", DType::U32, n as u64);
    let a = image.alloc("A", DType::U32, 1 << 20);
    let b = image.alloc("B", DType::U32, 1 << 20);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..n as u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        image.write_elem(idx, i, (x >> 33) % (1 << 20));
    }
    let mut sys = System::new(SystemConfig::paper_dx100(), image);
    let jobs = Placement::of(&sys).tiles::<2>(n, TILE).map(|s| {
        let [ti, tv] = s.tiles();
        s.job(
            &[],
            vec![
                s.sld(DType::U32, idx.base(), ti),
                Instruction::ild(DType::U32, a.base(), tv, ti),
                Instruction::irmw(DType::U32, AluOp::Add, b.base(), ti, tv),
            ],
        )
    });
    install_jobs(&mut sys, jobs.collect::<Vec<_>>());
    allocs_in_finish(sys)
}

#[test]
fn steady_state_run_does_not_allocate_per_op() {
    let n = 4096;
    let mut cycles = Vec::new();
    for feed in [Feed::Ops, Feed::Loop] {
        let (small, small_cycles) = allocs_in_run(n, feed);
        let (large, large_cycles) = allocs_in_run(2 * n, feed);
        assert!(
            large_cycles > small_cycles * 3 / 2,
            "{feed:?}: the 2n run must simulate markedly more cycles: \
             {small_cycles} vs {large_cycles}"
        );
        assert!(
            large <= small + 64,
            "{feed:?}: System::finish allocated {small} times for {n} ops per core and \
             {large} times for {} ops per core; the per-cycle path allocates per op",
            2 * n
        );
        cycles.push((small_cycles, large_cycles));
    }
    assert_eq!(
        cycles[0], cycles[1],
        "the same program must simulate the same cycles fed as ops or as a loop"
    );
}

#[test]
fn dx100_tile_jobs_do_not_allocate_per_word() {
    let n = 8;
    let (small, small_cycles) = allocs_in_tile_run(n);
    let (large, large_cycles) = allocs_in_tile_run(2 * n);
    assert!(
        large_cycles > small_cycles * 3 / 2,
        "the 2n run must simulate markedly more cycles: {small_cycles} vs {large_cycles}"
    );
    assert!(
        large <= small + 64,
        "System::finish allocated {small} times for {n} tile jobs and {large} times for {}; \
         the DX100 path allocates per tile or per word",
        2 * n
    );
}
