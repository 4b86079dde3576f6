//! Allocation guard for the per-cycle path under `System::step`.
//!
//! Once a run is warm, simulating more cycles must not allocate more: every
//! per-event structure (ROB waiter lists, MSHR waiter lists, cache tags,
//! link and DRAM queues, the ring a core's loops generate into) is reused in
//! place. The test counts heap allocations made inside `System::run` for a
//! canned program of `n` and of `2n` ops per core, fed once as literal ops
//! (`System::push_ops`) and once as a loop (`System::push_loop`); the
//! second run simulates about twice the cycles, so any per-op or per-cycle
//! allocation shows up as a difference of thousands, and one per batch of
//! generated ops as a difference of a hundred, while amortized queue growth
//! adds only a handful.
//!
//! It is the only test in this file because the counter belongs to the
//! process-wide allocator; it counts only on the thread that sets the
//! thread-local switch, so the test harness's own threads never add to it.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::collections::VecDeque;

use dx100::common::DType;
use dx100::cpu::CoreOp;
use dx100::sim::driver::NullDriver;
use dx100::sim::{System, SystemConfig};
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

/// Heap allocations made inside `System::run` for `n` ops per core fed as
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
    ALLOCS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let stats = sys.run(&mut NullDriver);
    COUNTING.with(|on| on.set(false));
    (ALLOCS.with(|c| c.get()), stats.cycles)
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
            "{feed:?}: System::run allocated {small} times for {n} ops per core and \
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
