//! Live-heap guard for tile jobs' core-side work.
//!
//! A DX100 tile job may carry per-element core work: a produce loop before
//! its instructions are sent, or a consume loop after it completes. That
//! work is a loop body the core runs as it dispatches, so a job costs the
//! same heap whether or not its tiles are consumed. The test compares the
//! live-heap high-water mark of two all-hit DX100 runs on the same
//! dataset: Gather-SPD, whose cores consume every gathered element from
//! the scratchpad, and Gather-Full, which has no core-side work. Were the
//! consume work built as op vectors up front, Gather-SPD would hold a few
//! megabytes more.
//!
//! It is the only test in this file because the counter belongs to the
//! process-wide allocator; it counts only on the thread that sets the
//! thread-local switch, so the test harness's own threads never add to it.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use dx100::sim::SystemConfig;
use dx100::workloads::micro::allhit::{run_allhit, MicroKind};

thread_local! {
    /// Bytes allocated minus bytes freed on this thread while `COUNTING`
    /// is set, and the largest value it reached.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Forwards to the system allocator, tracking live bytes on a thread that
/// switched counting on. `GlobalAlloc`'s default `realloc` and
/// `alloc_zeroed` go through `alloc` and `dealloc`, so growth is tracked
/// too.
struct PeakAlloc;

fn note(delta: i64) {
    // `try_with`: the thread-locals may already be gone while a thread
    // tears down, and an allocator must never panic.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + delta);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
    });
}

// SAFETY: both methods forward to `std::alloc::System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the tracking
// touches only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator's `alloc`, i.e. from
        // `System`, with this `layout`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// The live-heap high-water mark, in bytes, of one DX100 all-hit run.
fn peak_bytes(kind: MicroKind) -> i64 {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    COUNTING.with(|on| on.set(true));
    let stats = run_allhit(kind, true, &SystemConfig::paper_dx100(), 1);
    COUNTING.with(|on| on.set(false));
    assert!(stats.cycles > 0);
    PEAK.with(|peak| peak.get())
}

/// Allowed excess of Gather-SPD's peak over Gather-Full's. Its 16 jobs
/// consume 64K gathered elements, two core ops each. Generated as loops
/// they add about 0.1 MB to an 8.9 MB peak; built as op vectors and
/// copied into the cores' channels they added 6.3 MB (9.1 vs 15.5 MB).
const MARGIN_BYTES: i64 = 1 << 20;

#[test]
fn consumed_tiles_peak_like_unconsumed_ones() {
    let full = peak_bytes(MicroKind::GatherFull);
    let spd = peak_bytes(MicroKind::GatherSpd);
    assert!(full > 0 && spd > 0);
    assert!(
        spd <= full + MARGIN_BYTES,
        "Gather-SPD peaked at {spd} live heap bytes against Gather-Full's {full}: \
         tile jobs' consume work is materialized instead of generated"
    );
}
