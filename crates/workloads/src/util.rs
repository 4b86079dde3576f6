//! Shared workload machinery: tile-job pipelining and verification
//! helpers. Where work runs — which core takes which elements, and which
//! core, tiles and registers a tile job uses — is decided in [`placement`]
//! alone. A workload's program is straight-line code over [`System`]: push
//! loops or [`install_jobs`], wait with `run_until(System::cores_idle)`,
//! repeat, and end with [`System::finish`].

pub mod placement;

use std::collections::VecDeque;

use dx100_common::flags::FlagId;
use dx100_common::CoreId;
use dx100_core::isa::{Instruction, RegId, TileId};
use dx100_cpu::CoreOp;
use dx100_sim::System;

pub use placement::{Placement, TileSlot};

/// A per-element loop body: `body(i, ops)` appends element `i`'s micro-ops
/// to `ops` (see [`System::push_loop`]).
type LoopBody = Box<dyn FnMut(usize, &mut VecDeque<CoreOp>) + Send>;

/// One tile-granular unit of DX100 work issued from a core. Made by
/// [`TileSlot::job`], which fixes its core, tiles and registers.
pub struct TileJob {
    core: CoreId,
    /// Elements in the job's tile; its produce and consume loops run over
    /// `0..len`.
    len: usize,
    produce: Option<LoopBody>,
    tile_writes: Vec<(TileId, Vec<u64>)>,
    reg_writes: Vec<(RegId, u64)>,
    /// Issued in order; the last one carries the completion flag the core
    /// waits on.
    instrs: Vec<Instruction>,
    consume: Option<LoopBody>,
}

impl TileJob {
    /// Core-side work before anything is sent (the produce phase, e.g.
    /// computing a destination-index tile): `body(i, ops)` for each element
    /// `i` of the tile.
    pub fn produce(
        mut self,
        body: impl FnMut(usize, &mut VecDeque<CoreOp>) + Send + 'static,
    ) -> Self {
        self.produce = Some(Box::new(body));
        self
    }

    /// A host write of `data` into `tile`, sent after the produce phase (its
    /// timing); the data lands functionally with the write's MMIO beat.
    pub fn write_tile(mut self, tile: TileId, data: Vec<u64>) -> Self {
        self.tile_writes.push((tile, data));
        self
    }

    /// Core-side work after the job completes (the consume phase):
    /// `body(i, ops)` for each element `i` of the tile.
    pub fn consume(
        mut self,
        body: impl FnMut(usize, &mut VecDeque<CoreOp>) + Send + 'static,
    ) -> Self {
        self.consume = Some(Box::new(body));
        self
    }
}

/// Installs per-core job sequences with double buffering: each core sends
/// job *k+1*'s instructions before waiting on job *k*, so the accelerator
/// always has a tile in flight. Jobs on one core must therefore alternate
/// between two disjoint tile groups.
///
/// Completion flags are allocated in input order; each core's jobs are
/// installed in input order, core by core.
pub fn install_jobs(sys: &mut System, jobs: impl IntoIterator<Item = TileJob>) {
    let mut per_core: Vec<Vec<(TileJob, FlagId)>> =
        (0..sys.num_cores()).map(|_| Vec::new()).collect();
    for job in jobs {
        let flag = sys.alloc_flag();
        per_core[job.core].push((job, flag));
    }
    for (core, jobs) in per_core.into_iter().enumerate() {
        install_core(sys, core, jobs);
    }
}

/// Sends job 0 at once; then, for each job *k*: sends *k+1*, waits on *k*
/// and runs *k*'s consume loop. The send of *k+1* moves after the wait when
/// its host tile writes would touch tiles *k*'s instructions still use —
/// those writes bypass the controller's scoreboard, so ordering must come
/// from the core program.
fn install_core(sys: &mut System, core: CoreId, jobs: Vec<(TileJob, FlagId)>) {
    let mut jobs = jobs.into_iter();
    let Some((mut cur, mut flag)) = jobs.next() else {
        return;
    };
    send_job(sys, &mut cur, flag);
    loop {
        let mut next = jobs.next();
        let lookahead = next.as_ref().is_some_and(|(n, _)| lookahead_safe(&cur, n));
        if !lookahead {
            sys.push_wait(core, flag, false);
        }
        if let Some((n, f)) = &mut next {
            send_job(sys, n, *f);
        }
        if lookahead {
            sys.push_wait(core, flag, false);
        }
        if let Some(body) = cur.consume.take() {
            sys.push_loop(core, 0..cur.len, body);
        }
        let Some((n, f)) = next else {
            return;
        };
        (cur, flag) = (n, f);
    }
}

/// Whether `next` may be sent before waiting on `cur`: its host tile
/// writes must not touch any tile `cur`'s instructions use.
fn lookahead_safe(cur: &TileJob, next: &TileJob) -> bool {
    if next.tile_writes.is_empty() {
        return true;
    }
    let used: Vec<TileId> = cur
        .instrs
        .iter()
        .flat_map(|i| {
            i.dest_tiles()
                .into_iter()
                .chain(i.source_tiles())
                .collect::<Vec<_>>()
        })
        .collect();
    next.tile_writes.iter().all(|(t, _)| !used.contains(t))
}

/// Pushes `job`'s produce loop, host tile writes, register writes and
/// instructions onto its core; `flag` rides on the last instruction.
fn send_job(sys: &mut System, job: &mut TileJob, flag: FlagId) {
    if let Some(body) = job.produce.take() {
        sys.push_loop(job.core, 0..job.len, body);
    }
    for (t, data) in job.tile_writes.drain(..) {
        sys.send_tile_write(job.core, t, data);
    }
    for &(r, v) in &job.reg_writes {
        sys.send_reg_write(job.core, r, v);
    }
    for (k, instr) in job.instrs.iter().enumerate() {
        let f = (k == job.instrs.len() - 1).then_some(flag);
        sys.send_instruction(job.core, *instr, f);
    }
}

/// FNV-1a checksum of a u64 slice (output verification).
pub fn checksum(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Quantizes an f64 for checksumming across reordered FP accumulation
/// (matches to ~6 significant digits).
pub fn quantize_f64(v: f64) -> u64 {
    if v == 0.0 {
        return 0;
    }
    let scaled = (v * 1e6).round();
    scaled.to_bits()
}

/// Asserts two f64 slices match within a relative tolerance.
///
/// # Panics
/// Panics with a diagnostic on mismatch.
pub fn assert_f64_close(got: &[f64], want: &[f64], rel: f64) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = w.abs().max(1.0);
        assert!(
            (g - w).abs() <= rel * scale,
            "element {i}: got {g}, want {w}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_sensitive_and_stable() {
        let a = checksum([1, 2, 3]);
        let b = checksum([1, 2, 3]);
        let c = checksum([3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn quantize_tolerates_tiny_fp_noise() {
        assert_eq!(quantize_f64(1.0000000001), quantize_f64(1.0));
        assert_ne!(quantize_f64(1.01), quantize_f64(1.0));
    }
}
