//! Core-owned op channels: the driver appends micro-ops or whole lazy
//! generators; the core drains them.
//!
//! Until PR 6 this lived in the sim crate behind an `Arc<Mutex<…>>` handle
//! shared between the [`System`] and the core's boxed trait-object stream.
//! The core now *owns* its channel inside [`OpStreamKind`], so the per-op
//! path is a plain ring pop — no lock, no virtual call. Generators (the
//! open, workload-defined half of the old `OpStream` hierarchy) are still
//! boxed, but they are polled in batches of [`GEN_BATCH`] ops that land in
//! a flat segment, amortizing the one remaining virtual call to under 1%
//! of ops.
//!
//! [`System`]: ../../dx100_sim/struct.System.html
//! [`OpStreamKind`]: crate::OpStreamKind

use std::collections::VecDeque;

use crate::op::{CoreOp, OpStream};

/// How many ops a queued generator is polled for per refill: large enough
/// to amortize the virtual call.
const GEN_BATCH: usize = 128;

enum Segment {
    Ops(VecDeque<CoreOp>),
    Gen(Box<dyn OpStream + Send>),
}

impl Default for Segment {
    fn default() -> Self {
        Segment::Ops(VecDeque::new())
    }
}

/// One core's op channel: an ordered queue of literal-op and generator
/// segments.
#[derive(Default)]
pub struct ChannelQueue {
    segments: VecDeque<Segment>,
}

impl ChannelQueue {
    /// Creates an empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends literal ops (merged into a trailing op segment).
    pub fn push_ops<I: IntoIterator<Item = CoreOp>>(&mut self, ops: I) {
        if let Some(Segment::Ops(q)) = self.segments.back_mut() {
            q.extend(ops);
            return;
        }
        self.segments
            .push_back(Segment::Ops(ops.into_iter().collect()));
    }

    /// Appends a lazy generator to run after everything queued so far.
    pub fn push_gen(&mut self, gen: Box<dyn OpStream + Send>) {
        self.segments.push_back(Segment::Gen(gen));
    }

    /// The next queued op. Generators at the front are drained in batches
    /// of [`GEN_BATCH`] into a flat segment first, so the common case is a
    /// ring pop.
    #[inline]
    pub fn next_op(&mut self) -> Option<CoreOp> {
        loop {
            match self.segments.front_mut() {
                None => return None,
                Some(Segment::Ops(q)) => match q.pop_front() {
                    Some(op) => return Some(op),
                    None => {
                        self.segments.pop_front();
                    }
                },
                Some(Segment::Gen(g)) => {
                    let mut buf = VecDeque::with_capacity(GEN_BATCH);
                    let mut exhausted = false;
                    for _ in 0..GEN_BATCH {
                        match g.next_op() {
                            Some(op) => buf.push_back(op),
                            None => {
                                exhausted = true;
                                break;
                            }
                        }
                    }
                    if exhausted {
                        self.segments.pop_front();
                    }
                    if !buf.is_empty() {
                        // Buffered ops run before the (possibly still
                        // live) generator they came from.
                        self.segments.push_front(Segment::Ops(buf));
                    }
                }
            }
        }
    }

    /// Whether nothing is queued (generators count as non-empty until they
    /// report exhaustion).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
            || self
                .segments
                .iter()
                .all(|s| matches!(s, Segment::Ops(q) if q.is_empty()))
    }
}

impl std::fmt::Debug for ChannelQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelQueue")
            .field("segments", &self.segments.len())
            .field("empty", &self.is_empty())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::VecStream;

    #[test]
    fn ops_then_gen_then_ops() {
        let mut ch = ChannelQueue::new();
        ch.push_ops([CoreOp::alu()]);
        ch.push_gen(Box::new(VecStream::new(vec![CoreOp::load(64, 1)])));
        ch.push_ops([CoreOp::store(128, 2)]);
        assert_eq!(ch.next_op(), Some(CoreOp::alu()));
        assert_eq!(ch.next_op(), Some(CoreOp::load(64, 1)));
        assert_eq!(ch.next_op(), Some(CoreOp::store(128, 2)));
        assert_eq!(ch.next_op(), None);
        // Refill after exhaustion works (driver appends later).
        ch.push_ops([CoreOp::alu()]);
        assert_eq!(ch.next_op(), Some(CoreOp::alu()));
    }

    #[test]
    fn trailing_ops_merge() {
        let mut ch = ChannelQueue::new();
        ch.push_ops([CoreOp::alu()]);
        ch.push_ops([CoreOp::alu()]);
        assert_eq!(ch.segments.len(), 1);
    }

    #[test]
    fn long_generator_batches_without_reordering() {
        // A generator longer than one batch, with trailing literal ops:
        // order must be exactly generator-then-literals.
        let n = GEN_BATCH * 3 + 7;
        let ops: Vec<CoreOp> = (0..n).map(|i| CoreOp::load(i as u64 * 64, 0)).collect();
        let mut ch = ChannelQueue::new();
        ch.push_gen(Box::new(VecStream::new(ops.clone())));
        ch.push_ops([CoreOp::alu()]);
        for (i, expect) in ops.iter().enumerate() {
            assert_eq!(ch.next_op().as_ref(), Some(expect), "op {i}");
        }
        assert_eq!(ch.next_op(), Some(CoreOp::alu()));
        assert_eq!(ch.next_op(), None);
    }
}
