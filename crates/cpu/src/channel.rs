//! A core's op channel: the driver appends literal micro-ops or whole
//! loops; the core drains them in order.
//!
//! A loop is a range of elements and a body that appends one element's
//! micro-ops to a ring. When a loop reaches the front of the channel, the
//! channel runs the body for successive elements, one whole element at a
//! time, until the ring holds at least `GEN_BATCH` ops, and the core then
//! pops the ring. The ring is one buffer the channel reuses for every
//! loop, so generating ops allocates nothing once it has grown to its
//! working size, and the body's virtual call is paid once per element.

use std::collections::VecDeque;
use std::ops::Range;

use crate::op::CoreOp;

/// How many ops a loop refill generates at least: large enough to amortize
/// the refill, small enough that the ring stays in cache.
const GEN_BATCH: usize = 128;

/// A loop body: `body(i, ops)` appends element `i`'s micro-ops to `ops`.
type LoopBody = Box<dyn FnMut(usize, &mut VecDeque<CoreOp>) + Send>;

enum Segment {
    /// Literal ops.
    Ops(VecDeque<CoreOp>),
    /// The elements of a loop that are still to be generated.
    Loop { elems: Range<usize>, body: LoopBody },
}

/// One core's op channel: an ordered queue of literal-op and loop
/// segments.
#[derive(Default)]
pub struct ChannelQueue {
    /// Ops the front loop generated that the core has not taken yet; they
    /// run before every queued segment.
    ring: VecDeque<CoreOp>,
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

    /// Appends a loop over `elems` to run after everything queued so far:
    /// `body(i, ops)` appends element `i`'s micro-ops to `ops`, for each
    /// `i` in order.
    pub fn push_loop(
        &mut self,
        elems: Range<usize>,
        body: impl FnMut(usize, &mut VecDeque<CoreOp>) + Send + 'static,
    ) {
        self.segments.push_back(Segment::Loop {
            elems,
            body: Box::new(body),
        });
    }

    /// The next queued op. A loop at the front is first run into the ring,
    /// whole elements at a time, until the ring holds `GEN_BATCH` ops or
    /// the loop ends, so the common case is a ring pop.
    #[inline]
    pub fn next_op(&mut self) -> Option<CoreOp> {
        loop {
            if let Some(op) = self.ring.pop_front() {
                return Some(op);
            }
            match self.segments.front_mut()? {
                Segment::Ops(q) => {
                    if let Some(op) = q.pop_front() {
                        return Some(op);
                    }
                }
                Segment::Loop { elems, body } => {
                    for i in elems.by_ref() {
                        body(i, &mut self.ring);
                        if self.ring.len() >= GEN_BATCH {
                            break;
                        }
                    }
                    if elems.start < elems.end {
                        continue;
                    }
                }
            }
            self.segments.pop_front();
        }
    }
}

impl std::fmt::Debug for ChannelQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelQueue")
            .field("ring", &self.ring.len())
            .field("segments", &self.segments.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_then_loop_then_ops() {
        let mut ch = ChannelQueue::new();
        ch.push_ops([CoreOp::alu()]);
        ch.push_loop(1..3, |i, ops| ops.push_back(CoreOp::load(i as u64 * 64, 1)));
        ch.push_loop(0..0, |_, _| unreachable!("an empty loop runs no body"));
        ch.push_ops([CoreOp::store(128, 2)]);
        assert_eq!(ch.next_op(), Some(CoreOp::alu()));
        assert_eq!(ch.next_op(), Some(CoreOp::load(64, 1)));
        assert_eq!(ch.next_op(), Some(CoreOp::load(128, 1)));
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

    /// A loop of several refills, with bodies of varying length (empty
    /// ones included) and trailing literal ops: the order is exactly
    /// loop-then-literals, every refill ends at an element boundary, and
    /// the ring keeps the capacity of its first refill.
    #[test]
    fn long_loop_refills_whole_elements_in_order() {
        // Element `i` emits `i % 4` loads; load `k` of element `i` reads
        // line `4i + k`.
        let n = GEN_BATCH * 3 + 7;
        let body = |i: usize, ops: &mut VecDeque<CoreOp>| {
            for k in 0..i % 4 {
                ops.push_back(CoreOp::load((i * 4 + k) as u64 * 64, 0));
            }
        };
        let mut want = VecDeque::new();
        (0..n).for_each(|i| body(i, &mut want));
        let mut ch = ChannelQueue::new();
        ch.push_loop(0..n, body);
        ch.push_ops([CoreOp::alu()]);
        let mut capacity = None;
        for (k, expect) in want.iter().enumerate() {
            assert_eq!(ch.next_op().as_ref(), Some(expect), "op {k}");
            if ch.ring.is_empty() {
                let CoreOp::Load { addr, .. } = expect else {
                    unreachable!("the loop emits loads only")
                };
                let line = (addr / 64) as usize;
                assert_eq!(line % 4 + 1, line / 4 % 4, "a refill split an element");
            }
            let cap = *capacity.get_or_insert(ch.ring.capacity());
            assert_eq!(ch.ring.capacity(), cap, "the ring reallocated");
        }
        assert_eq!(ch.next_op(), Some(CoreOp::alu()));
        assert_eq!(ch.next_op(), None);
    }
}
