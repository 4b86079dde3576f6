//! Abstract micro-ops and the lazy op-stream interface workloads implement.

use dx100_common::flags::FlagId;
use dx100_common::Addr;

/// One abstract micro-op of a baseline kernel's core-side execution.
///
/// Dependencies are expressed as *relative distances*: `dep = [d1, d2]`
/// means this op consumes the results of the ops `d1` and `d2` positions
/// earlier in the same stream (0 = no dependency). Distances must stay
/// within the ROB depth; generators emit intra-iteration dependencies only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreOp {
    /// A load from `addr` tagged with a prefetcher `stream` id.
    Load {
        /// Byte address.
        addr: Addr,
        /// Logical stream id for stride-prefetcher training.
        stream: u32,
        /// Relative dependencies (see type docs).
        dep: [u16; 2],
    },
    /// A store to `addr`.
    Store {
        /// Byte address.
        addr: Addr,
        /// Logical stream id.
        stream: u32,
        /// Relative dependencies.
        dep: [u16; 2],
    },
    /// An atomic read-modify-write: fence semantics (drains the window) plus
    /// a locked memory access.
    AtomicRmw {
        /// Byte address.
        addr: Addr,
        /// Logical stream id.
        stream: u32,
        /// Relative dependencies.
        dep: [u16; 2],
    },
    /// One arithmetic/logic µop.
    Alu {
        /// Relative dependencies.
        dep: [u16; 2],
    },
    /// An uncacheable memory-mapped store (e.g. one 64-bit beat of a DX100
    /// instruction). Completes after a fixed NoC latency; when `signal` is
    /// set, the core reports it via [`crate::Core::drain_mmio_signals`] at
    /// completion time so the system glue can deliver the payload.
    Mmio {
        /// Round-trip latency in cycles.
        latency: u16,
        /// Optional payload tag delivered on completion.
        signal: Option<u32>,
    },
    /// Block dispatch until the flag is set. With `spin`, instructions are
    /// charged per poll (OpenMP critical-section spinning, as in the paper's
    /// BFS discussion).
    WaitFlag {
        /// Flag to wait on.
        flag: FlagId,
        /// Whether to charge spin-loop instructions while waiting.
        spin: bool,
    },
    /// Set a flag (releases waiters on other cores / the driver).
    SetFlag {
        /// Flag to set.
        flag: FlagId,
    },
}

impl CoreOp {
    /// A dependency-free load.
    pub fn load(addr: Addr, stream: u32) -> Self {
        CoreOp::Load {
            addr,
            stream,
            dep: [0, 0],
        }
    }

    /// A dependency-free store.
    pub fn store(addr: Addr, stream: u32) -> Self {
        CoreOp::Store {
            addr,
            stream,
            dep: [0, 0],
        }
    }

    /// A dependency-free ALU op.
    pub fn alu() -> Self {
        CoreOp::Alu { dep: [0, 0] }
    }

    /// A dependency-free atomic RMW.
    pub fn atomic(addr: Addr, stream: u32) -> Self {
        CoreOp::AtomicRmw {
            addr,
            stream,
            dep: [0, 0],
        }
    }

    /// Returns this op with an added dependency on the op `distance`
    /// positions earlier.
    ///
    /// # Panics
    /// Panics if both dependency slots are taken or `distance == 0`.
    pub fn with_dep(mut self, distance: u16) -> Self {
        assert!(distance > 0, "dependency distance must be positive");
        let dep = match &mut self {
            CoreOp::Load { dep, .. }
            | CoreOp::Store { dep, .. }
            | CoreOp::AtomicRmw { dep, .. }
            | CoreOp::Alu { dep } => dep,
            _ => panic!("op kind does not take dependencies"),
        };
        if dep[0] == 0 {
            dep[0] = distance;
        } else if dep[1] == 0 {
            dep[1] = distance;
        } else {
            panic!("both dependency slots in use");
        }
        self
    }

    /// Number of retired instructions this op accounts for.
    pub fn instruction_count(&self) -> u64 {
        match self {
            // Waits are pure stalls; spin charges are added separately.
            CoreOp::WaitFlag { .. } => 0,
            _ => 1,
        }
    }
}

/// A lazily generated stream of micro-ops (one per core).
///
/// Implementations walk the kernel's data structures and emit the baseline
/// loop body op-by-op, so multi-million-element workloads never materialize
/// their full traces in memory.
pub trait OpStream {
    /// The next op, or `None` when the stream is exhausted.
    fn next_op(&mut self) -> Option<CoreOp>;
}

/// An [`OpStream`] over a pre-built vector (tests and small phases).
#[derive(Debug, Clone)]
pub struct VecStream {
    pub(crate) ops: std::vec::IntoIter<CoreOp>,
}

impl VecStream {
    /// Wraps `ops` in a stream.
    pub fn new(ops: Vec<CoreOp>) -> Self {
        VecStream {
            ops: ops.into_iter(),
        }
    }
}

impl OpStream for VecStream {
    fn next_op(&mut self) -> Option<CoreOp> {
        self.ops.next()
    }
}

/// An empty stream (idle core).
#[derive(Debug, Clone, Default)]
pub struct EmptyStream;

impl OpStream for EmptyStream {
    fn next_op(&mut self) -> Option<CoreOp> {
        None
    }
}

/// The closed set of op sources a [`Core`](crate::Core) executes, dispatched
/// by `match` rather than through a `Box<dyn OpStream>` vtable.
///
/// The per-cycle hot path (`Core::peek_op`) runs once per dispatched µop,
/// so the indirection cost of a trait object is paid millions of times per
/// simulated millisecond. The *open* extension point for workloads remains
/// the [`OpStream`] trait — but generators now enter a core only through a
/// [`ChannelQueue`](crate::ChannelQueue) segment, where they are polled in
/// batches into flat op rings instead of once per op.
#[derive(Debug, Default)]
pub enum OpStreamKind {
    /// No ops at all (idle core).
    #[default]
    Empty,
    /// A pre-built op vector (tests and small phases).
    Vec(VecStream),
    /// A driver-fed channel of op and generator segments.
    Channel(crate::ChannelQueue),
}

impl OpStreamKind {
    /// An empty channel ready for driver pushes.
    pub fn channel() -> Self {
        OpStreamKind::Channel(crate::ChannelQueue::new())
    }

    /// The next op, or `None` when the stream is (currently) exhausted.
    #[inline]
    pub fn next_op(&mut self) -> Option<CoreOp> {
        match self {
            OpStreamKind::Empty => None,
            OpStreamKind::Vec(v) => v.ops.next(),
            OpStreamKind::Channel(c) => c.next_op(),
        }
    }
}

impl From<VecStream> for OpStreamKind {
    fn from(v: VecStream) -> Self {
        OpStreamKind::Vec(v)
    }
}

impl From<Vec<CoreOp>> for OpStreamKind {
    fn from(ops: Vec<CoreOp>) -> Self {
        OpStreamKind::Vec(VecStream::new(ops))
    }
}

impl From<EmptyStream> for OpStreamKind {
    fn from(_: EmptyStream) -> Self {
        OpStreamKind::Empty
    }
}

impl From<crate::ChannelQueue> for OpStreamKind {
    fn from(c: crate::ChannelQueue) -> Self {
        OpStreamKind::Channel(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_dep_fills_slots() {
        let op = CoreOp::load(0, 0).with_dep(3).with_dep(7);
        assert_eq!(
            op,
            CoreOp::Load {
                addr: 0,
                stream: 0,
                dep: [3, 7]
            }
        );
    }

    #[test]
    #[should_panic(expected = "both dependency slots in use")]
    fn with_dep_overflow_panics() {
        let _ = CoreOp::alu().with_dep(1).with_dep(2).with_dep(3);
    }

    #[test]
    fn instruction_counts() {
        assert_eq!(CoreOp::load(0, 0).instruction_count(), 1);
        assert_eq!(
            CoreOp::WaitFlag {
                flag: FlagId(0),
                spin: false
            }
            .instruction_count(),
            0
        );
    }

    #[test]
    fn vec_stream_drains_in_order() {
        let mut s = VecStream::new(vec![CoreOp::alu(), CoreOp::load(8, 1)]);
        assert_eq!(s.next_op(), Some(CoreOp::alu()));
        assert_eq!(s.next_op(), Some(CoreOp::load(8, 1)));
        assert_eq!(s.next_op(), None);
    }
}
