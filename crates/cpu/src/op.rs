//! The abstract micro-ops a core executes.

use dx100_common::flags::FlagId;
use dx100_common::Addr;

/// One abstract micro-op of a baseline kernel's core-side execution.
///
/// Dependencies are expressed as *relative distances*: `dep = [d1, d2]`
/// means this op consumes the results of the ops `d1` and `d2` positions
/// earlier in the same stream (0 = no dependency). Distances must stay
/// within the ROB depth.
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
    /// Set a flag (releases waiters on other cores / a program's barrier).
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
}
