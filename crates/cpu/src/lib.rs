//! Multi-core CPU timing model with the structural limits of Table 3.
//!
//! The reproduction does not execute x86 instructions; it executes *abstract
//! micro-op streams* ([`CoreOp`]) that each workload generates for its
//! baseline loop body (loads, stores, address-calculation ALU ops, atomic
//! RMWs, MMIO stores to DX100, and synchronization waits). What the model
//! enforces — and what the paper's analysis hinges on — are the structural
//! resources that cap memory-level parallelism:
//!
//! * **ROB** (224 entries): in-order dispatch/retire, out-of-order issue.
//! * **LQ/SQ** (72/56): bound outstanding loads and stores.
//! * **Issue width** (8 µops/cycle) and a memory-issue port limit.
//! * **Dependency chains**: an indirect load cannot issue before its index
//!   load completes — the serialization DX100 breaks by hoisting.
//! * **Atomics**: fence semantics drain the pipeline and lock the line,
//!   reproducing the ~4.8× atomic-vs-plain RMW gap of Section 6.1.
//!
//! # Example
//!
//! ```
//! use dx100_common::flags::FlagBoard;
//! use dx100_cpu::{Core, CoreConfig, CoreOp};
//!
//! // A two-op dependency chain: the second load's address depends on the
//! // first load's data (A[B[i]]).
//! let mut core = Core::new(0, CoreConfig::paper());
//! core.channel_mut().push_ops([
//!     CoreOp::load(0x1000, 0),
//!     CoreOp::load(0x8000, 1).with_dep(1),
//! ]);
//! let mut flags = FlagBoard::new();
//! let mut issued = Vec::new();
//! core.tick(0, &mut flags, &mut |iss| issued.push(iss));
//! // Only the independent first load issued; the dependent one waits.
//! assert_eq!(issued.len(), 1);
//! ```

pub mod channel;
pub mod config;
pub mod core;
pub mod op;
pub mod profile;
pub mod stats;

pub use crate::core::{Core, MemIssue, MemKind};
pub use channel::ChannelQueue;
pub use config::CoreConfig;
pub use op::CoreOp;
pub use profile::CoreProfile;
pub use stats::CoreStats;
