//! Shared primitives for the DX100 simulator workspace.
//!
//! This crate holds the vocabulary types that every other crate in the
//! reproduction speaks: simulation time ([`Cycle`]), physical/virtual
//! addresses ([`Addr`], [`LineAddr`]), the accelerator's data types and ALU
//! operations ([`DType`], [`AluOp`]) together with bit-exact value arithmetic
//! ([`value`]), a deterministic [`DelayQueue`] used to model fixed-latency
//! links, lightweight statistics helpers ([`stats`]), batch-exact
//! cycle-attribution primitives ([`profile`]), the deterministic
//! worker [`pool`]s behind parallel figure sweeps and the serve daemon,
//! the observability layer's event tracing ([`trace`]), its
//! dependency-free JSON value ([`json`]), and the stable content hash
//! ([`hash`]) the serving layer keys its result cache by, next to the
//! deterministic hash maps of the timed components.
//!
//! # Example
//!
//! ```
//! use dx100_common::{AluOp, DType, value};
//!
//! // 32-bit float addition performed on raw u64 lanes, exactly as the
//! // accelerator's Word Modifier would.
//! let a = value::from_f32(1.5);
//! let b = value::from_f32(2.25);
//! let sum = value::alu(AluOp::Add, DType::F32, a, b);
//! assert_eq!(value::to_f32(sum), 3.75);
//! ```

pub mod flags;
pub mod hash;
pub mod json;
pub mod pool;
pub mod profile;
pub mod queue;
pub mod sleep;
pub mod stats;
pub mod trace;
pub mod types;
pub mod value;

pub use profile::{OccAccum, Pow2Histogram};
pub use queue::DelayQueue;
pub use sleep::Sleep;
pub use trace::{SpanTracker, TraceBuffer, TraceHandle};
pub use types::{
    Addr, AluOp, CoreId, Cycle, DType, LineAddr, ReqId, CACHE_LINE_BYTES, CACHE_LINE_SHIFT,
};
