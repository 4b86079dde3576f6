//! dx100-serve: simulation-as-a-service over the DX100 simulator.
//!
//! A dependency-free HTTP/1.1 JSON daemon (`std::net` only — no async
//! runtime, builds offline) that accepts simulation jobs, schedules them
//! on a worker pool, and memoizes every report in a content-addressed
//! on-disk cache. Because the simulator is bit-deterministic for a fully
//! resolved job config (kernel, machine, scale, seed, mode flags), the
//! cache key is simply the FNV-1a 64 hash of the config's canonical JSON
//! — a repeat submission is an O(1) file read returning a byte-identical
//! report with `"cached": true`.
//!
//! Layering, bottom-up:
//!
//! - [`http`] — bounded request parsing, JSON responses, a blocking
//!   client for tests and smoke gates.
//! - [`cache`] — the content-addressed result store (atomic writes,
//!   size-capped LRU eviction by mtime).
//! - [`scheduler`] — specs → jobs: cache lookup, in-flight coalescing,
//!   worker-pool execution, a bounded job table, graceful drain.
//! - [`server`] — routing and the accept loop.
//!
//! Start one with `dx100 serve`, which fills a
//! [`ServeOpts`](dx100_common::flags::ServeOpts) from its flags; the same
//! job specs also run locally via `dx100 job` (the two paths share
//! [`dx100_bench::JobSpec`], so their reports are byte-identical).

pub mod cache;
pub mod http;
pub mod scheduler;
pub mod server;

pub use cache::ResultCache;
pub use scheduler::{JobStatus, JobView, NoJob, Scheduler, FINISHED_KEPT};
pub use server::{Server, ServerHandle, SERVE_VERSION};
