//! Full-system simulation glue: the paper's Table 3 machine assembled from
//! the substrate crates and clocked as one.
//!
//! A [`System`] owns the cores (`dx100-cpu`), the cache hierarchy
//! (`dx100-mem`), the DRAM back-end (`dx100-dram`), zero or more DX100
//! instances (`dx100-core`), and optionally the DMP prefetcher
//! (`dx100-prefetch`). A workload's software is a straight-line program
//! over it, as on the paper's cores: it pushes loop bodies onto cores,
//! sends DX100 instructions (as timed MMIO stores), waits at barriers with
//! [`System::run_until`] (every core idle, or a scratchpad ready flag),
//! reads results, and ends with [`System::finish`].
//!
//! Clocking: CPU components tick at 3.2 GHz; the DRAM back-end ticks every
//! other CPU cycle (DDR4-3200, tCK = 625 ps).
//!
//! # Example
//!
//! ```
//! use dx100_sim::{RunStats, SystemConfig};
//!
//! let cfg = SystemConfig::paper_baseline();
//! assert_eq!(cfg.cores, 4);
//! assert!(cfg.dx100.is_none());
//! let dx = SystemConfig::paper_dx100();
//! assert!(dx.dx100.is_some());
//! // The DX100 system trades 2 MB of LLC for the scratchpad.
//! assert_eq!(
//!     cfg.hierarchy.llc.size_bytes - dx.hierarchy.llc.size_bytes,
//!     2 * 1024 * 1024
//! );
//! # let _: Option<RunStats> = None;
//! ```

pub mod config;
pub mod driver;
pub mod epoch;
pub mod profile;
pub mod region;
pub mod report;
pub mod stats;
pub mod system;

pub use config::{ObservabilityConfig, SystemConfig};
pub use epoch::{EpochSample, EpochSampler};
pub use profile::{RunTelemetry, SystemProfile, PROFILE_VERSION};
pub use stats::RunStats;
pub use system::System;
