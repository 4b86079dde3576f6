//! The paper's evaluation workloads: 12 irregular kernels from five suites
//! (Table 1) plus the five microbenchmarks of Figure 8, each with a
//! baseline (multicore loop-body) implementation and a DX100-offloaded
//! implementation, sharing one dataset per seed.
//!
//! Every kernel verifies its DX100-simulated output against a plain-Rust
//! functional reference before reporting timing, so the performance numbers
//! in the bench harness are backed by end-to-end correctness.
//!
//! | Kernel | Suite | Pattern (Table 1) |
//! |---|---|---|
//! | `is` | NAS | `RMW A[B[i]]`, single loop |
//! | `cg` | NAS | `LD A[B[j]]`, direct range loop (CSR SpMV) |
//! | `bfs` | GAP | `ST/LD` with condition, indirect range loop |
//! | `pr` | GAP | `RMW A[B[j]]`, direct range loop (push PageRank) |
//! | `bc` | GAP | `RMW A[B[j]] if (D[E[j]] == F)`, indirect range loop |
//! | `prh` | Hash-Join | `ST A[B[f(C[i])]]`, `f = (C[i] & F) >> G` |
//! | `pro` | Hash-Join | bucket-chain probe: `nodes[next_idx[i]]` walks |
//! | `gzz`/`gzp` | UME | `RMW A[B[i]] if (D[i] >= F)` |
//! | `gzzi`/`gzpi` | UME | `LD A[B[C[j]]] if (D[j] >= F)`, indirect range |
//! | `xrage` | Spatter | `ST A[B[i]]` with the xRAGE trace shape |

pub mod datasets;
pub mod kernels;
pub mod micro;
pub mod util;

use dx100_sim::{RunStats, RunTelemetry, SystemConfig};

/// Which machine runs the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Plain multicore (Table 3 baseline).
    Baseline,
    /// Multicore plus the DMP indirect prefetcher.
    Dmp,
    /// Multicore plus DX100 offload.
    Dx100,
}

impl Mode {
    /// All three modes.
    pub const ALL: [Mode; 3] = [Mode::Baseline, Mode::Dmp, Mode::Dx100];

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::Dmp => "dmp",
            Mode::Dx100 => "dx100",
        }
    }
}

/// Result of one kernel run.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Region-of-interest statistics.
    pub stats: RunStats,
    /// Checksum of the (verified) kernel output, stable across modes.
    pub checksum: u64,
    /// Cycle-skip counters and (with `obs.profile`) the cycle attribution.
    /// Kept outside [`RunStats`] so those stay bit-identical across
    /// telemetry switches.
    pub telemetry: RunTelemetry,
}

/// A runnable kernel at a fixed dataset scale.
pub trait KernelRun {
    /// Short name (matches the paper's labels).
    fn name(&self) -> &'static str;

    /// Runs the kernel in `mode` on a machine built from `cfg`.
    ///
    /// The same `seed` produces the same dataset in every mode, and DX100
    /// runs verify their output against the functional reference.
    fn run(&self, mode: Mode, cfg: &SystemConfig, seed: u64) -> WorkloadResult;
}

/// Dataset scale: 1.0 is this reproduction's default size (documented per
/// kernel; a few × smaller than the paper's gem5 datasets so runs take
/// seconds, not hours). Tests use small fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Scales a base element count, keeping at least `min`.
    pub fn apply(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.0) as usize).max(min)
    }
}

/// All 12 paper kernels at `scale`. Kernels are `Send + Sync` so a
/// figure sweep can run them from its worker threads.
pub fn all_kernels(scale: Scale) -> Vec<Box<dyn KernelRun + Send + Sync>> {
    vec![
        Box::new(kernels::is::IntegerSort::new(scale)),
        Box::new(kernels::cg::ConjugateGradient::new(scale)),
        Box::new(kernels::bfs::Bfs::new(scale)),
        Box::new(kernels::bc::BetweennessCentrality::new(scale)),
        Box::new(kernels::pr::PageRank::new(scale)),
        Box::new(kernels::prh::RadixJoinHistogram::new(scale)),
        Box::new(kernels::pro::RadixJoinChaining::new(scale)),
        Box::new(kernels::ume::Ume::zone(scale, false)),
        Box::new(kernels::ume::Ume::zone(scale, true)),
        Box::new(kernels::ume::Ume::point(scale, false)),
        Box::new(kernels::ume::Ume::point(scale, true)),
        Box::new(kernels::xrage::Xrage::new(scale)),
    ]
}
