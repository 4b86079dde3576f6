//! Cache-level attribution: MSHR occupancy accumulators and depth
//! histograms, sampled once per tick from the pre-tick state.
//!
//! Sampling pre-tick makes the counters batch-exact under activity gating:
//! a sleeping cache's MSHR file is frozen, so
//! [`crate::Cache::credit_idle_ticks`] records `n` samples of the frozen
//! occupancy in one step — bit-identical to `n` no-op ticks.

use dx100_common::{OccAccum, Pow2Histogram};

/// MSHR utilization for one cache level (or several merged levels).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheProfile {
    /// MSHR entries in use, accumulated every tick (mean/peak occupancy).
    pub mshr_occ: OccAccum,
    /// MSHR entries in use, bucketed per tick (distribution/quantiles).
    pub mshr_depth: Pow2Histogram,
    /// Accesses parked in the retry queue (MSHR-full backpressure),
    /// accumulated every tick.
    pub retry_occ: OccAccum,
}

impl CacheProfile {
    /// Records `n` ticks at `mshr` entries in use and `retry` parked
    /// accesses (1 for a live tick, >1 for a credited span).
    pub fn sample(&mut self, mshr: u64, retry: u64, n: u64) {
        self.mshr_occ.add(mshr, n);
        self.mshr_depth.record_n(mshr, n);
        self.retry_occ.add(retry, n);
    }

    /// Folds another level's samples in.
    pub fn merge(&mut self, other: &CacheProfile) {
        self.mshr_occ.merge(&other.mshr_occ);
        self.mshr_depth.merge(&other.mshr_depth);
        self.retry_occ.merge(&other.retry_occ);
    }
}

/// Per-level MSHR utilization for a whole hierarchy, with private levels
/// merged across cores.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierarchyProfile {
    /// All L1D caches, merged.
    pub l1: CacheProfile,
    /// All private L2 caches, merged.
    pub l2: CacheProfile,
    /// The shared LLC.
    pub llc: CacheProfile,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_sample_equals_repeated_samples() {
        let mut a = CacheProfile::default();
        let mut b = CacheProfile::default();
        a.sample(3, 1, 7);
        for _ in 0..7 {
            b.sample(3, 1, 1);
        }
        assert_eq!(a, b);
        assert_eq!(a.mshr_occ.mean(), 3.0);
        assert_eq!(a.mshr_depth.total(), 7);
    }

    #[test]
    fn merge_accumulates_both_views() {
        let mut a = CacheProfile::default();
        a.sample(4, 0, 2);
        let mut b = CacheProfile::default();
        b.sample(0, 0, 2);
        a.merge(&b);
        assert_eq!(a.mshr_occ.mean(), 2.0);
        assert_eq!(a.mshr_depth.total(), 4);
    }
}
