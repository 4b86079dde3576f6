//! Cache statistics: hit rates, MPKI inputs, prefetch effectiveness.

/// Counters for one cache level.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub demand_hits: u64,
    /// Demand accesses that missed (first lookup only; MSHR retries are not
    /// double-counted).
    pub demand_misses: u64,
    /// Demand misses merged into an existing MSHR entry.
    pub mshr_coalesced: u64,
    /// Lookups deferred because every MSHR was busy.
    pub mshr_full_stalls: u64,
    /// Prefetch requests sent downstream from this level.
    pub prefetch_issued: u64,
    /// Prefetched lines later referenced by a demand access.
    pub prefetch_useful: u64,
    /// Write-backs received from the level above.
    pub writebacks_received: u64,
    /// Accesses from DX100's Cache Interface (kept out of the demand
    /// counters so MPKI reflects what the *cores* see).
    pub dx100_accesses: u64,
    /// DX100 accesses that hit.
    pub dx100_hits: u64,
}

impl CacheStats {
    /// Total demand accesses.
    pub fn demand_accesses(&self) -> u64 {
        self.demand_hits + self.demand_misses
    }

    /// Demand hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.demand_hits as f64 / total as f64
        }
    }

    /// Misses per kilo-instruction given an instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.demand_misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Folds another level/core's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.demand_hits += other.demand_hits;
        self.demand_misses += other.demand_misses;
        self.mshr_coalesced += other.mshr_coalesced;
        self.mshr_full_stalls += other.mshr_full_stalls;
        self.prefetch_issued += other.prefetch_issued;
        self.prefetch_useful += other.prefetch_useful;
        self.writebacks_received += other.writebacks_received;
        self.dx100_accesses += other.dx100_accesses;
        self.dx100_hits += other.dx100_hits;
    }
}

/// Aggregated statistics for the whole hierarchy.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchyStats {
    /// All L1D caches combined.
    pub l1: CacheStats,
    /// All L2 caches combined.
    pub l2: CacheStats,
    /// The shared LLC.
    pub llc: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_mpki() {
        let s = CacheStats {
            demand_hits: 90,
            demand_misses: 10,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
        assert!((s.mpki(10_000) - 1.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn merge_sums() {
        let mut a = CacheStats {
            demand_hits: 1,
            prefetch_issued: 2,
            ..Default::default()
        };
        let b = CacheStats {
            demand_hits: 3,
            demand_misses: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.demand_hits, 4);
        assert_eq!(a.demand_misses, 4);
        assert_eq!(a.prefetch_issued, 2);
    }
}
