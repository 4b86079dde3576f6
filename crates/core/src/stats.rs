//! DX100 engine statistics.

/// Counters for one DX100 instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dx100Stats {
    /// Instructions retired.
    pub instructions_retired: u64,
    /// Total elements processed across all instructions.
    pub elements_processed: u64,
    /// Line requests issued by the stream unit (to the LLC).
    pub stream_line_requests: u64,
    /// Indirect line reads issued (DRAM + LLC).
    pub indirect_line_reads: u64,
    /// Indirect line writes issued (IST/IRMW write-backs).
    pub indirect_line_writes: u64,
    /// Indirect words gated off by condition tiles.
    pub condition_skips: u64,
    /// Words coalesced into an already-pending column (saved line requests).
    pub words_coalesced: u64,
    /// Fill-stage snoops that found the line cached (H bit set).
    pub snoop_hits: u64,
    /// Fill-stage snoops that missed everywhere.
    pub snoop_misses: u64,
    /// Cycles the request generator stalled on a full DRAM request buffer.
    pub reqbuf_stall_cycles: u64,
    /// Cycles the fill stage stalled on Row Table capacity.
    pub rowtable_stall_cycles: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses (each stalls the fill stage).
    pub tlb_misses: u64,
    /// Scratchpad lines invalidated from host caches by the coherency agent.
    pub coherency_invalidations: u64,
}

impl Dx100Stats {
    /// Mean words served per indirect line read — the coalescing factor
    /// (≥ 1.0; higher is better).
    pub fn coalescing_factor(&self) -> f64 {
        if self.indirect_line_reads == 0 {
            0.0
        } else {
            let words = self.indirect_line_reads + self.words_coalesced;
            words as f64 / self.indirect_line_reads as f64
        }
    }

    /// Folds another instance's counters into this one.
    pub fn merge(&mut self, other: &Dx100Stats) {
        self.instructions_retired += other.instructions_retired;
        self.elements_processed += other.elements_processed;
        self.stream_line_requests += other.stream_line_requests;
        self.indirect_line_reads += other.indirect_line_reads;
        self.indirect_line_writes += other.indirect_line_writes;
        self.condition_skips += other.condition_skips;
        self.words_coalesced += other.words_coalesced;
        self.snoop_hits += other.snoop_hits;
        self.snoop_misses += other.snoop_misses;
        self.reqbuf_stall_cycles += other.reqbuf_stall_cycles;
        self.rowtable_stall_cycles += other.rowtable_stall_cycles;
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
        self.coherency_invalidations += other.coherency_invalidations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_factor_math() {
        let s = Dx100Stats {
            indirect_line_reads: 10,
            words_coalesced: 30,
            ..Default::default()
        };
        assert!((s.coalescing_factor() - 4.0).abs() < 1e-12);
        assert_eq!(Dx100Stats::default().coalescing_factor(), 0.0);
    }

    #[test]
    fn merge_sums() {
        let mut a = Dx100Stats {
            instructions_retired: 1,
            indirect_line_reads: 5,
            ..Default::default()
        };
        a.merge(&Dx100Stats {
            instructions_retired: 2,
            indirect_line_reads: 7,
            ..Default::default()
        });
        assert_eq!(a.instructions_retired, 3);
        assert_eq!(a.indirect_line_reads, 12);
    }
}
