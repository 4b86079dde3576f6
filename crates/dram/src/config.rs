//! DRAM organization, timing parameters, and top-level configuration.

/// Physical organization of the DRAM system.
///
/// The paper's configuration (Table 3) is two channels of DDR4-3200, each
/// with one rank of 4 bank groups × 4 banks and 8 KB rows (128 cache-line
/// columns per row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Organization {
    /// Number of independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Bank groups per rank.
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Cache-line-sized columns per row (row-buffer size / 64 B).
    pub cols_per_row: u64,
}

impl Organization {
    /// Total banks in one channel.
    pub fn banks_per_channel(&self) -> usize {
        self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Flat bank index within a channel for (rank, bank group, bank).
    pub fn bank_index(&self, rank: usize, bank_group: usize, bank: usize) -> usize {
        (rank * self.bank_groups + bank_group) * self.banks_per_group + bank
    }
}

/// DDR4 timing constraints, in DRAM clock ticks (tCK).
///
/// Values are the paper's Table 3 parameters for DDR4-3200 (tCK = 625 ps)
/// plus the standard JEDEC values for the constraints Table 3 leaves
/// implicit (CL, CWL, tWR, tRRD, tFAW, tWTR).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramTimings {
    /// Row precharge: PRE → ACT same bank. 12.5 ns = 20 tCK.
    pub t_rp: u64,
    /// RAS-to-CAS: ACT → RD/WR same bank. 12.5 ns = 20 tCK.
    pub t_rcd: u64,
    /// CAS-to-CAS, different bank group. 2.5 ns = 4 tCK.
    pub t_ccd_s: u64,
    /// CAS-to-CAS, same bank group. 5.0 ns = 8 tCK.
    pub t_ccd_l: u64,
    /// Read-to-precharge. 7.5 ns = 12 tCK.
    pub t_rtp: u64,
    /// ACT → PRE same bank. 32.5 ns = 52 tCK.
    pub t_ras: u64,
    /// CAS read latency. CL22 = 13.75 ns = 22 tCK.
    pub cl: u64,
    /// CAS write latency. CWL16 = 16 tCK.
    pub cwl: u64,
    /// Burst length on the data bus (BL8 = 4 tCK).
    pub t_bl: u64,
    /// Write recovery: end of write data → PRE. 15 ns = 24 tCK.
    pub t_wr: u64,
    /// ACT → ACT different bank, different bank group.
    pub t_rrd_s: u64,
    /// ACT → ACT different bank, same bank group.
    pub t_rrd_l: u64,
    /// Four-activate window per rank. ~21.25 ns = 34 tCK.
    pub t_faw: u64,
    /// Write-to-read turnaround, different bank group.
    pub t_wtr_s: u64,
    /// Write-to-read turnaround, same bank group.
    pub t_wtr_l: u64,
    /// Refresh interval (tREFI). 7.8 µs = 12480 tCK.
    pub t_refi: u64,
    /// Refresh cycle time (tRFC). ~350 ns = 560 tCK.
    pub t_rfc: u64,
}

impl DramTimings {
    /// JEDEC DDR4-3200AA timings used throughout the paper.
    pub fn ddr4_3200() -> Self {
        DramTimings {
            t_rp: 20,
            t_rcd: 20,
            t_ccd_s: 4,
            t_ccd_l: 8,
            t_rtp: 12,
            t_ras: 52,
            cl: 22,
            cwl: 16,
            t_bl: 4,
            t_wr: 24,
            t_rrd_s: 4,
            t_rrd_l: 8,
            t_faw: 34,
            t_wtr_s: 4,
            t_wtr_l: 12,
            t_refi: 12480,
            t_rfc: 560,
        }
    }

    /// ACT → ACT same bank (row cycle): `tRAS + tRP`.
    pub fn t_rc(&self) -> u64 {
        self.t_ras + self.t_rp
    }
}

/// Full configuration of the DRAM back-end.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Physical layout.
    pub organization: Organization,
    /// Timing constraints in tCK.
    pub timings: DramTimings,
    /// FR-FCFS request buffer entries per channel (Table 3: 32).
    pub request_buffer_size: usize,
    /// Age (in tCK) after which the oldest request is serviced strictly
    /// first, bounding starvation under continuous row hits.
    pub starvation_threshold: u64,
    /// Peak bandwidth of one channel in bytes per tCK (64 B / 4 tCK = 16).
    pub bytes_per_tick_per_channel: f64,
}

impl DramConfig {
    /// The paper's Table 3 memory system: 2 channels of DDR4-3200,
    /// 51.2 GB/s peak, 32-entry request buffer per channel, FR-FCFS.
    pub fn ddr4_3200_2ch() -> Self {
        Self::ddr4_3200_n_ch(2)
    }

    /// Same device parameters with an arbitrary channel count (the paper's
    /// scalability study in Figure 14 uses 4 channels).
    pub fn ddr4_3200_n_ch(channels: usize) -> Self {
        DramConfig {
            organization: Organization {
                channels,
                ranks: 1,
                bank_groups: 4,
                banks_per_group: 4,
                cols_per_row: 128,
            },
            timings: DramTimings::ddr4_3200(),
            request_buffer_size: 32,
            starvation_threshold: 4096,
            bytes_per_tick_per_channel: 16.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_timings_match_table3() {
        let t = DramTimings::ddr4_3200();
        // Table 3: tRP/RCD = 12.5 ns, tCCD_S/L = 2.5/5.0 ns, tRTP = 7.5 ns,
        // tRAS = 32.5 ns, tCK = 625 ps.
        assert_eq!(t.t_rp as f64 * 0.625, 12.5);
        assert_eq!(t.t_rcd as f64 * 0.625, 12.5);
        assert_eq!(t.t_ccd_s as f64 * 0.625, 2.5);
        assert_eq!(t.t_ccd_l as f64 * 0.625, 5.0);
        assert_eq!(t.t_rtp as f64 * 0.625, 7.5);
        assert_eq!(t.t_ras as f64 * 0.625, 32.5);
        assert_eq!(t.t_rc(), 72);
    }

    #[test]
    fn organization_bank_indexing() {
        let org = DramConfig::ddr4_3200_2ch().organization;
        assert_eq!(org.banks_per_channel(), 16);
        assert_eq!(org.bank_index(0, 0, 0), 0);
        assert_eq!(org.bank_index(0, 3, 3), 15);
        // Row buffer: 128 columns * 64 B = 8 KB.
        assert_eq!(org.cols_per_row * 64, 8192);
    }
}
