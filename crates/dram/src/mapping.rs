//! Physical-address ↔ DRAM-coordinate mapping.
//!
//! The mapping determines which bits of a cache-line address select the
//! channel, bank group, bank, row, and column — and therefore how much
//! channel/bank-group parallelism a given access stream enjoys. The one
//! scheme, `channel : bank-group : column : bank : rank : row` (LSB → MSB),
//! interleaves consecutive lines across channels and then bank groups, as
//! server memory controllers do and as the paper's baseline assumes.
//!
//! Both directions are implemented: [`Organization::decode`] (address →
//! coordinates) drives the simulator, while [`Organization::encode`]
//! (coordinates → address) lets the microbenchmarks of Figure 8 construct
//! index patterns with exact row-buffer-hit and interleaving properties.

use crate::config::Organization;
use dx100_common::LineAddr;

/// DRAM coordinates of one cache-line column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCoord {
    /// Channel index.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank group within the rank.
    pub bank_group: usize,
    /// Bank within the bank group.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Cache-line column within the row.
    pub col: u64,
}

impl DramCoord {
    /// Flat bank index within the channel (rank-major).
    pub fn bank_index(&self, org: &Organization) -> usize {
        org.bank_index(self.rank, self.bank_group, self.bank)
    }
}

fn ilog2(v: usize) -> u32 {
    debug_assert!(
        v.is_power_of_two(),
        "organization dims must be powers of two"
    );
    v.trailing_zeros()
}

impl Organization {
    /// Decodes a cache-line address into DRAM coordinates.
    pub fn decode(&self, line: LineAddr) -> DramCoord {
        let mut bits = line.0;
        let mut take = |n: u32| -> u64 {
            let v = bits & ((1u64 << n) - 1);
            bits >>= n;
            v
        };
        let channel = take(ilog2(self.channels)) as usize;
        let bank_group = take(ilog2(self.bank_groups)) as usize;
        let col = take(ilog2(self.cols_per_row as usize));
        let bank = take(ilog2(self.banks_per_group)) as usize;
        let rank = take(ilog2(self.ranks)) as usize;
        DramCoord {
            channel,
            rank,
            bank_group,
            bank,
            row: bits,
            col,
        }
    }

    /// Encodes DRAM coordinates back into a cache-line address; exact inverse
    /// of [`Organization::decode`].
    pub fn encode(&self, coord: DramCoord) -> LineAddr {
        let mut bits: u64 = 0;
        let mut shift: u32 = 0;
        let mut put = |v: u64, n: u32| {
            debug_assert!(n == 64 || v < (1u64 << n), "field value out of range");
            bits |= v << shift;
            shift += n;
        };
        put(coord.channel as u64, ilog2(self.channels));
        put(coord.bank_group as u64, ilog2(self.bank_groups));
        put(coord.col, ilog2(self.cols_per_row as usize));
        put(coord.bank as u64, ilog2(self.banks_per_group));
        put(coord.rank as u64, ilog2(self.ranks));
        LineAddr(bits | (coord.row << shift))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn org() -> Organization {
        DramConfig::ddr4_3200_2ch().organization
    }

    #[test]
    fn default_map_interleaves_channels_then_bank_groups() {
        let org = org();
        let c0 = org.decode(LineAddr(0));
        let c1 = org.decode(LineAddr(1));
        let c2 = org.decode(LineAddr(2));
        assert_eq!(c0.channel, 0);
        assert_eq!(c1.channel, 1);
        // After the channel bit, the next bits pick the bank group.
        assert_eq!(c2.channel, 0);
        assert_eq!(c2.bank_group, 1);
        assert_eq!(c0.bank_group, 0);
    }

    #[test]
    fn encode_is_inverse_of_decode() {
        let org = org();
        for raw in [0u64, 1, 2, 17, 12345, 0xf_ffff, 0xdead_beef] {
            let line = LineAddr(raw);
            assert_eq!(org.encode(org.decode(line)), line, "{raw:#x}");
        }
    }

    #[test]
    fn decode_fields_in_range() {
        let org = org();
        for raw in 0..4096u64 {
            let c = org.decode(LineAddr(raw));
            assert!(c.channel < org.channels);
            assert!(c.bank_group < org.bank_groups);
            assert!(c.bank < org.banks_per_group);
            assert!(c.rank < org.ranks);
            assert!(c.col < org.cols_per_row);
        }
    }

    #[test]
    fn distinct_addresses_decode_distinctly() {
        let org = org();
        let mut seen = std::collections::HashSet::new();
        for raw in 0..8192u64 {
            let c = org.decode(LineAddr(raw));
            assert!(seen.insert((c.channel, c.rank, c.bank_group, c.bank, c.row, c.col)));
        }
    }
}
