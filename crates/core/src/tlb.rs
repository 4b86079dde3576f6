//! DX100's small TLB for huge-page PTEs (paper Section 3.6).
//!
//! The paper assumes indirect/stream regions are mapped through 2 MB huge
//! pages whose PTEs are transferred to the accelerator once per application
//! via an API call; a 256-entry TLB then covers 512 MB of data. Misses are
//! possible for un-preloaded pages and stall the fill stage.

use std::collections::VecDeque;

use dx100_common::hash::HashSet;
use dx100_common::Addr;

/// Huge-page size (2 MB).
const PAGE_SHIFT: u32 = 21;

/// The accelerator's TLB, FIFO-replaced.
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: HashSet<u64>,
    order: VecDeque<u64>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` huge-page entries.
    pub fn new(capacity: usize) -> Self {
        Tlb {
            entries: HashSet::default(),
            order: VecDeque::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Preloads PTEs covering `[base, base + size)` (the `transfer_pte` API;
    /// called once per array at setup).
    pub fn preload_range(&mut self, base: Addr, size: u64) {
        let first = base >> PAGE_SHIFT;
        let last = (base + size.max(1) - 1) >> PAGE_SHIFT;
        for page in first..=last {
            self.insert(page);
        }
    }

    /// Translates `addr` (identity mapping in this simulator). Returns
    /// `true` on a TLB hit; a miss inserts the entry (hardware page-walk)
    /// and returns `false` so the caller can charge the walk latency.
    pub fn lookup(&mut self, addr: Addr) -> bool {
        let page = addr >> PAGE_SHIFT;
        if self.entries.contains(&page) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            self.insert(page);
            false
        }
    }

    fn insert(&mut self, page: u64) {
        if self.entries.insert(page) {
            self.order.push_back(page);
            if self.order.len() > self.capacity {
                let evict = self.order.pop_front().unwrap();
                self.entries.remove(&evict);
            }
        }
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preloaded_range_hits() {
        let mut tlb = Tlb::new(256);
        tlb.preload_range(0, 8 << 21); // 8 huge pages
        assert!(tlb.lookup(0));
        assert!(tlb.lookup((7 << 21) + 12345));
        assert_eq!(tlb.misses(), 0);
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(4);
        assert!(!tlb.lookup(0x4000_0000));
        assert!(tlb.lookup(0x4000_0000));
        assert_eq!(tlb.misses(), 1);
        assert_eq!(tlb.hits(), 1);
    }

    #[test]
    fn fifo_eviction() {
        let mut tlb = Tlb::new(2);
        tlb.preload_range(0, 1); // page 0
        tlb.preload_range(1 << 21, 1); // page 1
        tlb.preload_range(2 << 21, 1); // page 2 evicts page 0
        assert!(!tlb.lookup(0));
        assert!(tlb.lookup(2 << 21));
    }
}
