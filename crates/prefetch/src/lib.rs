//! A DMP-style indirect prefetcher baseline (Fu et al., HPCA 2024), the
//! comparator of the paper's Figure 12.
//!
//! DMP (Differential-Matching Prefetcher) watches the core's load stream,
//! detects `A[B[i]]`-style indirection by matching differences between load
//! values and subsequent load addresses, and then prefetches
//! `A[B[i + Δ]]` ahead of the core. The reproduction models a *perfectly
//! trained* DMP — generous to the baseline — by letting workloads declare
//! their indirect patterns up front; the prefetcher then:
//!
//! * triggers on each demand access to the index array,
//! * reads the future index values (modeling its own prefetch of the index
//!   line plus the differential address computation),
//! * issues prefetches for the target lines into the triggering core's L2.
//!
//! What it deliberately does **not** do is exactly what the paper contrasts
//! with DX100: it cannot reorder DRAM traffic (prefetches arrive in program
//! order and take whatever row-buffer locality the index stream has), it
//! cannot see conditions (gated iterations are prefetched anyway, polluting
//! the cache), and it leaves the core's instruction footprint unchanged.

use std::collections::VecDeque;

use dx100_common::{Addr, CoreId, DType, LineAddr};
use dx100_core::MemoryImage;

/// One declared indirect pattern `target[index[i]]` (possibly scaled).
#[derive(Debug, Clone, Copy)]
pub struct IndirectPattern {
    /// Base address of the index array `B`.
    pub index_base: Addr,
    /// Element count of the index array.
    pub index_len: u64,
    /// Element type of the index array.
    pub index_dtype: DType,
    /// Base address of the target array `A`.
    pub target_base: Addr,
    /// Element type of the target array.
    pub target_dtype: DType,
    /// Right-shift applied to the loaded index before use
    /// (`A[B[i] >> shift]`, for hash-join style `f(C[i])` patterns; 0 for
    /// plain indirection).
    pub index_shift: u32,
    /// Mask applied to the loaded index before the shift, as in
    /// `A[(B[i] & mask) >> shift]`; `u64::MAX` for plain indirection.
    pub index_mask: u64,
}

impl IndirectPattern {
    /// Plain `A[B[i]]` indirection.
    pub fn simple(
        index_base: Addr,
        index_len: u64,
        index_dtype: DType,
        target_base: Addr,
        target_dtype: DType,
    ) -> Self {
        IndirectPattern {
            index_base,
            index_len,
            index_dtype,
            target_base,
            target_dtype,
            index_shift: 0,
            index_mask: u64::MAX,
        }
    }

    /// Whether `addr` falls inside the index array.
    fn contains_index(&self, addr: Addr) -> bool {
        addr >= self.index_base
            && addr < self.index_base + self.index_len * self.index_dtype.size_bytes()
    }

    /// Element number of an index-array address.
    fn index_elem(&self, addr: Addr) -> u64 {
        (addr - self.index_base) / self.index_dtype.size_bytes()
    }

    /// Target line for iteration `i`, read through the memory image (the
    /// oracle stands in for DMP's own index prefetch + differential match).
    fn target_line(&self, i: u64, mem: &MemoryImage) -> Option<LineAddr> {
        if i >= self.index_len {
            return None;
        }
        let raw = mem.read(
            self.index_dtype,
            self.index_base + i * self.index_dtype.size_bytes(),
        );
        let idx = (raw & self.index_mask) >> self.index_shift;
        let addr = self.target_base + idx * self.target_dtype.size_bytes();
        Some(LineAddr::containing(addr))
    }
}

/// Configuration of the DMP model.
#[derive(Debug, Clone, Copy)]
pub struct DmpConfig {
    /// How many iterations ahead to prefetch.
    pub distance: u64,
    /// Prefetches issued per trigger.
    pub degree: u64,
    /// Maximum prefetches in flight per core.
    pub max_inflight: usize,
}

impl Default for DmpConfig {
    fn default() -> Self {
        DmpConfig {
            distance: 16,
            degree: 4,
            max_inflight: 16,
        }
    }
}

/// Per-core trigger state.
#[derive(Clone, Debug, Default)]
struct CoreState {
    /// Highest iteration already covered by prefetches, per pattern.
    covered: Vec<u64>,
}

/// The DMP prefetcher instance shared by the system glue.
#[derive(Clone, Debug)]
pub struct Dmp {
    config: DmpConfig,
    patterns: Vec<IndirectPattern>,
    cores: Vec<CoreState>,
    /// Prefetch candidates awaiting injection: (core, line).
    pending: VecDeque<(CoreId, LineAddr)>,
    /// Prefetches issued (statistics).
    pub issued: u64,
}

impl Dmp {
    /// Creates a DMP for `cores` cores.
    pub fn new(config: DmpConfig, cores: usize) -> Self {
        Dmp {
            config,
            patterns: Vec::new(),
            cores: (0..cores).map(|_| CoreState::default()).collect(),
            pending: VecDeque::new(),
            issued: 0,
        }
    }

    /// Declares an indirect pattern (the "perfectly trained" shortcut).
    pub fn add_pattern(&mut self, p: IndirectPattern) {
        self.patterns.push(p);
        for c in &mut self.cores {
            c.covered.push(0);
        }
    }

    /// Observes a demand load; queues target prefetches if it hits an index
    /// array.
    pub fn on_core_load(&mut self, core: CoreId, addr: Addr, mem: &MemoryImage) {
        for (pi, p) in self.patterns.iter().enumerate() {
            if !p.contains_index(addr) {
                continue;
            }
            let i = p.index_elem(addr);
            let state = &mut self.cores[core];
            let start = (i + 1).max(state.covered[pi]);
            let end = (i + self.config.distance).min(p.index_len);
            let mut issued = 0;
            for j in start..end {
                if issued >= self.config.degree {
                    break;
                }
                if let Some(line) = p.target_line(j, mem) {
                    self.pending.push_back((core, line));
                    issued += 1;
                }
                state.covered[pi] = j + 1;
            }
        }
        // Bound the queue: a real prefetcher drops when overwhelmed.
        while self.pending.len() > self.cores.len() * self.config.max_inflight {
            self.pending.pop_front();
        }
    }

    /// Whether any queued prefetch awaits injection (quiescence probe).
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Pops the next prefetch to inject `(core, line)`.
    pub fn pop_prefetch(&mut self) -> Option<(CoreId, LineAddr)> {
        let p = self.pending.pop_front();
        if p.is_some() {
            self.issued += 1;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MemoryImage, IndirectPattern) {
        let mut mem = MemoryImage::new();
        let a = mem.alloc("A", DType::U32, 4096);
        let b = mem.alloc("B", DType::U32, 256);
        for i in 0..256 {
            mem.write_elem(b, i, (i * 37) % 4096);
        }
        let p = IndirectPattern::simple(b.base(), 256, DType::U32, a.base(), DType::U32);
        (mem, p)
    }

    #[test]
    fn triggers_on_index_loads_only() {
        let (mem, p) = setup();
        let mut dmp = Dmp::new(DmpConfig::default(), 1);
        dmp.add_pattern(p);
        // A load outside the index array: no prefetch.
        dmp.on_core_load(0, p.target_base, &mem);
        assert!(dmp.pop_prefetch().is_none());
        // A load of B[0]: prefetches ahead.
        dmp.on_core_load(0, p.index_base, &mem);
        let first = dmp.pop_prefetch();
        assert!(first.is_some());
    }

    #[test]
    fn prefetches_future_targets() {
        let (mem, p) = setup();
        let mut dmp = Dmp::new(DmpConfig::default(), 1);
        dmp.add_pattern(p);
        dmp.on_core_load(0, p.index_base, &mem);
        // First candidate must be the line of A[B[1]].
        let expect = LineAddr::containing(p.target_base + 37 * 4);
        assert_eq!(dmp.pop_prefetch(), Some((0, expect)));
    }

    #[test]
    fn coverage_advances_without_duplicates() {
        let (mem, p) = setup();
        let mut dmp = Dmp::new(
            DmpConfig {
                distance: 4,
                degree: 8,
                max_inflight: 64,
            },
            1,
        );
        dmp.add_pattern(p);
        dmp.on_core_load(0, p.index_base, &mem); // covers 1..4
        dmp.on_core_load(0, p.index_base + 4, &mem); // i=1, covers 4..5 only
        let mut lines = Vec::new();
        while let Some((_, l)) = dmp.pop_prefetch() {
            lines.push(l);
        }
        assert_eq!(lines.len(), 4, "no duplicate coverage: {lines:?}");
    }

    #[test]
    fn respects_array_bounds() {
        let (mem, p) = setup();
        let mut dmp = Dmp::new(DmpConfig::default(), 1);
        dmp.add_pattern(p);
        // Trigger at the last element: nothing beyond the array.
        dmp.on_core_load(0, p.index_base + 255 * 4, &mem);
        assert!(dmp.pop_prefetch().is_none());
    }

    #[test]
    fn masked_shifted_pattern() {
        let mut mem = MemoryImage::new();
        let a = mem.alloc("A", DType::U32, 1 << 12);
        let c = mem.alloc("C", DType::U32, 8);
        mem.write_elem(c, 1, 0b1111_0000);
        let p = IndirectPattern {
            index_base: c.base(),
            index_len: 8,
            index_dtype: DType::U32,
            target_base: a.base(),
            target_dtype: DType::U32,
            index_shift: 4,
            index_mask: 0xff,
        };
        let mut dmp = Dmp::new(
            DmpConfig {
                distance: 2,
                degree: 1,
                max_inflight: 8,
            },
            1,
        );
        dmp.add_pattern(p);
        dmp.on_core_load(0, c.base(), &mem);
        // (0b1111_0000 & 0xff) >> 4 = 15 → line of A[15].
        let expect = LineAddr::containing(a.base() + 15 * 4);
        assert_eq!(dmp.pop_prefetch(), Some((0, expect)));
    }
}
