//! Set-associative tag array with LRU replacement.

use dx100_common::LineAddr;

/// One way of one set.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic use stamp for LRU.
    used: u64,
    /// Line was installed by a prefetch and not yet referenced by demand.
    prefetched: bool,
}

/// Result of inserting a line into the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Evicted line address.
    pub line: LineAddr,
    /// Whether the victim was dirty (requires a write-back).
    pub dirty: bool,
}

/// A set-associative tag/state array (data payloads are not modeled; the
/// functional layer owns data).
#[derive(Clone, Debug)]
pub struct CacheArray {
    /// Every way of every set in one allocation, set-major: set `s` is
    /// `ways[s * assoc..(s + 1) * assoc]`.
    ways: Vec<Way>,
    assoc: usize,
    set_mask: u64,
    set_bits: u32,
    stamp: u64,
}

impl CacheArray {
    /// Creates an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(ways > 0);
        CacheArray {
            ways: vec![Way::default(); sets * ways],
            assoc: ways,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            stamp: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    fn tag_of(&self, line: LineAddr) -> u64 {
        line.0 >> self.set_bits
    }

    fn line_of(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr((tag << self.set_bits) | set as u64)
    }

    fn set(&self, set: usize) -> &[Way] {
        &self.ways[set * self.assoc..(set + 1) * self.assoc]
    }

    fn set_mut(&mut self, set: usize) -> &mut [Way] {
        &mut self.ways[set * self.assoc..(set + 1) * self.assoc]
    }

    /// Looks up `line`; on hit updates LRU and the dirty bit (if `is_write`)
    /// and returns `true` plus whether the hit consumed a prefetched line.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> Option<PrefetchHit> {
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        self.stamp += 1;
        let stamp = self.stamp;
        for way in self.set_mut(set) {
            if way.valid && way.tag == tag {
                way.used = stamp;
                way.dirty |= is_write;
                let was_prefetched = way.prefetched;
                way.prefetched = false;
                return Some(PrefetchHit {
                    first_use_of_prefetch: was_prefetched,
                });
            }
        }
        None
    }

    /// Whether `line` is present, without disturbing LRU.
    pub fn contains(&self, line: LineAddr) -> bool {
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        self.set(set).iter().any(|w| w.valid && w.tag == tag)
    }

    /// Installs `line`, evicting the LRU way if the set is full. Returns the
    /// victim if one was displaced.
    pub fn insert(&mut self, line: LineAddr, dirty: bool, prefetched: bool) -> Option<Victim> {
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.set_mut(set);
        // Already present (e.g. racing fill): just update state.
        if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.dirty |= dirty;
            way.used = stamp;
            return None;
        }
        let fresh = Way {
            tag,
            valid: true,
            dirty,
            used: stamp,
            prefetched,
        };
        // Free way?
        if let Some(way) = ways.iter_mut().find(|w| !w.valid) {
            *way = fresh;
            return None;
        }
        // Evict LRU.
        let lru = ways
            .iter_mut()
            .min_by_key(|w| w.used)
            .expect("a set has at least one way");
        let victim = std::mem::replace(lru, fresh);
        Some(Victim {
            line: self.line_of(set, victim.tag),
            dirty: victim.dirty,
        })
    }

    /// Invalidates `line` if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        for way in self.set_mut(set) {
            if way.valid && way.tag == tag {
                way.valid = false;
                return Some(way.dirty);
            }
        }
        None
    }

    /// Number of valid lines (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

/// Outcome details of a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchHit {
    /// True when this demand access is the first use of a prefetched line
    /// (counts the prefetch as useful).
    pub first_use_of_prefetch: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut a = CacheArray::new(4, 2);
        assert!(a.access(LineAddr(5), false).is_none());
        assert!(a.insert(LineAddr(5), false, false).is_none());
        assert!(a.access(LineAddr(5), false).is_some());
        assert!(a.contains(LineAddr(5)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut a = CacheArray::new(1, 2);
        a.insert(LineAddr(1), false, false);
        a.insert(LineAddr(2), false, false);
        // Touch 1 so 2 becomes LRU.
        a.access(LineAddr(1), false);
        let v = a.insert(LineAddr(3), false, false).unwrap();
        assert_eq!(v.line, LineAddr(2));
        assert!(a.contains(LineAddr(1)));
        assert!(a.contains(LineAddr(3)));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut a = CacheArray::new(1, 1);
        a.insert(LineAddr(1), false, false);
        a.access(LineAddr(1), true); // make dirty via store hit
        let v = a.insert(LineAddr(2), false, false).unwrap();
        assert_eq!(
            v,
            Victim {
                line: LineAddr(1),
                dirty: true
            }
        );
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut a = CacheArray::new(2, 1);
        a.insert(LineAddr(4), true, false);
        assert_eq!(a.invalidate(LineAddr(4)), Some(true));
        assert_eq!(a.invalidate(LineAddr(4)), None);
        assert!(!a.contains(LineAddr(4)));
    }

    #[test]
    fn prefetch_first_use_detected() {
        let mut a = CacheArray::new(2, 2);
        a.insert(LineAddr(8), false, true);
        let hit = a.access(LineAddr(8), false).unwrap();
        assert!(hit.first_use_of_prefetch);
        let hit2 = a.access(LineAddr(8), false).unwrap();
        assert!(!hit2.first_use_of_prefetch);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut a = CacheArray::new(4, 1);
        for i in 0..4u64 {
            assert!(a.insert(LineAddr(i), false, false).is_none());
        }
        assert_eq!(a.occupancy(), 4);
        // Same set (stride = #sets) evicts.
        assert!(a.insert(LineAddr(4), false, false).is_some());
    }
}
