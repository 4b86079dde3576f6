//! Set-associative tag array with LRU replacement.

use dx100_common::LineAddr;

/// Set in the tag word of a valid way; the rest of the word is the tag.
const VALID: u64 = 1 << 63;
/// Set in the state word of a dirty way.
const DIRTY: u64 = 1 << 63;
/// Set in the state word of a line installed by a prefetch and not yet
/// referenced by demand.
const PREFETCHED: u64 = 1 << 62;
/// The use stamp in a state word (monotonic, for LRU).
const STAMP: u64 = PREFETCHED - 1;

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
///
/// Each way is two words. A set is `2 * assoc` consecutive words: its
/// ways' tag words (`tag | VALID`), then their state words (LRU stamp,
/// `DIRTY`, `PREFETCHED`). A lookup scans only the tag words (64 bytes
/// for an 8-way set), comparing each with one `==`, and a hit's state
/// word lies right after the set's tags. The array starts zeroed (every
/// way invalid), so pages of a large array that no line maps to need not
/// be touched.
#[derive(Clone, Debug)]
pub struct CacheArray {
    /// Set `s` is `words[2 * assoc * s..2 * assoc * (s + 1)]`.
    words: Vec<u64>,
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
            words: vec![0; 2 * sets * ways],
            assoc: ways,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            stamp: 0,
        }
    }

    /// `line`'s set, as its ways' tag and state words, and the tag word
    /// that marks `line` present.
    fn set(&mut self, line: LineAddr) -> (&mut [u64], &mut [u64], u64) {
        let base = (line.0 & self.set_mask) as usize * 2 * self.assoc;
        let key = (line.0 >> self.set_bits) | VALID;
        let (tags, state) = self.words[base..base + 2 * self.assoc].split_at_mut(self.assoc);
        (tags, state, key)
    }

    /// Advances the use stamp for one access or insert.
    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        debug_assert!(self.stamp <= STAMP, "use stamp overflow");
        self.stamp
    }

    /// Looks up `line`; on hit updates LRU and the dirty bit (if `is_write`)
    /// and returns `true` plus whether the hit consumed a prefetched line.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> Option<PrefetchHit> {
        let stamp = self.next_stamp();
        let (tags, state, key) = self.set(line);
        let way = tags.iter().position(|&t| t == key)?;
        let old = state[way];
        state[way] = stamp | if is_write { DIRTY } else { old & DIRTY };
        Some(PrefetchHit {
            first_use_of_prefetch: old & PREFETCHED != 0,
        })
    }

    /// Whether `line` is present, without disturbing LRU.
    pub fn contains(&self, line: LineAddr) -> bool {
        let base = (line.0 & self.set_mask) as usize * 2 * self.assoc;
        let key = (line.0 >> self.set_bits) | VALID;
        self.words[base..base + self.assoc].contains(&key)
    }

    /// Installs `line`, evicting the LRU way if the set is full. Returns the
    /// victim if one was displaced.
    pub fn insert(&mut self, line: LineAddr, dirty: bool, prefetched: bool) -> Option<Victim> {
        let stamp = self.next_stamp();
        let (set_bits, set) = (self.set_bits, line.0 & self.set_mask);
        let (tags, state, key) = self.set(line);
        let dirty = if dirty { DIRTY } else { 0 };
        // Already present (e.g. racing fill): just update state.
        if let Some(way) = tags.iter().position(|&t| t == key) {
            state[way] = (state[way] & !STAMP) | dirty | stamp;
            return None;
        }
        // A free way, else the first way with the oldest stamp.
        let (way, victim) = match tags.iter().position(|&t| t & VALID == 0) {
            Some(way) => (way, None),
            None => {
                let way = (0..tags.len())
                    .min_by_key(|&w| state[w] & STAMP)
                    .expect("a set has at least one way");
                let victim = Victim {
                    line: LineAddr(((tags[way] & !VALID) << set_bits) | set),
                    dirty: state[way] & DIRTY != 0,
                };
                (way, Some(victim))
            }
        };
        tags[way] = key;
        state[way] = stamp | dirty | if prefetched { PREFETCHED } else { 0 };
        victim
    }

    /// Invalidates `line` if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (tags, state, key) = self.set(line);
        let way = tags.iter().position(|&t| t == key)?;
        tags[way] = 0;
        Some(state[way] & DIRTY != 0)
    }

    /// Number of valid lines (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.words
            .chunks(2 * self.assoc)
            .flat_map(|s| &s[..self.assoc])
            .filter(|&&t| t & VALID != 0)
            .count()
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

/// Differential property test: the packed two-array layout must agree
/// call for call with the per-`Way` array it replaced (hits, first uses of
/// prefetched lines, victims and their dirty bits, occupancy).
#[cfg(test)]
mod differential {
    use super::{PrefetchHit, Victim};
    use dx100_common::LineAddr;
    use proptest::prelude::*;

    /// The per-`Way` implementation, kept verbatim as the reference model.
    mod reference {
        use super::{PrefetchHit, Victim};
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
            pub fn insert(
                &mut self,
                line: LineAddr,
                dirty: bool,
                prefetched: bool,
            ) -> Option<Victim> {
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
    }

    #[derive(Debug, Clone)]
    enum Op {
        Access(u64, bool),
        Insert(u64, bool, bool),
        Invalidate(u64),
        Contains(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Lines from a small range so sets fill and evict; accesses and
        // inserts dominate.
        prop_oneof![
            (0u64..48, any::<bool>()).prop_map(|(l, w)| Op::Access(l, w)),
            (0u64..48, any::<bool>()).prop_map(|(l, w)| Op::Access(l, w)),
            (0u64..48, any::<bool>(), any::<bool>()).prop_map(|(l, d, p)| Op::Insert(l, d, p)),
            (0u64..48, any::<bool>(), any::<bool>()).prop_map(|(l, d, p)| Op::Insert(l, d, p)),
            (0u64..48).prop_map(Op::Invalidate),
            (0u64..48).prop_map(Op::Contains),
        ]
    }

    proptest! {
        #[test]
        fn packed_array_matches_way_reference(
            set_bits in 0u32..3,
            ways in 1usize..9,
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            let sets = 1usize << set_bits;
            let mut packed = super::CacheArray::new(sets, ways);
            let mut reference = reference::CacheArray::new(sets, ways);
            for op in ops {
                match op {
                    Op::Access(l, w) => prop_assert_eq!(
                        packed.access(LineAddr(l), w),
                        reference.access(LineAddr(l), w)
                    ),
                    Op::Insert(l, d, p) => prop_assert_eq!(
                        packed.insert(LineAddr(l), d, p),
                        reference.insert(LineAddr(l), d, p)
                    ),
                    Op::Invalidate(l) => prop_assert_eq!(
                        packed.invalidate(LineAddr(l)),
                        reference.invalidate(LineAddr(l))
                    ),
                    Op::Contains(l) => prop_assert_eq!(
                        packed.contains(LineAddr(l)),
                        reference.contains(LineAddr(l))
                    ),
                }
                prop_assert_eq!(packed.occupancy(), reference.occupancy());
            }
        }
    }
}
