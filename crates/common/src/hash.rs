//! Stable content hashing (FNV-1a 64) and the simulator's map hasher.
//!
//! The serving layer (`dx100-serve`) keys its on-disk result cache by a
//! content hash of the fully resolved job configuration, so the hash
//! function is part of the cache's on-disk format: it must produce the
//! same value on every platform and every build, forever. FNV-1a is the
//! smallest function with well-known published test vectors that meets
//! that bar; the golden vectors below pin this implementation to the
//! reference one, and any change to them is a cache-format break.
//!
//! Not a cryptographic hash: collisions are possible in principle, but
//! with a handful of distinct job configs per deployment the 64-bit space
//! is effectively collision-free, and a collision only ever returns a
//! *wrong cached report*, never corrupts state — acceptable for a
//! memoization cache whose ground truth can always be recomputed.
//!
//! [`HashMap`] and [`HashSet`] are the maps every timed component uses on
//! its per-cycle path. Their [`WordHasher`] multiplies once per machine
//! word, where std's default SipHash mixes every key through several
//! rounds, and it has no per-process random key, so iteration order is a
//! function of the insertion sequence alone. It does not resist keys crafted to collide:
//! use it only for keys the simulator derives itself (request ids, line
//! and page numbers), never for keys taken from outside the program.

/// FNV-1a 64 offset basis.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot FNV-1a 64 over `bytes`.
///
/// ```
/// use dx100_common::hash::fnv1a_64;
/// assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
/// ```
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Incremental FNV-1a 64 state; feeding bytes in any split produces the
/// same digest as one [`fnv1a_64`] call over the concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Fresh state (offset basis).
    pub fn new() -> Self {
        Fnv64(FNV1A_OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV1A_PRIME);
        }
    }

    /// The digest so far (the state itself; FNV has no finalization).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Multiplier of [`WordHasher`]: odd, with well-mixed bits (the constant
/// of rustc's `FxHasher`, version 2).
const WORD_MUL: u64 = 0xf135_7aea_2e62_a9c5;

/// A deterministic one-multiply-per-word [`Hasher`](std::hash::Hasher) for
/// simulator-internal keys (see the module docs for when not to use it).
/// Integers of any width are one word; raw bytes, which no simulator key
/// hashes, cost one word each.
///
/// The product's high bits depend on every input bit, its low bits only on
/// the input's low bits; `finish` rotates the high bits down, because the
/// map takes its bucket index from the low bits and aligned addresses have
/// zero low bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(WORD_MUL);
    }
}

impl std::hash::Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `std` hash map keyed through [`WordHasher`]. Build with
/// `HashMap::default()`.
pub type HashMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<WordHasher>>;

/// A `std` hash set keyed through [`WordHasher`]. Build with
/// `HashSet::default()`.
pub type HashSet<T> = std::collections::HashSet<T, std::hash::BuildHasherDefault<WordHasher>>;

/// Fixed-width lowercase hex form used as the cache file name: 16 digits,
/// zero-padded, so keys sort lexicographically like they sort numerically
/// and every key has the same length.
pub fn hex16(h: u64) -> String {
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden vectors from the reference FNV distribution
    /// (<http://www.isthe.com/chongo/tech/comp/fnv/>). These pin the
    /// on-disk cache key format; a failure here means existing caches
    /// would be silently invalidated.
    #[test]
    fn golden_vectors() {
        for (input, want) in [
            (&b""[..], 0xcbf29ce484222325),
            (&b"a"[..], 0xaf63dc4c8601ec8c),
            (&b"b"[..], 0xaf63df4c8601f1a5),
            (&b"foobar"[..], 0x85944171f73967e8),
            (&b"chongo was here!\n"[..], 0x46810940eff5f915),
        ] {
            assert_eq!(
                fnv1a_64(input),
                want,
                "fnv1a_64({:?})",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut h = Fnv64::new();
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), fnv1a_64(data), "split at {split}");
        }
    }

    #[test]
    fn hex_is_fixed_width_lowercase() {
        assert_eq!(hex16(0), "0000000000000000");
        assert_eq!(hex16(0xcbf29ce484222325), "cbf29ce484222325");
        assert_eq!(hex16(u64::MAX), "ffffffffffffffff");
        assert_eq!(hex16(0xA), "000000000000000a");
    }

    /// The map hasher is a pure function of its input: no per-process
    /// key, so two maps fed the same insertions iterate in the same order.
    #[test]
    fn word_hasher_is_deterministic() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let b = BuildHasherDefault::<WordHasher>::default();
        assert_eq!(b.hash_one(42u64), b.hash_one(42u64));
        assert_ne!(b.hash_one(42u64), b.hash_one(43u64));
        let fill = || {
            let mut m: HashMap<u64, u64> = HashMap::default();
            for k in 0..1000u64 {
                m.insert(k.wrapping_mul(0x9e37_79b9), k);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill());
    }

    /// Aligned keys (zero low bits) must still spread over the low bits
    /// that pick a bucket; without the final rotation all 256 page-aligned
    /// keys below would share one bucket.
    #[test]
    fn word_hasher_spreads_aligned_keys() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let b = BuildHasherDefault::<WordHasher>::default();
        let buckets: HashSet<u64> = (0..256u64).map(|k| b.hash_one(k << 12) & 255).collect();
        assert!(buckets.len() >= 64, "only {} of 256 buckets", buckets.len());
    }

    #[test]
    fn distinct_inputs_disperse() {
        // Not a statistical test, just a guard against a degenerate
        // implementation (e.g. ignoring input bytes).
        let a = fnv1a_64(b"kernel=is");
        let b = fnv1a_64(b"kernel=pr");
        let c = fnv1a_64(b"kernel=is "); // trailing byte matters
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
