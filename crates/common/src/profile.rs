//! Low-overhead profiling primitives: exact integer occupancy accumulators
//! and power-of-two-bucketed histograms.
//!
//! These are the building blocks of the cycle-attribution profiler. Every
//! timed component keeps a small profile struct made of these types and
//! updates it once per tick (or once per elided span — see below), so the
//! per-cycle cost is a handful of integer adds.
//!
//! # Batch exactness
//!
//! The cycle-skip layer elides quiescent spans and later credits them in
//! one batch (`credit_idle_span`). For profile output to be bit-identical
//! with skipping on or off, every primitive here must satisfy the batch
//! identity used by that credit path:
//!
//! * [`OccAccum::add`]`(v, n)` ≡ n × `add(v, 1)`
//! * [`Pow2Histogram::record_n`]`(v, n)` ≡ n × `record(v)`
//!
//! Both hold exactly because all state is integer — there is no running
//! float mean to drift. (Contrast `stats::RunningAverage`, whose `sample_n`
//! needs a dyadic-grid argument for the same guarantee.)

/// Exact integer occupancy accumulator: the sum of one sample per cycle,
/// plus the sample count and the peak value seen.
///
/// `add(v, n)` records `n` consecutive cycles at occupancy `v` in O(1),
/// which is what makes skip-span batch crediting exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OccAccum {
    /// Σ value over all sampled cycles.
    pub sum: u64,
    /// Number of sampled cycles.
    pub cycles: u64,
    /// Maximum value ever sampled.
    pub peak: u64,
}

impl OccAccum {
    /// Records `n` cycles at occupancy `value`.
    #[inline]
    pub fn add(&mut self, value: u64, n: u64) {
        self.sum += value * n;
        self.cycles += n;
        if value > self.peak && n > 0 {
            self.peak = value;
        }
    }

    /// Mean occupancy over all sampled cycles (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.sum as f64 / self.cycles as f64
        }
    }

    /// Folds another accumulator in.
    pub fn merge(&mut self, other: &OccAccum) {
        self.sum += other.sum;
        self.cycles += other.cycles;
        self.peak = self.peak.max(other.peak);
    }
}

/// Number of buckets in a [`Pow2Histogram`]: one zero bucket plus one per
/// possible leading-one position of a u64.
pub const POW2_BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram over u64 values.
///
/// Bucket 0 holds exactly the value 0; bucket *i* (1 ≤ *i* ≤ 64) holds
/// values in `[2^(i-1), 2^i)`. Recording and merging are pure integer
/// bucket-count additions, so `merge` is associative and commutative and
/// `record_n` is batch-exact.
#[derive(Clone, PartialEq, Eq)]
pub struct Pow2Histogram {
    counts: [u64; POW2_BUCKETS],
}

impl Default for Pow2Histogram {
    fn default() -> Self {
        Pow2Histogram {
            counts: [0; POW2_BUCKETS],
        }
    }
}

impl std::fmt::Debug for Pow2Histogram {
    /// Prints only the non-empty buckets as `upper_bound: count` pairs, so
    /// debug output (and debug-string equality tests) stay readable.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(
                self.nonzero_buckets()
                    .map(|(i, c)| (Self::bucket_upper_bound(i), c)),
            )
            .finish()
    }
}

impl Pow2Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index `value` falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The largest value bucket `i` can hold (`0` for bucket 0, else
    /// `2^i − 1`).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value` in O(1).
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        self.counts[Self::bucket_of(value)] += n;
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Folds another histogram in (elementwise bucket addition —
    /// associative and commutative).
    pub fn merge(&mut self, other: &Pow2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Upper bound of the smallest bucket whose cumulative count reaches
    /// `q` (in [0, 1]) of the total; 0 when the histogram is empty. With
    /// power-of-two buckets this is a conservative quantile: the true
    /// p-quantile is ≤ the returned bound.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_upper_bound(i);
            }
        }
        Self::bucket_upper_bound(POW2_BUCKETS - 1)
    }

    /// Non-empty buckets as `(bucket index, count)` pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i, *c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Pow2Histogram::bucket_of(0), 0);
        assert_eq!(Pow2Histogram::bucket_of(1), 1);
        assert_eq!(Pow2Histogram::bucket_of(2), 2);
        assert_eq!(Pow2Histogram::bucket_of(3), 2);
        assert_eq!(Pow2Histogram::bucket_of(4), 3);
        assert_eq!(Pow2Histogram::bucket_of(u64::MAX), 64);
        // Every bucket's upper bound maps back to that bucket.
        for i in 0..POW2_BUCKETS {
            assert_eq!(
                Pow2Histogram::bucket_of(Pow2Histogram::bucket_upper_bound(i)),
                i
            );
        }
    }

    #[test]
    fn record_n_is_batch_exact() {
        let mut a = Pow2Histogram::new();
        let mut b = Pow2Histogram::new();
        for v in [0u64, 1, 5, 14, 1000] {
            a.record_n(v, 7);
            for _ in 0..7 {
                b.record(v);
            }
        }
        assert_eq!(a, b);
        assert_eq!(a.total(), 35);
    }

    #[test]
    fn quantile_is_bucket_upper_bound() {
        let mut h = Pow2Histogram::new();
        for _ in 0..99 {
            h.record(3); // bucket [2, 3]
        }
        h.record(14); // bucket [8, 15]
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.99), 3);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(Pow2Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn occupancy_batch_identity() {
        let mut a = OccAccum::default();
        let mut b = OccAccum::default();
        a.add(6, 10);
        for _ in 0..10 {
            b.add(6, 1);
        }
        assert_eq!(a, b);
        assert_eq!(a.mean(), 6.0);
        assert_eq!(a.peak, 6);
        // add(_, 0) records nothing, including the peak.
        a.add(100, 0);
        assert_eq!(a.peak, 6);
        assert_eq!(a.cycles, 10);
    }

    use proptest::prelude::*;

    /// Any u64 (not just small values) via a bit-length-uniform strategy,
    /// so high buckets get exercised too.
    fn any_magnitude() -> impl Strategy<Value = u64> {
        use proptest::strategy::boxed;
        (0u32..=64).prop_flat_map(|bits| {
            if bits == 0 {
                boxed(Just(0u64))
            } else {
                let lo = 1u64 << (bits - 1);
                let hi = if bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                boxed(lo..=hi)
            }
        })
    }

    fn hist_of(values: &[u64]) -> Pow2Histogram {
        let mut h = Pow2Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `bucket_of` places every value into the unique bucket whose
        /// range contains it: at most the bucket's upper bound, and
        /// strictly above the previous bucket's.
        #[test]
        fn bucket_of_respects_bucket_ranges(v in any_magnitude()) {
            let i = Pow2Histogram::bucket_of(v);
            prop_assert!(i < POW2_BUCKETS);
            prop_assert!(v <= Pow2Histogram::bucket_upper_bound(i));
            if i > 0 {
                prop_assert!(v > Pow2Histogram::bucket_upper_bound(i - 1));
            }
        }

        /// The batch identity the skip-span credit path relies on:
        /// `record_n(v, n)` is exactly `n` repeated `record(v)` calls.
        #[test]
        fn record_n_equals_n_records(v in any_magnitude(), n in 0u64..500) {
            let mut batch = Pow2Histogram::new();
            batch.record_n(v, n);
            let mut single = Pow2Histogram::new();
            for _ in 0..n {
                single.record(v);
            }
            prop_assert_eq!(batch, single);
        }

        /// Histogram merge is associative and commutative, and preserves
        /// the total observation count — so merging per-shard or
        /// per-channel histograms in any order gives one answer.
        #[test]
        fn histogram_merge_is_associative_and_commutative(
            a in proptest::collection::vec(any_magnitude(), 0..40),
            b in proptest::collection::vec(any_magnitude(), 0..40),
            c in proptest::collection::vec(any_magnitude(), 0..40),
        ) {
            let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
            // (a ⊕ b) ⊕ c
            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);
            // a ⊕ (b ⊕ c)
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut right = ha.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            // b ⊕ a  ==  a ⊕ b
            let mut ba = hb.clone();
            ba.merge(&ha);
            let mut ab = ha.clone();
            ab.merge(&hb);
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(left.total(), (a.len() + b.len() + c.len()) as u64);
            // Merging equals recording the concatenation directly.
            let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
            prop_assert_eq!(&left, &hist_of(&all));
        }

        /// `quantile` is a conservative bound: at least the true
        /// q-quantile of the recorded values, and monotone in q.
        #[test]
        fn quantile_bounds_true_quantile(
            values in proptest::collection::vec(any_magnitude(), 1..60),
            // The vendored proptest has no float ranges; draw percent points.
            q_pct in 0u64..=100,
        ) {
            let q = q_pct as f64 / 100.0;
            let h = hist_of(&values);
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
            prop_assert!(h.quantile(q) >= sorted[rank - 1]);
            prop_assert!(h.quantile(q) <= h.quantile(1.0));
        }

        /// `OccAccum` batch identity and merge consistency: `add(v, n)`
        /// matches n unit adds, and merging shards matches accumulating
        /// the union.
        #[test]
        fn occ_accum_batch_and_merge(
            // Occupancies are queue depths, not magnitudes: keep `Σ v·n`
            // far from u64 overflow (`add` uses unchecked arithmetic).
            samples in proptest::collection::vec((0u64..1 << 32, 0u64..20), 0..30),
            split in 0usize..30,
        ) {
            let mut batch = OccAccum::default();
            let mut single = OccAccum::default();
            for &(v, n) in &samples {
                batch.add(v, n);
                for _ in 0..n {
                    single.add(v, 1);
                }
            }
            prop_assert_eq!(batch, single);

            let split = split.min(samples.len());
            let (mut lo, mut hi) = (OccAccum::default(), OccAccum::default());
            for &(v, n) in &samples[..split] {
                lo.add(v, n);
            }
            for &(v, n) in &samples[split..] {
                hi.add(v, n);
            }
            lo.merge(&hi);
            prop_assert_eq!(lo, batch);
        }
    }

    #[test]
    fn occ_accum_merge() {
        let mut x = OccAccum::default();
        x.add(2, 3);
        let mut y = OccAccum::default();
        y.add(8, 1);
        x.merge(&y);
        assert_eq!(x.sum, 14);
        assert_eq!(x.cycles, 4);
        assert_eq!(x.peak, 8);
    }
}
