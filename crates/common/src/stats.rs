//! Lightweight statistics helpers shared by every timing component.

/// A running average of a quantity sampled once per cycle (e.g. request
/// buffer occupancy).
///
/// ```
/// use dx100_common::stats::RunningAverage;
/// let mut avg = RunningAverage::new();
/// avg.sample(2.0);
/// avg.sample(4.0);
/// assert_eq!(avg.mean(), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunningAverage {
    sum: f64,
    count: u64,
}

impl RunningAverage {
    /// Creates an empty average.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    #[inline]
    pub fn sample(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
    }

    /// Adds the same sample `n` times in one step.
    ///
    /// Bit-identical to `n` repeated [`sample`](Self::sample) calls provided
    /// `v` and every previously recorded sample lie on a common dyadic grid
    /// (integers, or fractions with a power-of-two denominator) and the sum
    /// stays below 2^53 grid units — true for all occupancy counters in this
    /// workspace, which sample integer queue depths or k/2^m fractions.
    /// Cycle-skipping relies on this to credit idle spans without replaying
    /// each cycle.
    #[inline]
    pub fn sample_n(&mut self, v: f64, n: u64) {
        // Catch callers that would break the bit-exactness contract above:
        // `v * n` is only exact when `v` sits on a dyadic grid. m <= 32 is
        // far coarser than any counter in the workspace actually uses.
        debug_assert!(
            (v * (1u64 << 32) as f64).fract() == 0.0,
            "sample_n requires a dyadic-grid value (k/2^m, m <= 32), got {v}"
        );
        self.sum += v * n as f64;
        self.count += n;
    }

    /// Mean of all samples, or 0 if none were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples. With [`count`](Self::count) this lets epoch
    /// samplers compute the mean of an interval from two cumulative
    /// snapshots: `(sum2 - sum1) / (count2 - count1)`.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Folds another average into this one, as if all samples had been
    /// recorded on a single counter.
    pub fn merge(&mut self, other: &RunningAverage) {
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// A hit/miss (or success/failure) ratio counter.
///
/// ```
/// use dx100_common::stats::Ratio;
/// let mut r = Ratio::new();
/// r.hit();
/// r.hit();
/// r.miss();
/// assert!((r.rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Ratio {
    hits: u64,
    misses: u64,
}

impl Ratio {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a hit.
    #[inline]
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss.
    #[inline]
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Records `hit` as a boolean outcome.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hit()
        } else {
            self.miss()
        }
    }

    /// Number of hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total events.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Folds another counter into this one.
    pub fn merge(&mut self, other: &Ratio) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Hit rate in `[0, 1]`; 0 if no events were recorded.
    pub fn rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// Geometric mean of a slice of positive values, the aggregate the paper uses
/// for cross-workload speedups. Returns 0 for an empty slice.
///
/// ```
/// use dx100_common::stats::geomean;
/// assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

// ---------------------------------------------------------------------------
// Cumulative-counter interval diffing.
//
// The epoch time-series sampler (`dx100-sim::epoch`) measures *intervals*
// by snapshotting monotonically growing cumulative counters at boundaries
// and diffing consecutive snapshots. The arithmetic lives here so its edge
// cases (empty intervals, counter resets) are handled in one place.
// ---------------------------------------------------------------------------

/// Interval delta of a cumulative counter. Saturates at zero so a counter
/// reset inside the interval (e.g. an ROI boundary) yields an empty delta
/// instead of wrapping.
#[inline]
pub fn interval_delta(cur: u64, prev: u64) -> u64 {
    cur.saturating_sub(prev)
}

/// Interval hit rate from cumulative hit/miss counters: the rate over just
/// the events that occurred inside the interval, or 0 if there were none.
pub fn interval_rate(hits: (u64, u64), misses: (u64, u64)) -> f64 {
    let h = interval_delta(hits.0, hits.1);
    let m = interval_delta(misses.0, misses.1);
    if h + m == 0 {
        0.0
    } else {
        h as f64 / (h + m) as f64
    }
}

/// Interval ratio of two cumulative counters (e.g. busy ticks / total
/// ticks), or 0 when the denominator did not advance.
pub fn interval_ratio(num: (u64, u64), den: (u64, u64)) -> f64 {
    let d = interval_delta(den.0, den.1);
    if d == 0 {
        0.0
    } else {
        interval_delta(num.0, num.1) as f64 / d as f64
    }
}

/// Interval mean of a cumulative [`RunningAverage`]'s `(sum, count)` pair:
/// the mean of just the samples recorded inside the interval.
pub fn interval_mean(sum: (f64, f64), count: (u64, u64)) -> f64 {
    let c = interval_delta(count.0, count.1);
    if c == 0 {
        0.0
    } else {
        (sum.0 - sum.1).max(0.0) / c as f64
    }
}

/// Interval events-per-kilo-instruction from cumulative event and
/// instruction counters (the MPKI shape).
pub fn interval_per_kilo(events: (u64, u64), instructions: (u64, u64)) -> f64 {
    let i = interval_delta(instructions.0, instructions.1);
    if i == 0 {
        0.0
    } else {
        interval_delta(events.0, events.1) as f64 * 1000.0 / i as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_average_basic() {
        let mut a = RunningAverage::new();
        assert_eq!(a.mean(), 0.0);
        a.sample(1.0);
        a.sample(3.0);
        a.sample(5.0);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn ratio_basic() {
        let mut r = Ratio::new();
        assert_eq!(r.rate(), 0.0);
        r.record(true);
        r.record(false);
        r.record(false);
        r.record(false);
        assert_eq!(r.hits(), 1);
        assert_eq!(r.misses(), 3);
        assert_eq!(r.rate(), 0.25);
    }

    #[test]
    fn geomean_matches_definition() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mean_matches_definition() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    mod sample_n_bit_exactness {
        use super::*;
        use proptest::prelude::*;

        /// `sample_n(v, n)` must be bit-identical to `n` repeated
        /// `sample(v)` calls for grid-representable inputs — the contract
        /// batched skip-span crediting relies on. Exercised for integers
        /// and k/2^m fractions, interleaved with a prior history so the
        /// accumulated sum is nontrivial.
        fn assert_bit_identical(history: &[f64], v: f64, n: u64) {
            let mut batched = RunningAverage::new();
            let mut repeated = RunningAverage::new();
            for &h in history {
                batched.sample(h);
                repeated.sample(h);
            }
            batched.sample_n(v, n);
            for _ in 0..n {
                repeated.sample(v);
            }
            assert_eq!(batched.sum().to_bits(), repeated.sum().to_bits());
            assert_eq!(batched.count(), repeated.count());
        }

        proptest! {
            #[test]
            fn integers(
                history in proptest::collection::vec((-1000i64..1000).prop_map(|k| k as f64), 0..8),
                v in -1000i64..1000,
                n in 1u64..4096,
            ) {
                assert_bit_identical(&history, v as f64, n);
            }

            #[test]
            fn dyadic_fractions(
                history in proptest::collection::vec(
                    (-1000i64..1000, 0u32..20).prop_map(|(k, m)| k as f64 / (1u64 << m) as f64),
                    0..8,
                ),
                k in -1000i64..1000,
                m in 0u32..20,
                n in 1u64..4096,
            ) {
                assert_bit_identical(&history, k as f64 / (1u64 << m) as f64, n);
            }
        }
    }
}
