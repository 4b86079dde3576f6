//! Order statistics over host-time samples.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it: with fewer, the "tail" is one or two unlucky samples and
//! moves from run to run for no reason in the code.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentile levels a tail may be reported at, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples. The epsilon keeps decimal levels such as 99.9, which are not
/// exact in binary, from rounding up one rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// The highest ladder level with at least [`MIN_BEYOND`] of `n` samples
/// beyond it, or `None` when `n` is too small for even the median.
pub fn tail_level(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
}

/// `(level, value)` of the tail percentile of unsorted samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let level = tail_level(samples.len())?;
    Some((level, percentile(&sorted(samples), level)))
}

/// An ascending copy.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Each op's fastest time over a run's passes: `passes[p][i]` is op `i`'s
/// host time in pass `p`, and every pass runs the same ops in the same
/// order (a pass that stopped early only shortens the result).
///
/// Other tenants of the machine only ever add host time, in bursts of
/// well under a second to minutes, and a pass lasts seconds, so whole
/// passes are rarely quiet but each op is quiet in some pass. The sum of
/// these minima is the time of a pass with no interference.
pub fn per_op_min(passes: &[Vec<f64>]) -> Vec<f64> {
    let mut it = passes.iter();
    let Some(first) = it.next() else {
        return Vec::new();
    };
    it.fold(first.clone(), |acc, p| {
        acc.iter().zip(p).map(|(a, b)| a.min(*b)).collect()
    })
}

/// Running totals: the time each op of a quiet pass is done, counted
/// from the pass's start.
pub fn done_times(op_s: &[f64]) -> Vec<f64> {
    op_s.iter()
        .scan(0.0, |t, s| {
            *t += s;
            Some(*t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: even the median has only 9.5 beyond it.
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(99), Some(50.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(999), Some(90.0));
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(10_000), Some(99.9));
        assert_eq!(tail_level(100_000), Some(99.99));
        assert_eq!(tail_level(10_000_000), Some(99.99));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_the_value() {
        let v: Vec<f64> = (0..250).rev().map(f64::from).collect();
        let (level, value) = tail(&v).unwrap();
        assert_eq!(level, 90.0);
        let beyond = v.iter().filter(|&&x| x > value).count();
        assert!(beyond >= MIN_BEYOND, "{beyond} beyond p{level}");
        assert_eq!(tail(&v[..10]), None);
    }

    #[test]
    fn per_op_min_takes_each_ops_quietest_pass() {
        let passes = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 6.0], vec![9.0, 9.0]];
        assert_eq!(per_op_min(&passes), [2.0, 1.0]);
        assert_eq!(per_op_min(&passes[..1]), [3.0, 1.0, 5.0]);
        assert!(per_op_min(&[]).is_empty());
        assert_eq!(done_times(&[2.0, 1.0, 5.0]), [2.0, 3.0, 8.0]);
    }
}
