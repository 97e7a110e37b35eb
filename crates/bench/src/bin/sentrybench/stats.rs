//! Exact statistics over raw samples: nearest-rank percentiles, the rule
//! for the highest percentile a sample count supports, and the median
//! and quartiles of repeated measurements.
//!
//! Every timing sample is kept, so percentiles are exact order
//! statistics rather than histogram-bucket bounds.

/// Samples that must lie beyond a reported percentile for it to mean
/// more than "the largest few values".
pub const TAIL_SAMPLES: usize = 10;

/// Percentiles the benchmark may report as a tail, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, which must be
/// ascending: the smallest value with at least `p`% of the samples at or
/// below it. Returns 0 for an empty slice.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted input");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// small slack keeps binary rounding (99.9 / 100 · 10000 =
/// 9990.000000000002) from pushing an exact rank up by one.
fn nearest_rank(n: usize, p: f64) -> usize {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// The highest of 99.9, 99, 95, 90 and 75 that leaves at least
/// [`TAIL_SAMPLES`] samples above its nearest rank, or 50 when even 75
/// does not (fewer than 40 samples).
#[must_use]
pub fn supported_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n >= TAIL_SAMPLES && nearest_rank(n, p) <= n - TAIL_SAMPLES)
        .unwrap_or(50.0)
}

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: u64,
    /// The reported tail percentile: 99 whenever `n ≥ 1000`, otherwise
    /// the highest percentile `n` supports.
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: u64,
}

impl Dist {
    /// Reduce raw samples (any order).
    #[must_use]
    pub fn of(samples: &[u64]) -> Dist {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let tail_pct = supported_percentile(sorted.len()).min(99.0);
        Dist {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
        }
    }
}

/// First quartile, median and third quartile of repeated measurements,
/// computed as Python's `statistics.median` and
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// compute them. A single value is its own median and quartiles; an
/// empty slice gives zeros.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: with two samples the clamp pushes j past i·m/4.
        #[allow(clippy::cast_possible_wrap, clippy::cast_precision_loss)]
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), median, cut(3))
}

/// Median of `values` (see [`quartiles`]).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.1), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        // Ranks round up: p50 of four samples is the second.
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(1000), 99.0);
        assert_eq!(supported_percentile(10_000), 99.9);
        assert_eq!(supported_percentile(999), 95.0);
        assert_eq!(supported_percentile(200), 95.0);
        assert_eq!(supported_percentile(199), 90.0);
        assert_eq!(supported_percentile(40), 75.0);
        assert_eq!(supported_percentile(39), 50.0);
        assert_eq!(supported_percentile(3), 50.0);
        for n in [40usize, 100, 200, 999, 1000, 5000] {
            let p = supported_percentile(n);
            assert!(n - nearest_rank(n, p) >= TAIL_SAMPLES, "n={n} p={p}");
        }
    }

    #[test]
    fn dist_caps_the_tail_at_p99() {
        let v: Vec<u64> = (0..20_000).rev().collect();
        let d = Dist::of(&v);
        assert_eq!(d.n, 20_000);
        assert_eq!(d.tail_pct, 99.0);
        assert_eq!(d.tail, 19_799);
        assert_eq!(d.p50, 9_999);
        let small = Dist::of(&[5, 1, 3]);
        assert_eq!((small.p50, small.tail_pct, small.tail), (3, 50.0, 3));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[1.0, 9.0, 3.0, 4.0]), 3.5);
    }
}
