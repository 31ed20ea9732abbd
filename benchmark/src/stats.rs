//! Small statistics: median and spread over repetitions, the bound
//! comparison behind `check_repeat.sh`, and a percentile read that looks
//! inside `LatencyHistogram`'s buckets.

use pmnet_sim::stats::LatencyHistogram;

/// The median of `values` (mean of the middle pair when the count is even).
///
/// # Panics
///
/// Panics when `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the largest and the smallest value as a share of the
/// median.
pub fn range_share(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values)
}

/// Whether larger or smaller values of a metric are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughputs, hit ratios.
    Higher,
    /// Times, allocations, memory.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// By what share of `base` the value `now` is worse (negative = better).
pub fn worse_by(better: Better, base: f64, now: f64) -> f64 {
    match better {
        Better::Higher => (base - now) / base,
        Better::Lower => (now - base) / base,
    }
}

/// Whether two runs of the same code agree on a metric: neither may be
/// worse than the other by more than `bound`.
pub fn agree(better: Better, bound: f64, a: f64, b: f64) -> bool {
    worse_by(better, a, b).abs() <= bound
}

/// The `q`-quantile of `h` in nanoseconds, interpolated inside the bucket
/// that holds it.
///
/// `LatencyHistogram::percentile` reports a bucket's upper edge, so two
/// seeds whose medians differ by nanoseconds read exactly the same and a
/// shift smaller than a bucket is invisible. This reads, through the
/// public accessors only, which ranks share the bucket (a binary search
/// over `percentile`) and how wide it is
/// (`LatencyHistogram::MAX_RELATIVE_ERROR` of its octave), and places the
/// asked rank proportionally between the edges. The error stays below one
/// bucket width.
///
/// # Panics
///
/// Panics when `h` is empty.
pub fn quantile_ns(h: &mut LatencyHistogram, q: f64) -> f64 {
    let n = h.len() as u64;
    assert!(n > 0, "quantile of an empty histogram");
    // A q that `percentile`'s own `ceil(q * n)` maps back to `rank`.
    let mut edge_at = |rank: u64| h.percentile((rank as f64 - 0.5) / n as f64).as_nanos();
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let upper = edge_at(rank);
    // First and last rank that report this same bucket.
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if edge_at(mid) < upper {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if edge_at(mid) > upper {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let width = if upper == 0 {
        0.0
    } else {
        (1u64 << upper.ilog2()) as f64 * LatencyHistogram::MAX_RELATIVE_ERROR
    };
    let lower = (upper as f64 - width.max(1.0)).max(0.0);
    let share = (rank - first) as f64 + 0.5;
    lower + (upper as f64 - lower) * share / (last - first + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmnet_sim::Dur;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn range_share_is_max_minus_min_over_the_median() {
        assert_eq!(range_share(&[2.0, 4.0, 3.0]), 2.0 / 3.0);
        assert_eq!(range_share(&[5.0, 5.0]), 0.0);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!(agree(Better::Higher, 0.10, 100.0, 91.0));
        assert!(!agree(Better::Higher, 0.10, 100.0, 89.0));
        assert!(!agree(Better::Higher, 0.10, 89.0, 100.0));
        assert!(agree(Better::Lower, 0.0, 7.0, 7.0));
    }

    #[test]
    fn interpolated_quantile_stays_within_a_bucket_of_the_exact_rank() {
        let mut h = LatencyHistogram::new();
        let mut exact = Vec::new();
        let mut x = 1u64;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ns = 20_000 + (x >> 40) % 5_000 + if x.is_multiple_of(100) { 900_000 } else { 0 };
            h.record(Dur::nanos(ns));
            exact.push(ns);
        }
        exact.sort_unstable();
        for q in [0.5, 0.99, 0.999] {
            let rank = (q * exact.len() as f64).ceil() as usize;
            let truth = exact[rank - 1] as f64;
            let got = quantile_ns(&mut h, q);
            let bucket = truth * LatencyHistogram::MAX_RELATIVE_ERROR;
            assert!((got - truth).abs() <= bucket, "q={q}: {got} vs {truth}");
        }
    }

    #[test]
    fn interpolated_quantile_tells_apart_what_the_bucket_edge_cannot() {
        // Same bucket edge, different position inside the bucket.
        let fill = |below: usize| {
            let mut h = LatencyHistogram::new();
            for i in 0..1_000 {
                h.record(Dur::nanos(if i < below { 10_000 } else { 22_300 }));
            }
            h
        };
        let (mut a, mut b) = (fill(400), fill(480));
        assert_eq!(a.percentile(0.5), b.percentile(0.5));
        assert!(quantile_ns(&mut a, 0.5) > quantile_ns(&mut b, 0.5));
    }
}
