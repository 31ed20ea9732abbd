//! Measurement collection: latency histograms, percentile summaries, CDFs
//! and throughput counters.
//!
//! Every figure in the paper's evaluation reduces to one of these: Fig. 15
//! and 18 report mean latencies, Fig. 16 mean latency vs offered bandwidth,
//! Fig. 19/22 throughput, Fig. 20 full CDFs with p50/p99 markers, Fig. 21
//! normalized means.

use std::collections::BTreeMap;
use std::fmt;

use crate::{Dur, Time};

/// An ordered bag of named event counters.
///
/// Harnesses flatten component counters (client retransmissions, device
/// log bypasses, server recovery retries, ...) into one of these so
/// verdicts and benches can assert on them by name instead of re-deriving
/// the numbers from traces. Deterministic iteration order (sorted by
/// name) keeps renderings digest-stable.
///
/// # Example
///
/// ```
/// use pmnet_sim::stats::CounterSet;
/// let mut c = CounterSet::new();
/// c.add("client.retransmits", 3);
/// c.add("client.retransmits", 2);
/// assert_eq!(c.get("client.retransmits"), 5);
/// assert_eq!(c.get("unknown"), 0);
/// assert_eq!(c.to_string(), "client.retransmits=5");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    counters: BTreeMap<String, u64>,
}

impl CounterSet {
    /// Creates an empty set.
    pub fn new() -> CounterSet {
        CounterSet::default()
    }

    /// Adds `n` to the named counter (creating it at zero).
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// The counter's value, or 0 if it was never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &CounterSet) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True if no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

/// Sub-bucket resolution of [`LatencyHistogram`]: each power-of-two octave
/// is split into `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 7;
/// Sub-buckets per octave (128).
const SUBS: u64 = 1 << SUB_BITS;
/// Total bucket count: one linear region below `SUBS` plus 57 octaves of
/// `SUBS` sub-buckets covering the rest of the `u64` range.
const BUCKETS: usize = (SUBS as usize) * (64 - SUB_BITS as usize + 1);

/// A fixed-memory log-bucketed duration histogram (HDR-style).
///
/// Samples land in power-of-two octaves split into 128 linear sub-buckets,
/// so `record` is O(1), memory is bounded (~7.4k `u64` buckets, allocated
/// lazily up to the largest octave seen), and two histograms merge by
/// adding bucket counts — which is what the parallel chaos campaigns need.
/// Values below 128 ns are exact; above that, percentiles carry at most
/// `1/128 ≈ 0.8%` relative error ([`LatencyHistogram::MAX_RELATIVE_ERROR`]).
/// `mean`, `min` and `max` are tracked exactly alongside the buckets.
///
/// # Example
///
/// ```
/// use pmnet_sim::{Dur, stats::LatencyHistogram};
/// let mut h = LatencyHistogram::new();
/// for us in 1..=100 {
///     h.record(Dur::micros(us));
/// }
/// // Percentiles are bucketed: within 0.8% of the exact rank value.
/// let p99 = h.percentile(0.99).as_nanos() as f64;
/// assert!((p99 - 99_000.0).abs() / 99_000.0 <= LatencyHistogram::MAX_RELATIVE_ERROR);
/// // Mean, min and max stay exact.
/// assert_eq!(h.mean(), Dur::nanos(50_500));
/// assert_eq!(h.max(), Dur::micros(100));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts, grown on demand (never past [`BUCKETS`]).
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Bucket index of a nanosecond value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBS {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let shift = e - SUB_BITS;
        let sub = (v >> shift) - SUBS;
        ((e - SUB_BITS + 1) as usize) * (SUBS as usize) + sub as usize
    }
}

/// Largest nanosecond value mapping to bucket `idx` (the representative
/// reported for percentiles, before clamping to the exact max).
#[inline]
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUBS as usize {
        idx as u64
    } else {
        let octave = (idx / SUBS as usize) as u32 - 1;
        let sub = (idx % SUBS as usize) as u64;
        let upper = ((SUBS + sub + 1) as u128) << (octave as u128);
        (upper - 1).min(u64::MAX as u128) as u64
    }
}

impl LatencyHistogram {
    /// Worst-case relative error of a percentile query (values below
    /// 128 ns are exact).
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUBS as f64;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample in O(1).
    pub fn record(&mut self, d: Dur) {
        let v = d.as_nanos();
        let idx = bucket_of(v);
        debug_assert!(idx < BUCKETS);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.sum += v as u128;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The arithmetic mean (exact: total sum over count).
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn mean(&self) -> Dur {
        assert!(!self.is_empty(), "mean of empty histogram");
        Dur::nanos((self.sum / self.count as u128) as u64)
    }

    /// The nanosecond value for nearest-rank `rank` (1-based).
    fn value_at_rank(&self, rank: u64) -> u64 {
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`), nearest-rank method over the
    /// bucketed counts. The result is the upper edge of the rank's bucket
    /// clamped to the observed `[min, max]`, so it is within
    /// [`LatencyHistogram::MAX_RELATIVE_ERROR`] of the exact rank value
    /// (and exact for values below 128 ns, single samples, and `q = 1.0`).
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `q` is outside `[0, 1]`.
    pub fn percentile(&mut self, q: f64) -> Dur {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        assert!(!self.is_empty(), "percentile of empty histogram");
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        Dur::nanos(self.value_at_rank(rank))
    }

    /// Minimum sample (exact).
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn min(&mut self) -> Dur {
        assert!(!self.is_empty(), "min of empty histogram");
        Dur::nanos(self.min)
    }

    /// Maximum sample (exact).
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn max(&mut self) -> Dur {
        assert!(!self.is_empty(), "max of empty histogram");
        Dur::nanos(self.max)
    }

    /// A one-line summary (mean / p50 / p99 / p999 / max).
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn summary(&mut self) -> Summary {
        Summary {
            count: self.len(),
            mean: self.mean(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
            min: self.min(),
            max: self.max(),
        }
    }

    /// Extracts `points` evenly spaced CDF points `(latency, cumulative
    /// fraction)` — the series plotted in Figure 20.
    ///
    /// # Panics
    ///
    /// Panics if empty or `points == 0`.
    pub fn cdf(&mut self, points: usize) -> Vec<(Dur, f64)> {
        assert!(points > 0, "need at least one CDF point");
        assert!(!self.is_empty(), "cdf of empty histogram");
        let n = self.count;
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                let rank = ((frac * n as f64).ceil() as u64).clamp(1, n);
                (Dur::nanos(self.value_at_rank(rank)), frac)
            })
            .collect()
    }

    /// Merges another histogram into this one by adding bucket counts.
    /// Exact (no re-bucketing), associative and commutative.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.is_empty() {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, &theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
    }
}

/// Snapshot statistics of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: Dur,
    /// Median.
    pub p50: Dur,
    /// 90th percentile.
    pub p90: Dur,
    /// 99th percentile (the paper's headline tail metric).
    pub p99: Dur,
    /// 99.9th percentile.
    pub p999: Dur,
    /// Minimum.
    pub min: Dur,
    /// Maximum.
    pub max: Dur,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p90={} p99={} max={}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// Fixed-width time buckets counting events per window — the series behind
/// timeline plots such as throughput during a failure/recovery episode.
///
/// # Example
///
/// ```
/// use pmnet_sim::{Time, Dur, stats::TimeSeries};
/// let mut ts = TimeSeries::new(Dur::millis(1));
/// ts.record(Time::from_nanos(100), 1);
/// ts.record(Time::ZERO + Dur::micros(900), 1);
/// ts.record(Time::ZERO + Dur::millis(1) + Dur::micros(1), 5);
/// assert_eq!(ts.buckets(), &[2, 5]);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    width: Dur,
    buckets: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: Dur) -> TimeSeries {
        assert!(!width.is_zero(), "zero bucket width");
        TimeSeries {
            width,
            buckets: Vec::new(),
        }
    }

    /// The bucket width.
    pub fn width(&self) -> Dur {
        self.width
    }

    /// Adds `count` events at instant `at`.
    pub fn record(&mut self, at: Time, count: u64) {
        let idx = (at.as_nanos() / self.width.as_nanos()) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += count;
    }

    /// The raw per-bucket counts (index i covers `[i*width, (i+1)*width)`).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Per-bucket event *rates* in events/second.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let w = self.width.as_secs_f64();
        self.buckets.iter().map(|&c| c as f64 / w).collect()
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for i in 1..=n {
            h.record(Dur::nanos(i));
        }
        h
    }

    #[test]
    fn mean_and_percentiles() {
        let mut h = filled(100);
        assert_eq!(h.mean(), Dur::nanos(50)); // (1+..+100)/100 = 50.5 -> 50 (integer div)
        assert_eq!(h.percentile(0.5), Dur::nanos(50));
        assert_eq!(h.percentile(0.99), Dur::nanos(99));
        assert_eq!(h.percentile(1.0), Dur::nanos(100));
        assert_eq!(h.min(), Dur::nanos(1));
        assert_eq!(h.max(), Dur::nanos(100));
    }

    #[test]
    fn percentile_of_single_sample() {
        let mut h = LatencyHistogram::new();
        h.record(Dur::micros(7));
        assert_eq!(h.percentile(0.0), Dur::micros(7));
        assert_eq!(h.percentile(0.5), Dur::micros(7));
        assert_eq!(h.percentile(1.0), Dur::micros(7));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_percentile_panics() {
        LatencyHistogram::new().percentile(0.5);
    }

    #[test]
    fn cdf_is_monotonic_and_spans() {
        let mut h = filled(1000);
        let cdf = h.cdf(20);
        assert_eq!(cdf.len(), 20);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert_eq!(cdf.last().unwrap().0, Dur::nanos(1000));
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = filled(10);
        let b = filled(10);
        a.merge(&b);
        assert_eq!(a.len(), 20);
        assert_eq!(a.max(), Dur::nanos(10));
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = filled(10);
        let before = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
        let mut e = LatencyHistogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn small_values_are_exact() {
        // The linear region (below 128 ns) buckets every value exactly.
        let mut h = filled(127);
        for i in 1..=127u64 {
            let q = i as f64 / 127.0;
            assert_eq!(h.percentile(q), Dur::nanos(i));
        }
    }

    #[test]
    fn bucket_roundtrip_brackets_every_magnitude() {
        // bucket_upper(bucket_of(v)) must be >= v and within the error
        // bound, across the whole u64 range including the top octave.
        for shift in 0..64u32 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift).saturating_add((1u64 << shift) / 7 * off);
                let up = bucket_upper(bucket_of(v));
                assert!(up >= v, "upper {up} < value {v}");
                let err = (up - v) as f64 / v.max(1) as f64;
                assert!(
                    err <= LatencyHistogram::MAX_RELATIVE_ERROR,
                    "err {err} at {v}"
                );
            }
        }
        assert_eq!(bucket_upper(bucket_of(u64::MAX)), u64::MAX);
    }

    #[test]
    fn percentile_error_is_bounded_vs_exact() {
        // Mixed magnitudes: exact nearest-rank oracle vs bucketed result.
        let mut xs: Vec<u64> = (0..500u64).map(|i| (i * i * 7919) % 2_000_000).collect();
        let mut h = LatencyHistogram::new();
        for &x in &xs {
            h.record(Dur::nanos(x));
        }
        xs.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            let exact = xs[rank - 1];
            let got = h.percentile(q).as_nanos();
            let err = got.abs_diff(exact) as f64 / exact.max(1) as f64;
            assert!(
                err <= LatencyHistogram::MAX_RELATIVE_ERROR,
                "q={q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn summary_fields_are_consistent() {
        let mut h = filled(1000);
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.p99 <= s.p999 && s.p999 <= s.max);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn time_series_buckets_and_rates() {
        let mut ts = TimeSeries::new(Dur::millis(10));
        ts.record(Time::ZERO, 3);
        ts.record(Time::ZERO + Dur::millis(9), 1);
        ts.record(Time::ZERO + Dur::millis(25), 2);
        assert_eq!(ts.buckets(), &[4, 0, 2]);
        assert_eq!(ts.total(), 6);
        let rates = ts.rates_per_sec();
        assert_eq!(rates[0], 400.0);
        assert_eq!(rates[1], 0.0);
        assert_eq!(rates[2], 200.0);
        assert_eq!(ts.width(), Dur::millis(10));
    }

    #[test]
    #[should_panic(expected = "zero bucket width")]
    fn zero_width_series_panics() {
        let _ = TimeSeries::new(Dur::ZERO);
    }
}
