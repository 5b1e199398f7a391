//! A log-linear latency histogram.

use asyncinv_simcore::SimDuration;

/// Number of linear sub-buckets per power-of-two bucket. 32 gives about
/// 1/32 ≈ 3% worst-case relative error, plenty for reproducing shapes.
const SUBBUCKETS: u64 = 32;

/// A log-linear histogram of durations.
///
/// Values are bucketed into powers of two split into 32 linear
/// sub-buckets, HdrHistogram-style, so memory stays constant regardless of
/// sample count while percentiles remain accurate to a few percent.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_nanos: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum_nanos: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let v = d.as_nanos();
        let idx = Self::index_of(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_nanos += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the samples (exact, not bucketed).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_nanos / self.count as u128) as u64)
    }

    /// Smallest recorded sample (exact).
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min)
        }
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max)
    }

    /// The value at quantile `q` (bucket upper bound, ≤3% relative error).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        SimDuration::from_nanos(Self::upper_bound(self.rank_bucket(rank)).min(self.max))
    }

    /// The lowest bucket whose cumulative count reaches `rank` (in
    /// `1..=count`). The scan runs down from the top bucket, so a tail
    /// quantile (the hot case: hedge delays) touches only the tail's
    /// buckets. Bucket `i` is the answer when fewer than `rank` samples lie
    /// below it, i.e. when more than `count - rank` lie at or above it.
    fn rank_bucket(&self, rank: u64) -> usize {
        let limit = self.count - rank;
        let mut above = 0u64;
        for (i, &c) in self.buckets.iter().enumerate().rev() {
            above += c;
            if above > limit {
                return i;
            }
        }
        unreachable!("bucket counts sum to the sample count")
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all samples.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.count = 0;
        self.sum_nanos = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    fn index_of(v: u64) -> usize {
        if v < SUBBUCKETS {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as u64; // v >= 32 so msb >= 5
        let shift = msb - SUBBUCKETS.trailing_zeros() as u64; // msb - 5
        let sub = (v >> shift) - SUBBUCKETS; // 0..SUBBUCKETS
        (shift * SUBBUCKETS + SUBBUCKETS + sub) as usize
    }

    /// Inclusive upper bound of bucket `i` (the largest value mapping there).
    fn upper_bound(i: usize) -> u64 {
        let i = i as u64;
        if i < SUBBUCKETS {
            return i;
        }
        let shift = (i - SUBBUCKETS) / SUBBUCKETS;
        let sub = (i - SUBBUCKETS) % SUBBUCKETS;
        ((SUBBUCKETS + sub + 1) << shift) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_nanos(v)
    }

    #[test]
    fn exact_below_subbucket_count() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(ns(v));
        }
        assert_eq!(h.min().as_nanos(), 0);
        assert_eq!(h.max().as_nanos(), 31);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn index_and_bound_are_consistent() {
        // Every value must land in a bucket whose upper bound is >= value
        // and within ~3.2% of it.
        for v in [
            1u64, 31, 32, 33, 63, 64, 100, 1_000, 65_536, 1_000_000, 123_456_789,
        ] {
            let idx = Histogram::index_of(v);
            let ub = Histogram::upper_bound(idx);
            assert!(ub >= v, "v={v} idx={idx} ub={ub}");
            assert!(
                (ub - v) as f64 <= 0.04 * v as f64 + 1.0,
                "v={v} ub={ub} too coarse"
            );
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(ns(100));
        h.record(ns(300));
        assert_eq!(h.mean().as_nanos(), 200);
    }

    #[test]
    fn quantiles_on_uniform_data() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        let p50 = h.quantile(0.5).as_micros();
        let p99 = h.quantile(0.99).as_micros();
        assert!((480..=530).contains(&p50), "p50={p50}");
        assert!((960..=1020).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0).as_micros(), 1000);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.99), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(ns(10));
        b.record(ns(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min().as_nanos(), 10);
        assert_eq!(a.max().as_nanos(), 1_000_000);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(ns(5));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn quantile_out_of_range_panics() {
        Histogram::new().quantile(1.5);
    }

    /// The reference rank search: a bottom-up scan over every bucket.
    fn quantile_bottom_up(h: &Histogram, q: f64) -> SimDuration {
        if h.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
        let mut seen = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimDuration::from_nanos(Histogram::upper_bound(i).min(h.max));
            }
        }
        SimDuration::from_nanos(h.max)
    }

    proptest! {
        /// The top-down scan finds the bucket the bottom-up scan
        /// finds, for samples spread over 40 octaves.
        #[test]
        fn quantile_matches_bottom_up_scan(
            samples in prop::collection::vec((0u32..40, 0u64..64), 1..400),
        ) {
            let mut h = Histogram::new();
            for &(octave, low) in &samples {
                h.record(ns((1u64 << octave) + low));
            }
            for q in [0.0, 0.5, 0.9, 0.97, 1.0] {
                prop_assert_eq!(h.quantile(q), quantile_bottom_up(&h, q), "q={}", q);
            }
        }
    }

    #[test]
    fn max_never_below_reported_quantile() {
        let mut h = Histogram::new();
        for i in 0..100u64 {
            h.record(ns(i * 7 + 3));
        }
        assert!(h.quantile(0.999) <= h.max());
    }
}
