//! A small fixed-size log-linear latency histogram (HdrHistogram-style),
//! used by the measurement drivers to report percentiles without
//! allocating per sample.
//!
//! Values are nanoseconds. Each power-of-two octave is split into 16 linear
//! sub-buckets, giving ≲ 6.25% relative error across the full `u64` range —
//! plenty for comparing p99s that differ by orders of magnitude.

use std::time::Duration;

/// Sub-buckets per octave (16 → log-linear with 4 mantissa bits).
const MINOR_BITS: u32 = 4;
const MINORS: usize = 1 << MINOR_BITS;
/// Values below `MINORS` get exact buckets `0..MINORS`; everything above is
/// log-linear: one group of `MINORS` buckets per octave `4..=63`.
const BUCKETS: usize = MINORS + (64 - MINOR_BITS as usize) * MINORS;

/// A mergeable latency histogram with bounded (≈6%) relative error.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < MINORS as u64 {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros();
    let shift = msb - MINOR_BITS;
    let minor = ((ns >> shift) & (MINORS as u64 - 1)) as usize;
    MINORS + (shift as usize) * MINORS + minor
}

/// Upper bound (inclusive) of the value range bucket `index` covers.
fn bucket_upper(index: usize) -> u64 {
    if index < MINORS {
        return index as u64;
    }
    let shift = ((index - MINORS) / MINORS) as u32;
    let minor = ((index - MINORS) % MINORS) as u128;
    // The top octave's upper bound exceeds u64; saturate.
    let upper = ((MINORS as u128 + minor + 1) << shift) - 1;
    u64::try_from(upper).unwrap_or(u64::MAX)
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            max_ns: 0,
        }
    }

    /// Records one sample, in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records one sample from a [`Duration`] (saturating at `u64::MAX`
    /// nanoseconds, i.e. ~584 years).
    pub fn record(&mut self, elapsed: Duration) {
        self.record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records the same sample `count` times — window-based accounting for
    /// pipelined drivers, where every request in a window observes (to
    /// within the batch) the window's round-trip time.
    pub fn record_many(&mut self, elapsed: Duration, count: u64) {
        if count == 0 {
            return;
        }
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_of(ns)] += count;
        self.total += count;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds another histogram into this one (for per-thread histograms).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The largest recorded sample, exactly.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The value at or below which `quantile` (in `[0, 1]`) of the samples
    /// fall, reported as the upper bound of the containing bucket (within
    /// ≈6% of the true value). Returns 0 for an empty histogram.
    pub fn percentile_ns(&self, quantile: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((quantile.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0_u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // The exact max is a tighter bound for the last bucket.
                return bucket_upper(index).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// [`LatencyHistogram::percentile_ns`] in (fractional) microseconds.
    pub fn percentile_us(&self, quantile: f64) -> f64 {
        self.percentile_ns(quantile) as f64 / 1_000.0
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("p50_ns", &self.percentile_ns(0.50))
            .field("p99_ns", &self.percentile_ns(0.99))
            .field("max_ns", &self.max_ns)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotonic_and_cover_u64() {
        let mut last = 0;
        for index in 1..BUCKETS {
            let upper = bucket_upper(index);
            assert!(upper > last, "bucket {index} not monotonic");
            last = upper;
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every value maps to a bucket whose range contains it.
        for ns in [1_u64, 15, 16, 17, 100, 999, 1_000_000, u64::MAX / 3] {
            let b = bucket_of(ns);
            assert!(ns <= bucket_upper(b), "{ns} above its bucket upper bound");
            if b > 0 {
                assert!(ns > bucket_upper(b - 1), "{ns} not above previous bucket");
            }
        }
    }

    #[test]
    fn percentiles_are_within_relative_error() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=10_000_u64 {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.percentile_ns(0.50) as f64;
        let p99 = h.percentile_ns(0.99) as f64;
        assert!((p50 / 5_000.0 - 1.0).abs() < 0.07, "p50 = {p50}");
        assert!((p99 / 9_900.0 - 1.0).abs() < 0.07, "p99 = {p99}");
        assert_eq!(h.percentile_ns(1.0), 10_000);
        assert_eq!(h.max_ns(), 10_000);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for _ in 0..9 {
            h.record_ns(3);
        }
        h.record_ns(7);
        assert_eq!(h.percentile_ns(0.5), 3);
        assert_eq!(h.percentile_ns(1.0), 7);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_ns(100);
        b.record_ns(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.percentile_ns(1.0) >= 1_000_000 - 1);
        assert!(a.percentile_ns(0.25) <= 103);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_ns(0.99), 0);
    }

    #[test]
    fn record_duration_converts_to_ns() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(5));
        assert!(h.percentile_ns(1.0) >= 5_000);
        assert!(h.percentile_us(1.0) >= 5.0);
    }
}
