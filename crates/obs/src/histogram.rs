//! A concurrently-recordable log-linear histogram.
//!
//! This is `rp-workload`'s `LatencyHistogram` generalized for telemetry:
//! the bucket layout (16 linear sub-buckets per power-of-two octave,
//! ≲6.25% relative error over the full `u64` range) is identical, but the
//! counts are relaxed atomics so any number of threads can record while a
//! scraper reads. Recording one sample is **exactly one relaxed
//! `fetch_add`** on the containing bucket — no total, no max, no lock;
//! those are derived at snapshot time, which is where the laziness the
//! hot path buys is paid for.
//!
//! A scrape taken while writers are recording is a *consistent-enough*
//! view: each bucket is read atomically, so every sample is either fully
//! visible or not yet visible, and the snapshot's total equals the sum of
//! what it saw. Percentiles computed from a snapshot therefore always
//! describe a real (if slightly stale) population.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave (16 → log-linear with 4 mantissa bits).
const MINOR_BITS: u32 = 4;
const MINORS: usize = 1 << MINOR_BITS;
/// Values below `MINORS` get exact buckets `0..MINORS`; everything above
/// is log-linear: one group of `MINORS` buckets per octave `4..=63`.
pub(crate) const BUCKETS: usize = MINORS + (64 - MINOR_BITS as usize) * MINORS;

pub(crate) fn bucket_of(value: u64) -> usize {
    if value < MINORS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - MINOR_BITS;
    let minor = ((value >> shift) & (MINORS as u64 - 1)) as usize;
    MINORS + (shift as usize) * MINORS + minor
}

/// Upper bound (inclusive) of the value range bucket `index` covers.
pub(crate) fn bucket_upper(index: usize) -> u64 {
    if index < MINORS {
        return index as u64;
    }
    let shift = ((index - MINORS) / MINORS) as u32;
    let minor = ((index - MINORS) % MINORS) as u128;
    // The top octave's upper bound exceeds u64; saturate.
    let upper = ((MINORS as u128 + minor + 1) << shift) - 1;
    u64::try_from(upper).unwrap_or(u64::MAX)
}

/// A log-linear histogram whose buckets are relaxed atomics.
///
/// The bucket array is heap-allocated **once, at construction** (≈7.6 KiB);
/// recording never allocates. Typical use records nanosecond durations,
/// but any `u64` distribution (batch sizes, queue depths) fits.
pub struct Histogram {
    counts: Box<[AtomicU64; BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram (the only allocation this type makes).
    pub fn new() -> Histogram {
        // `AtomicU64` is not `Copy`; build the boxed array from a vec.
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let counts: Box<[AtomicU64; BUCKETS]> = counts
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("vec has exactly BUCKETS elements"));
        Histogram { counts }
    }

    /// Records one sample: a single relaxed `fetch_add` on the containing
    /// bucket.
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the bucket counts. Safe to call while
    /// writers are recording (see the module docs for the consistency
    /// model).
    pub fn snapshot(&self) -> Snapshot {
        let mut counts = vec![0_u64; BUCKETS].into_boxed_slice();
        let mut total = 0_u64;
        for (slot, atomic) in counts.iter_mut().zip(self.counts.iter()) {
            let n = atomic.load(Ordering::Relaxed);
            *slot = n;
            total += n;
        }
        Snapshot { counts, total }
    }

    /// Zeroes every bucket. Samples recorded concurrently with the reset
    /// land in whichever era their bucket write raced into.
    pub fn reset(&self) {
        for bucket in self.counts.iter() {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// An owned, immutable copy of a [`Histogram`]'s buckets, with the derived
/// statistics (count, percentiles, approximate sum) computed on demand.
#[derive(Clone)]
pub struct Snapshot {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

impl Snapshot {
    /// Number of samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Folds another snapshot into this one (shard aggregation).
    pub fn merge(&mut self, other: &Snapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The value at or below which `quantile` (in `[0, 1]`) of the samples
    /// fall, reported as the upper bound of the containing bucket (within
    /// ≈6% of the true value). Returns 0 for an empty snapshot.
    pub fn percentile(&self, quantile: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((quantile.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0_u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_upper(index);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// The upper bound of the highest occupied bucket (≈ the maximum
    /// recorded sample, within the bucket's ≈6% width). 0 when empty.
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&count| count > 0)
            .map(bucket_upper)
            .unwrap_or(0)
    }

    /// Approximate sum of all samples, each taken at its bucket's upper
    /// bound (saturating). An upper estimate within the bucket error.
    pub fn sum_approx(&self) -> u64 {
        let mut sum = 0_u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 {
                sum = sum.saturating_add(bucket_upper(index).saturating_mul(count));
            }
        }
        sum
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("count", &self.total)
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .field("max", &self.max())
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
        for value in [1_u64, 15, 16, 17, 100, 999, 1_000_000, u64::MAX / 3] {
            let b = bucket_of(value);
            assert!(value <= bucket_upper(b));
            if b > 0 {
                assert!(value > bucket_upper(b - 1));
            }
        }
    }

    #[test]
    fn percentiles_match_recorded_population() {
        let h = Histogram::new();
        for value in 1..=10_000_u64 {
            h.record(value);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 10_000);
        let p50 = snap.percentile(0.50) as f64;
        let p99 = snap.percentile(0.99) as f64;
        assert!((p50 / 5_000.0 - 1.0).abs() < 0.07, "p50 = {p50}");
        assert!((p99 / 9_900.0 - 1.0).abs() < 0.07, "p99 = {p99}");
        assert!(snap.max() >= 10_000);
        assert!(snap.sum_approx() >= 10_000 * 10_001 / 2);
    }

    #[test]
    fn merge_and_reset() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(100);
        for _ in 0..3 {
            b.record(1_000_000);
        }
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.count(), 4);
        assert!(snap.percentile(1.0) >= 1_000_000);
        a.reset();
        assert_eq!(a.snapshot().count(), 0);
    }

    #[test]
    fn empty_snapshot_reports_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.percentile(0.99), 0);
        assert_eq!(snap.max(), 0);
        assert_eq!(snap.sum_approx(), 0);
    }
}
