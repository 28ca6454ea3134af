//! The walk: the one list of what `STATS` serves.
//!
//! A registry names each of its metrics once, as one [`Visitor::metric`]
//! call carrying the metric's group, name, help text and storage
//! ([`Obs::walk`](crate::Obs::walk) for the five layer groups; the kvcache
//! server walks its engine group the same way). Three visitors take the
//! walk: the two writers, [`Prometheus`](crate::Prometheus) text and
//! [`Json`](crate::Json), and [`Reset`], which is `STATS RESET`. A new
//! metric is one more call, and the text form, the JSON form and the reset
//! cannot drift apart.

use crate::histogram::{Histogram, Snapshot};
use crate::metric::{Counter, Sharded};
use crate::slow::SlowLog;

/// A metric's storage, as a walk hands it to a [`Visitor`].
pub enum Metric<'a> {
    /// A count, served as one integer; `STATS RESET` zeroes it.
    Counter(&'a dyn Cells<u64>),
    /// A level, read at walk time and served as is; `STATS RESET` leaves
    /// it alone (see [`Gauge::get`](crate::Gauge::get)).
    Gauge(u64),
    /// Histogram storage, served as a summary; `STATS RESET` zeroes it.
    Summary(&'a dyn Cells<Snapshot>),
}

/// Storage behind a counter or a summary: what a scrape reads, and what
/// `STATS RESET` zeroes.
pub trait Cells<R> {
    /// The served value: a count, or a histogram snapshot.
    fn read(&self) -> R;
    /// Zeroes the storage.
    fn reset(&self);
}

impl Cells<u64> for Counter {
    fn read(&self) -> u64 {
        self.get()
    }

    fn reset(&self) {
        Counter::reset(self);
    }
}

impl Cells<Snapshot> for Histogram {
    fn read(&self) -> Snapshot {
        self.snapshot()
    }

    fn reset(&self) {
        Histogram::reset(self);
    }
}

/// The slow log's lifetime count; zeroing it empties the log.
impl Cells<u64> for SlowLog {
    fn read(&self) -> u64 {
        self.recorded()
    }

    fn reset(&self) {
        SlowLog::reset(self);
    }
}

/// One field of every shard of a [`Sharded`] set, served as one metric:
/// counts summed, histograms merged.
pub struct PerShard<'a, T, C>(pub &'a Sharded<T>, pub fn(&T) -> &C);

impl<T> Cells<u64> for PerShard<'_, T, Counter> {
    fn read(&self) -> u64 {
        self.0.iter().map(|shard| (self.1)(shard).get()).sum()
    }

    fn reset(&self) {
        self.0.iter().for_each(|shard| (self.1)(shard).reset());
    }
}

impl<T> Cells<Snapshot> for PerShard<'_, T, Histogram> {
    fn read(&self) -> Snapshot {
        let mut merged = Snapshot::default();
        for shard in self.0.iter() {
            merged.merge(&(self.1)(shard).snapshot());
        }
        merged
    }

    fn reset(&self) {
        self.0.iter().for_each(|shard| (self.1)(shard).reset());
    }
}

/// What a walk hands its metrics to, in order.
pub trait Visitor {
    /// Takes one metric: its group (the JSON form's nested object), its
    /// name and help text (the text form's family), and its storage.
    fn metric(&mut self, group: &'static str, name: &str, help: &str, metric: Metric<'_>);
}

/// `STATS RESET`: zeroes every counter and histogram a walk names and
/// leaves its gauges alone. Concurrent recording is safe; a racing sample
/// lands on whichever side of the reset its atomic write hits.
pub struct Reset;

impl Visitor for Reset {
    fn metric(&mut self, _: &'static str, _: &str, _: &str, metric: Metric<'_>) {
        match metric {
            Metric::Counter(cells) => cells.reset(),
            Metric::Summary(cells) => cells.reset(),
            Metric::Gauge(_) => {}
        }
    }
}
