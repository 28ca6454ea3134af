//! A fixed-capacity, allocation-free slow-request log.
//!
//! The sampled serving path times each phase of a request — decode, index
//! (the engine call), serialize — and hands the finished span here. Spans
//! whose total service time clears a runtime-adjustable threshold are kept
//! in a ring read back by `STATS SLOW`, so "the cache got slow" can be
//! answered with *which opcode, which key, which phase* instead of a
//! histogram tail.
//!
//! Recording follows the same per-slot seqlock discipline as
//! [`crate::TraceRing`]: one relaxed `fetch_add` claims a slot, relaxed
//! stores fill it, and a release store of the sequence publishes it.
//! Nothing allocates and nothing blocks; a scrape racing a wrap sees the
//! old span or the new one, never a blend.

use std::sync::atomic::{AtomicU64, Ordering};

/// Slow-log opcode tag: a GET (single- or multi-key).
pub const OP_GET: u64 = 1;
/// Slow-log opcode tag: a SET.
pub const OP_SET: u64 = 2;
/// Slow-log opcode tag: a DELETE.
pub const OP_DELETE: u64 = 3;
/// Slow-log opcode tag: everything else (stats, version, …).
pub const OP_OTHER: u64 = 4;

/// Stable label for a slow-log opcode tag (`STATS SLOW` output).
pub fn op_label(op: u64) -> &'static str {
    match op {
        OP_GET => "get",
        OP_SET => "set",
        OP_DELETE => "delete",
        _ => "other",
    }
}

/// One request-scoped span: who served the request, what it was, and where
/// the time went. `total_ns` covers the request's whole service time;
/// `decode_ns`/`index_ns`/`serialize_ns` are the measured phases (decode is
/// 0 when the caller did not time it).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SlowSpan {
    /// Ordinal of the worker that served the request.
    pub worker: u64,
    /// The worker-local request id (the worker's post-increment request
    /// counter — monotone per worker, exact even under sampling).
    pub request_id: u64,
    /// Opcode tag ([`OP_GET`], [`OP_SET`], [`OP_DELETE`], [`OP_OTHER`]).
    pub op: u64,
    /// Hash of the (first) key, 0 when the request has no key.
    pub key_hash: u64,
    /// Total service time, nanoseconds.
    pub total_ns: u64,
    /// Time spent in the final protocol-decode step, nanoseconds.
    pub decode_ns: u64,
    /// Time spent in the engine (index lookup / mutation), nanoseconds.
    pub index_ns: u64,
    /// Time spent serializing the response, nanoseconds.
    pub serialize_ns: u64,
}

/// One entry read back from the log: the span plus its log bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowEntry {
    /// 1-based global sequence number.
    pub seq: u64,
    /// Microseconds since telemetry start ([`crate::now_us`]).
    pub at_us: u64,
    /// The recorded span.
    pub span: SlowSpan,
}

#[derive(Default)]
struct SlowSlot {
    /// 0 = never written; otherwise the entry's 1-based sequence number.
    seq: AtomicU64,
    at_us: AtomicU64,
    worker: AtomicU64,
    request_id: AtomicU64,
    op: AtomicU64,
    key_hash: AtomicU64,
    total_ns: AtomicU64,
    decode_ns: AtomicU64,
    index_ns: AtomicU64,
    serialize_ns: AtomicU64,
}

/// Default slow-log capacity (entries retained before wrapping).
pub const DEFAULT_SLOW_CAPACITY: usize = 64;

/// Default slow threshold: spans at or above 1 ms total are logged.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 1_000_000;

/// The fixed-capacity slow-request log. See the module docs.
pub struct SlowLog {
    threshold_ns: AtomicU64,
    head: AtomicU64,
    slots: Box<[SlowSlot]>,
}

impl Default for SlowLog {
    fn default() -> Self {
        SlowLog::new(DEFAULT_SLOW_CAPACITY)
    }
}

impl SlowLog {
    /// Creates a log holding `capacity` entries (rounded up to a power of
    /// two, minimum 2) with the default threshold. This is the log's only
    /// allocation.
    pub fn new(capacity: usize) -> SlowLog {
        let n = capacity.max(2).next_power_of_two();
        SlowLog {
            threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS),
            head: AtomicU64::new(0),
            slots: (0..n).map(|_| SlowSlot::default()).collect(),
        }
    }

    /// Number of entries the log retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current slow threshold, nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Sets the slow threshold (spans with `total_ns >= ns` are logged).
    pub fn set_threshold_ns(&self, ns: u64) {
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Records the span if its total meets the threshold; returns whether
    /// it was logged. The fast path (span under threshold) is a single
    /// relaxed load.
    pub fn record(&self, span: &SlowSpan) -> bool {
        if span.total_ns < self.threshold_ns() {
            return false;
        }
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim as usize) & (self.slots.len() - 1)];
        // Invalidate while the fields are in flux, then publish.
        slot.seq.store(0, Ordering::Release);
        slot.at_us.store(crate::now_us(), Ordering::Relaxed);
        slot.worker.store(span.worker, Ordering::Relaxed);
        slot.request_id.store(span.request_id, Ordering::Relaxed);
        slot.op.store(span.op, Ordering::Relaxed);
        slot.key_hash.store(span.key_hash, Ordering::Relaxed);
        slot.total_ns.store(span.total_ns, Ordering::Relaxed);
        slot.decode_ns.store(span.decode_ns, Ordering::Relaxed);
        slot.index_ns.store(span.index_ns, Ordering::Relaxed);
        slot.serialize_ns
            .store(span.serialize_ns, Ordering::Relaxed);
        slot.seq.store(claim + 1, Ordering::Release);
        true
    }

    /// Slow spans ever logged (including ones the ring has wrapped over).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Reads the retained entries, oldest first. Slots mid-write (or torn
    /// by a racing wrap) are skipped. Allocates the result vector — this
    /// is the scrape path, not the hot path.
    pub fn entries(&self) -> Vec<SlowEntry> {
        let mut entries = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 {
                continue;
            }
            let entry = SlowEntry {
                seq: before,
                at_us: slot.at_us.load(Ordering::Relaxed),
                span: SlowSpan {
                    worker: slot.worker.load(Ordering::Relaxed),
                    request_id: slot.request_id.load(Ordering::Relaxed),
                    op: slot.op.load(Ordering::Relaxed),
                    key_hash: slot.key_hash.load(Ordering::Relaxed),
                    total_ns: slot.total_ns.load(Ordering::Relaxed),
                    decode_ns: slot.decode_ns.load(Ordering::Relaxed),
                    index_ns: slot.index_ns.load(Ordering::Relaxed),
                    serialize_ns: slot.serialize_ns.load(Ordering::Relaxed),
                },
            };
            if slot.seq.load(Ordering::Acquire) != before {
                continue;
            }
            entries.push(entry);
        }
        entries.sort_unstable_by_key(|entry| entry.seq);
        entries
    }

    /// Forgets every retained entry and restarts the sequence numbering.
    /// The threshold is configuration, not data — it survives.
    pub fn reset(&self) {
        self.head.store(0, Ordering::Relaxed);
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Release);
        }
    }
}

impl std::fmt::Debug for SlowLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowLog")
            .field("capacity", &self.capacity())
            .field("threshold_ns", &self.threshold_ns())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(total_ns: u64) -> SlowSpan {
        SlowSpan {
            worker: 1,
            request_id: 17,
            op: OP_GET,
            key_hash: 0xdead_beef,
            total_ns,
            decode_ns: 10,
            index_ns: 20,
            serialize_ns: 30,
        }
    }

    #[test]
    fn threshold_filters_and_fields_round_trip() {
        let log = SlowLog::new(8);
        log.set_threshold_ns(1000);
        assert!(!log.record(&span(999)), "under threshold is dropped");
        assert!(log.record(&span(1000)), "at threshold is kept");
        assert_eq!(log.recorded(), 1);
        let entries = log.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, 1);
        assert_eq!(entries[0].span, span(1000));
    }

    #[test]
    fn wraparound_keeps_the_newest_entries() {
        let log = SlowLog::new(4);
        log.set_threshold_ns(0);
        for i in 0..10 {
            let mut s = span(1_000_000);
            s.request_id = i;
            log.record(&s);
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 4);
        assert_eq!(
            entries
                .iter()
                .map(|e| e.span.request_id)
                .collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(log.recorded(), 10);
    }

    #[test]
    fn reset_clears_entries_but_keeps_the_threshold() {
        let log = SlowLog::new(4);
        log.set_threshold_ns(123);
        log.record(&span(1_000_000));
        log.reset();
        assert!(log.entries().is_empty());
        assert_eq!(log.recorded(), 0);
        assert_eq!(log.threshold_ns(), 123);
    }

    #[test]
    fn op_labels_are_stable() {
        assert_eq!(op_label(OP_GET), "get");
        assert_eq!(op_label(OP_SET), "set");
        assert_eq!(op_label(OP_DELETE), "delete");
        assert_eq!(op_label(OP_OTHER), "other");
        assert_eq!(op_label(99), "other");
    }
}
