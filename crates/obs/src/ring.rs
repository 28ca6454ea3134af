//! A fixed-capacity, allocation-free ring of timestamped trace events.
//!
//! Discrete events that are too rare for a histogram but too interesting
//! to drop — a resize phase transition, a grace period with its wait
//! duration, a backpressure trip — are pushed into a shared ring and read
//! back by `STATS TRACE`. Recording claims a slot with one relaxed
//! `fetch_add` on the head and then fills the slot's atomics; nothing
//! allocates, and an arbitrarily old ring simply wraps.
//!
//! Readers use each slot's sequence number as a torn-read guard: a slot is
//! reported only if its sequence reads the same before and after the field
//! loads, so a scrape racing a wrap sees either the old event or the new
//! one, never a blend.

use std::sync::atomic::{AtomicU64, Ordering};

/// What kind of event a trace entry records.
///
/// The set is closed (this crate is the telemetry schema for the whole
/// workspace), which keeps slot storage a plain integer — no pointers, no
/// unsafe reconstruction at scrape time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum TraceKind {
    /// A grace period completed; value = wait nanoseconds.
    Grace = 1,
    /// An incremental resize started; value = 1 for expand, 0 for shrink.
    ResizeBegin = 3,
    /// A resize finished; value = total steps is unknown, records 0.
    ResizeFinish = 5,
    /// A write's automatic resize step ran; value = slice nanoseconds.
    MaintSlice = 6,
    /// A connection tripped the output-queue watermark; value = queued
    /// bytes.
    Backpressure = 7,
    /// An idle connection was reaped; value = idle milliseconds (0 when
    /// unknown).
    IdleReap = 8,
    /// A connection was shed at the `max_connections` limit; value = the
    /// connection count at the time.
    ConnShed = 9,
    /// `STATS RESET` zeroed the telemetry; value = 0.
    StatsReset = 10,
    /// A grace period exceeded the stall threshold; value = elapsed
    /// nanoseconds.
    GraceStall = 11,
    /// An accepted connection was lost to an OS-level setup failure
    /// (nonblocking toggle or epoll registration); value = the raw OS
    /// error code.
    AcceptError = 12,
    /// A connection handler panicked; the connection was shed and the
    /// worker kept serving. Value = the connection's fd.
    ConnPanic = 13,
    /// `accept()` hit fd-table exhaustion (EMFILE/ENFILE) and the
    /// listener was backed off; value = the raw OS error code.
    AcceptBackoff = 14,
    /// A draining connection never drained and was force-closed at the
    /// drain deadline; value = queued bytes abandoned.
    DrainExpired = 16,
}

impl TraceKind {
    /// Stable label used in `STATS TRACE` output.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Grace => "grace",
            TraceKind::ResizeBegin => "resize_begin",
            TraceKind::ResizeFinish => "resize_finish",
            TraceKind::MaintSlice => "maint_slice",
            TraceKind::Backpressure => "backpressure",
            TraceKind::IdleReap => "idle_reap",
            TraceKind::ConnShed => "conn_shed",
            TraceKind::StatsReset => "stats_reset",
            TraceKind::GraceStall => "grace_stall",
            TraceKind::AcceptError => "accept_error",
            TraceKind::ConnPanic => "conn_panic",
            TraceKind::AcceptBackoff => "accept_backoff",
            TraceKind::DrainExpired => "drain_expired",
        }
    }

    fn from_u64(raw: u64) -> Option<TraceKind> {
        Some(match raw {
            1 => TraceKind::Grace,
            3 => TraceKind::ResizeBegin,
            5 => TraceKind::ResizeFinish,
            6 => TraceKind::MaintSlice,
            7 => TraceKind::Backpressure,
            8 => TraceKind::IdleReap,
            9 => TraceKind::ConnShed,
            10 => TraceKind::StatsReset,
            11 => TraceKind::GraceStall,
            12 => TraceKind::AcceptError,
            13 => TraceKind::ConnPanic,
            14 => TraceKind::AcceptBackoff,
            16 => TraceKind::DrainExpired,
            _ => return None,
        })
    }
}

#[derive(Default)]
struct Slot {
    /// 0 = never written; otherwise the event's 1-based sequence number.
    seq: AtomicU64,
    kind: AtomicU64,
    /// Microseconds since process telemetry start.
    at_us: AtomicU64,
    value: AtomicU64,
}

/// One event read back from the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// 1-based global sequence number (total events ever recorded can be
    /// read off the newest event's sequence).
    pub seq: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// Microseconds since telemetry start ([`crate::now_us`]).
    pub at_us: u64,
    /// Kind-specific payload (see [`TraceKind`]).
    pub value: u64,
}

/// The fixed-capacity event ring. See the module docs.
pub struct TraceRing {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

/// Default ring capacity (events retained before wrapping).
pub const DEFAULT_RING_CAPACITY: usize = 1024;

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(DEFAULT_RING_CAPACITY)
    }
}

impl TraceRing {
    /// Creates a ring holding `capacity` events (rounded up to a power of
    /// two, minimum 2). This is the ring's only allocation.
    pub fn new(capacity: usize) -> TraceRing {
        let n = capacity.max(2).next_power_of_two();
        TraceRing {
            head: AtomicU64::new(0),
            slots: (0..n).map(|_| Slot::default()).collect(),
        }
    }

    /// Number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records an event. One relaxed `fetch_add` claims the slot; three
    /// relaxed stores fill it; a release store of the sequence publishes
    /// it. Never allocates, never blocks.
    pub fn record(&self, kind: TraceKind, value: u64) {
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim as usize) & (self.slots.len() - 1)];
        // Invalidate while the fields are in flux, then publish.
        slot.seq.store(0, Ordering::Release);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.at_us.store(crate::now_us(), Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.seq.store(claim + 1, Ordering::Release);
    }

    /// Events ever recorded (including ones the ring has since wrapped
    /// over).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Reads the retained events, oldest first. Slots mid-write (or torn
    /// by a racing wrap) are skipped. Allocates the result vector — this
    /// is the scrape path, not the hot path.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 {
                continue;
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let at_us = slot.at_us.load(Ordering::Relaxed);
            let value = slot.value.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != before {
                continue;
            }
            let Some(kind) = TraceKind::from_u64(kind) else {
                continue;
            };
            events.push(TraceEvent {
                seq: before,
                kind,
                at_us,
                value,
            });
        }
        events.sort_unstable_by_key(|event| event.seq);
        events
    }

    /// Forgets every retained event and restarts the sequence numbering.
    /// Events recorded concurrently land in the fresh era.
    pub fn reset(&self) {
        self.head.store(0, Ordering::Relaxed);
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Release);
        }
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back_in_order() {
        let ring = TraceRing::new(8);
        ring.record(TraceKind::Grace, 100);
        ring.record(TraceKind::MaintSlice, 200);
        ring.record(TraceKind::Backpressure, 300);
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, TraceKind::Grace);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[2].value, 300);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(ring.recorded(), 3);
    }

    #[test]
    fn wraparound_keeps_only_the_newest_capacity_events() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.record(TraceKind::IdleReap, i);
        }
        let events = ring.events();
        assert_eq!(events.len(), 4, "capacity bounds retention");
        // The newest 4 of 10 events are sequences 7..=10, values 6..=9.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        assert_eq!(
            events.iter().map(|e| e.value).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(ring.recorded(), 10);
    }

    #[test]
    fn capacity_rounds_up_and_reset_clears() {
        let ring = TraceRing::new(5);
        assert_eq!(ring.capacity(), 8);
        ring.record(TraceKind::ConnShed, 1);
        ring.reset();
        assert!(ring.events().is_empty());
        assert_eq!(ring.recorded(), 0);
        ring.record(TraceKind::StatsReset, 0);
        assert_eq!(ring.events()[0].seq, 1, "sequence restarts after reset");
    }

    #[test]
    fn concurrent_recording_never_tears() {
        let ring = std::sync::Arc::new(TraceRing::new(16));
        let mut handles = Vec::new();
        for t in 0..4 {
            let ring = std::sync::Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    ring.record(TraceKind::Grace, t * 10_000 + i);
                }
            }));
        }
        for _ in 0..200 {
            for event in ring.events() {
                // A torn slot would produce an out-of-range value.
                assert!(event.value % 10_000 < 1000);
                assert_eq!(event.kind, TraceKind::Grace);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.recorded(), 4000);
        assert_eq!(ring.events().len(), 16);
    }
}
