//! The in-process workloads: `rp-hash` and `rp-rcu` called through their
//! public functions, two busy threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rp_hash::{ResizePolicy, RpHashMap};

use crate::gen::{id_stream, table_key, table_value, KeyDist, Rng, ABSENT};
use crate::harness::{run_thread, Driver, Phase, PhaseSync, Warm, Window};
use crate::measure::{Kind, Outcome, SpanLog, UnitLog};

/// Lookups per read unit of `table-steady`, and operations per unit of the
/// ladder's rungs.
pub const UNIT_OPS: usize = 1024;

pub type Map = RpHashMap<u64, u64>;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TableShape {
    /// Both threads read; thread 0 also updates.
    Steady,
    /// Thread 0 reads while thread 1 resizes without pause.
    Resize,
}

pub struct TableSpec {
    pub shape: TableShape,
    pub entries: usize,
    pub dist: KeyDist,
    /// Lookups per read unit, all under one guard.
    pub read_unit: usize,
    /// Updates per write unit of `table-steady`, and how often thread 0
    /// runs one: every this-many-th unit.
    pub write_ops: usize,
    pub write_every: u64,
    /// Units each reading thread runs before the first window.
    pub warm_units: u64,
}

/// A thread's reads: keys in units of `unit_ops`, and for each unit how
/// many keys must be found and what their values must sum to.
pub struct ReadStream {
    keys: Vec<u64>,
    unit_ops: usize,
    expect: Vec<(u64, u64)>,
}

impl ReadStream {
    pub fn new(
        dist: KeyDist,
        entries: usize,
        units: usize,
        unit_ops: usize,
        rng: &mut Rng,
    ) -> ReadStream {
        let ids = id_stream(dist, entries, units * unit_ops, rng);
        let keys: Vec<u64> = ids.iter().map(|&id| table_key(id)).collect();
        let expect = ids
            .chunks(unit_ops)
            .map(|unit| {
                unit.iter()
                    .filter(|&&id| id & ABSENT == 0)
                    .fold((0, 0u64), |(hits, sum), &id| {
                        (hits + 1, sum.wrapping_add(table_value(table_key(id))))
                    })
            })
            .collect();
        ReadStream {
            keys,
            unit_ops,
            expect,
        }
    }

    pub fn units(&self) -> usize {
        self.expect.len()
    }

    pub fn unit(&self, index: usize) -> &[u64] {
        &self.keys[index * self.unit_ops..(index + 1) * self.unit_ops]
    }

    /// One read unit: `unit_ops` lookups under one guard, every result
    /// checked against what the stream says it must be.
    #[inline]
    pub fn run_unit(
        &self,
        map: &Map,
        index: usize,
        unit_id: u64,
        spans: Option<&mut SpanLog>,
    ) -> (Instant, Instant, Outcome) {
        let keys = self.unit(index);
        let (want_hits, want_sum) = self.expect[index];
        let start = Instant::now();
        let guard = map.pin();
        let pinned = spans.is_some().then(Instant::now);
        let (hits, sum) = look_up(map, keys, &guard);
        let looked_up = spans.is_some().then(Instant::now);
        drop(guard);
        let end = Instant::now();
        if let (Some(spans), Some(pinned), Some(looked_up)) = (spans, pinned, looked_up) {
            let unit = spans.push("table.read_unit", start, end, -1, unit_id);
            spans.push("rcu.pin", start, pinned, unit, unit_id);
            spans.push("hash.get", pinned, looked_up, unit, unit_id);
            spans.push("rcu.unpin", looked_up, end, unit, unit_id);
        }
        // A stored key that is not found, a never-stored key that is, or a
        // wrong value each fail at least one lookup.
        let failed = hits.abs_diff(want_hits) + u64::from(hits == want_hits && sum != want_sum);
        let outcome = Outcome {
            kind: Kind::Read,
            ops: self.unit_ops as u64,
            hits: hits.min(want_hits),
            failed,
        };
        (start, end, outcome)
    }
}

/// The lookups of one read unit: how many keys were found and what their
/// values sum to. The workload and the `hash` rungs share it, so they time
/// the same loop.
#[inline]
pub fn look_up(map: &Map, keys: &[u64], guard: &rp_hash::RcuGuard<'_>) -> (u64, u64) {
    let (mut hits, mut sum) = (0u64, 0u64);
    for key in keys {
        if let Some(&value) = map.get(key, guard) {
            hits += 1;
            sum = sum.wrapping_add(value);
        }
    }
    (hits, sum)
}

/// Builds the table the way a user who does not know the final size would:
/// it starts small and doubles itself as entries arrive, ending at load
/// factor 1.
pub fn build(entries: usize) -> Map {
    let policy = ResizePolicy {
        auto_expand: true,
        max_load_factor: 1.0,
        ..ResizePolicy::default()
    };
    let map = RpHashMap::with_buckets_hasher_and_policy(16, Default::default(), policy);
    for index in 0..entries as u32 {
        let key = table_key(index);
        map.insert(key, table_value(key));
    }
    map
}

struct Reader<'a> {
    map: &'a Map,
    spec: &'a TableSpec,
    reads: &'a ReadStream,
    /// Stored keys this thread overwrites, or none if it only reads.
    writes: Option<&'a [u64]>,
    next_read: usize,
    next_write: usize,
}

impl<'a> Reader<'a> {
    fn new(
        map: &'a Map,
        spec: &'a TableSpec,
        reads: &'a ReadStream,
        writes: Option<&'a [u64]>,
    ) -> Reader<'a> {
        Reader {
            map,
            spec,
            reads,
            writes,
            next_read: 0,
            next_write: 0,
        }
    }
}

impl Driver for Reader<'_> {
    fn step(&mut self, unit_id: u64, spans: Option<&mut SpanLog>) -> (Instant, Instant, Outcome) {
        let every = self.spec.write_every;
        if let Some(writes) = self.writes.filter(|_| unit_id % every == every - 1) {
            let ops = self.spec.write_ops;
            let keys = &writes[self.next_write * ops..(self.next_write + 1) * ops];
            self.next_write = (self.next_write + 1) % (writes.len() / ops);
            let mut failed = 0;
            let start = Instant::now();
            for &key in keys {
                let value = table_value(key);
                failed += u64::from(self.map.insert_replacing(key, value) != Some(value));
            }
            let end = Instant::now();
            if let Some(spans) = spans {
                let unit = spans.push("table.write_unit", start, end, -1, unit_id);
                spans.push("hash.insert_replacing", start, end, unit, unit_id);
            }
            let outcome = Outcome {
                kind: Kind::Write,
                ops: ops as u64,
                hits: 0,
                failed,
            };
            return (start, end, outcome);
        }
        let index = self.next_read;
        self.next_read = (index + 1) % self.reads.units();
        self.reads.run_unit(self.map, index, unit_id, spans)
    }
}

/// What thread 0 of `table-steady` does, reads and every so often a write
/// unit, until told to stop: the company the `hash` rungs keep, so that
/// they run beside what a reading thread of the workload runs beside.
pub fn keep_company(
    map: &Map,
    spec: &TableSpec,
    streams: &TableStreams,
    going: &AtomicBool,
    stop: &AtomicBool,
) {
    let mut thread = Reader::new(map, spec, &streams.reads[0], Some(&streams.writes));
    let mut unit_id = 0;
    while !stop.load(Ordering::Acquire) {
        thread.step(unit_id, None);
        unit_id += 1;
        going.store(true, Ordering::Release);
    }
}

struct Resizer<'a> {
    map: &'a Map,
}

impl Driver for Resizer<'_> {
    /// One write unit is one full resize round trip: halve the table, then
    /// double it back, and straight on to the next. (Timing the two halves
    /// as separate units would put any percentile between two populations.)
    fn step(&mut self, unit_id: u64, spans: Option<&mut SpanLog>) -> (Instant, Instant, Outcome) {
        let buckets = self.map.num_buckets();
        let start = Instant::now();
        self.map.shrink();
        let halved = Instant::now();
        self.map.expand();
        let end = Instant::now();
        if let Some(spans) = spans {
            let unit = spans.push("table.write_unit", start, end, -1, unit_id);
            spans.push("hash.shrink", start, halved, unit, unit_id);
            spans.push("hash.expand", halved, end, unit, unit_id);
        }
        let outcome = Outcome {
            kind: Kind::Write,
            ops: 1,
            hits: 0,
            failed: u64::from(self.map.num_buckets() != buckets),
        };
        (start, end, outcome)
    }
}

/// Streams of one run, generated once from the seed.
pub struct TableStreams {
    reads: Vec<ReadStream>,
    writes: Vec<u64>,
}

impl TableStreams {
    pub fn new(spec: &TableSpec, seed: u64) -> TableStreams {
        // As many keys as the table has entries (at least 64 units): far more
        // than any cache holds on `table-steady`, so cycling does not warm it.
        let units = (spec.entries / spec.read_unit).max(64);
        let readers = if spec.shape == TableShape::Steady {
            2
        } else {
            1
        };
        let reads = (0..readers)
            .map(|t| {
                let rng = &mut Rng::new(seed, t);
                ReadStream::new(spec.dist, spec.entries, units, spec.read_unit, rng)
            })
            .collect();
        let stored = KeyDist {
            zipf: spec.dist.zipf,
            absent_permille: 0,
        };
        // One update per entry before the stream repeats: a window never
        // comes back to a node it has just replaced, which would still be in
        // the cache when every other node of the table is not.
        let writes = id_stream(
            stored,
            spec.entries,
            spec.entries.max(64 * spec.write_ops),
            &mut Rng::new(seed, 16),
        )
        .into_iter()
        .map(table_key)
        .collect();
        TableStreams { reads, writes }
    }
}

pub struct TableRun {
    /// Build, prefill and counted warm-up.
    pub setup: Duration,
    /// The warm-up units of the thread whose count ends the warm-up.
    pub warm: UnitLog,
    pub windows: Vec<Window>,
    /// Violations found after the last window (`len`, `check_invariants`).
    pub failed_after: u64,
}

/// One set-up, then one window per phase. With no phases this is a set-up
/// alone, which the caller times.
pub fn run(spec: &TableSpec, streams: &TableStreams, phases: &[Phase]) -> TableRun {
    let begin = Instant::now();
    let map = build(spec.entries);
    let warmed = AtomicBool::new(false);
    let sync = PhaseSync::new(2, std::process::id());
    let per_thread = std::thread::scope(|scope| {
        let second = scope.spawn(|| {
            crate::measure::pin(1);
            match spec.shape {
                TableShape::Steady => run_thread(
                    &mut Reader::new(&map, spec, &streams.reads[1], None),
                    Warm::Units(spec.warm_units, None),
                    &sync,
                    phases,
                ),
                TableShape::Resize => run_thread(
                    &mut Resizer { map: &map },
                    Warm::Until(&warmed),
                    &sync,
                    phases,
                ),
            }
        });
        let writes = (spec.shape == TableShape::Steady).then_some(&streams.writes[..]);
        let mut first = Reader::new(&map, spec, &streams.reads[0], writes);
        let mine = run_thread(
            &mut first,
            Warm::Units(spec.warm_units, Some(&warmed)),
            &sync,
            phases,
        );
        (mine, second.join().expect("table thread panicked"))
    });
    let (first, second) = per_thread;
    let setup = sync.first_start().unwrap_or_else(Instant::now) - begin;
    let mut failed_after = 0;
    if map.len() != spec.entries {
        eprintln!(
            "table holds {} entries, expected {}",
            map.len(),
            spec.entries
        );
        failed_after += 1;
    }
    if let Err(violation) = map.check_invariants() {
        eprintln!("check_invariants: {violation}");
        failed_after += 1;
    }
    TableRun {
        setup,
        warm: first.warm,
        windows: sync.windows(vec![first.phases, second.phases]),
        failed_after,
    }
}
