//! The traced run's layer ladder, in two halves. A table workload's seeded
//! streams are replayed in-process against `rcu` and `hash`; a server
//! workload's against `shard` and `kvcache`, then against a fresh `kvcached`
//! (`net`, `maint`, `obs`). Every call into a layer's public function is
//! timed from here, outside the layer; a layer's self time is its rung minus
//! the rung below.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

use rp_hash::QsbrReadHandle;
use rp_rcu::{GraceSync, RcuDomain};
use rp_shard::{ShardPolicy, ShardedRpMap};

use crate::gen::{push_set, table_key, table_value, KeyDist, Rng, ABSENT, GET_LEN, SET_LEN};
use crate::harness::Phase;
use crate::kvcache_calls::{decode, Engine};
use crate::measure::{
    p50_us, quantile_ns, rss_bytes, tail_ns, Floor, Metric, SpanLog, Threads, FLOOR, SAMPLE_EVERY,
};
use crate::server::{self, stat, Fatal, ServerSpec, ServerStreams, Traffic};
use crate::table::{self, ReadStream, TableShape, TableSpec, TableStreams, UNIT_OPS};

/// Requests per unit of the `set` rung: a write unit of `server-get`.
const SET_UNIT: usize = 16;
/// Items the full engine of the evicting-`set` rung holds: the capacity
/// `server-evict` runs `kvcached` at.
const EVICT_CAPACITY: usize = 1 << 14;

/// The `rcu` and `hash` rungs, climbed at a table workload's sizes.
pub struct TableHalf {
    pub metrics: Vec<Metric>,
    pub spans: SpanLog,
    pub failed: u64,
    /// What a lookup of a read unit costs as the rungs add up, ns: its
    /// share of a `pin` plus a `get` of the workload's key mix.
    pub read_ns: f64,
}

/// The `shard`, `kvcache`, `net`, `maint` and `obs` rungs, climbed at a
/// server workload's sizes.
pub struct ServerHalf {
    pub metrics: Vec<Metric>,
    pub spans: SpanLog,
    pub failed: u64,
    /// The scrape taken after the `net` rung's window.
    pub stats_json: String,
    /// Server CPU time per `get` of the `get`-only window, ns, and what a
    /// `set` costs the engine beyond a `get`.
    pub read_cpu_ns: f64,
    pub set_extra_ns: f64,
}

struct Rungs {
    metrics: Vec<Metric>,
    spans: SpanLog,
    /// Time one rung measures for.
    slice: Duration,
}

impl Rungs {
    fn new(slice: Duration) -> Rungs {
        Rungs {
            metrics: Vec::new(),
            spans: SpanLog::new(),
            slice,
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Repeats `unit` for one slice (and at least `min` times). The unit
    /// times itself, so it can leave set-up outside. One unit in
    /// [`SAMPLE_EVERY`] leaves a span under the rung's own.
    fn sample(
        &mut self,
        name: &'static str,
        min: usize,
        mut unit: impl FnMut(u64) -> (Instant, Instant),
    ) -> Vec<u32> {
        let begin = Instant::now();
        let deadline = begin + self.slice;
        let rung = self.spans.push(name, begin, begin, -1, 0);
        let mut samples = Vec::new();
        let mut unit_id = 0;
        while samples.len() < min || Instant::now() < deadline {
            let (start, end) = unit(unit_id);
            samples.push((end - start).as_nanos().min(u128::from(u32::MAX)) as u32);
            if unit_id.is_multiple_of(SAMPLE_EVERY) {
                self.spans.push(name, start, end, rung, unit_id);
            }
            unit_id += 1;
        }
        self.spans.close(rung, Instant::now());
        samples
    }
}

/// Undisturbed nanoseconds per operation of units of `ops` operations: the
/// same quantile the end-to-end timings are read at.
fn per_op_ns(samples: &[u32], ops: usize) -> f64 {
    quantile_ns(samples, FLOOR) / ops as f64
}

fn timed<R>(work: impl FnOnce() -> R) -> (Instant, Instant, R) {
    let start = Instant::now();
    let result = work();
    (start, Instant::now(), result)
}

pub fn table_half(
    spec: &TableSpec,
    streams: &TableStreams,
    seed: u64,
    slice: Duration,
) -> TableHalf {
    let mut rungs = Rungs::new(slice);
    let mut failed = 0;

    // --- hash: prefill first, while the heap is fresh, so the growth in
    // resident memory is the table's.
    let entries = spec.entries;
    let rss_before = rss_bytes(std::process::id());
    let (start, end, map) = timed(|| table::build(entries));
    rungs.spans.push("hash.insert", start, end, -1, 0);
    rungs.metric(
        "hash.insert_ns",
        (end - start).as_nanos() as f64 / entries as f64,
        "ns",
    );
    rungs.metric(
        "hash.bytes_per_entry",
        (rss_bytes(std::process::id()) - rss_before) / entries as f64,
        "B",
    );

    // --- rcu: an EBR read-side section, entered and left.
    let pin = rungs.sample("rcu.pin", 16, |_| {
        let (start, end, ()) = timed(|| {
            for _ in 0..UNIT_OPS {
                drop(std::hint::black_box(rp_rcu::pin()));
            }
        });
        (start, end)
    });
    let pin_ns = per_op_ns(&pin, UNIT_OPS);
    rungs.metric("rcu.pin_ns", pin_ns, "ns");

    // --- hash: lookups under a held guard, stored and never-stored keys
    // apart; then overwrites. A rung's unit is a read unit of the workload,
    // so that the 1st percentile of a rung and of the workload are floors
    // of the same kind of thing.
    let read_unit = spec.read_unit;
    let units = (entries / read_unit).max(64);
    let only = |absent_permille| KeyDist {
        absent_permille,
        ..spec.dist
    };
    let seeded = |stream| Rng::new(seed, stream);
    let stored = ReadStream::new(only(0), entries, units, read_unit, &mut seeded(48));
    let never = ReadStream::new(only(1000), entries, 64, read_unit, &mut seeded(49));
    // What the other thread of the workload reads.
    let mixed = ReadStream::new(spec.dist, entries, units, read_unit, &mut seeded(50));
    // On `table-steady` the workload's first thread runs beside these
    // rungs, as it runs beside the second.
    let company = spec.shape == TableShape::Steady;
    let stop = AtomicBool::new(false);
    let reading = AtomicBool::new(!company);
    let (get, get_miss, get_mixed, replace) = std::thread::scope(|scope| {
        if company {
            scope.spawn(|| {
                crate::measure::pin(1);
                table::keep_company(&map, spec, streams, &reading, &stop);
            });
        }
        while !reading.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let mut lookups = |name, stream: &ReadStream, want_hits: Option<u64>| {
            rungs.sample(name, 16, |unit_id| {
                let keys = stream.unit(unit_id as usize % stream.units());
                let guard = map.pin();
                let (start, end, (hits, sum)) = timed(|| table::look_up(&map, keys, &guard));
                std::hint::black_box(sum);
                failed += want_hits.map_or(0, |want| hits.abs_diff(want));
                (start, end)
            })
        };
        let get = lookups("hash.get", &stored, Some(read_unit as u64));
        let get_miss = lookups("hash.get_miss", &never, Some(0));
        // Stored and never-stored keys as the workload mixes them: dearer
        // than either alone, because the branch on the result is no longer
        // predictable.
        let get_mixed = lookups("hash.get_mixed", &mixed, None);
        let replace = rungs.sample("hash.insert_replacing", 4, |unit_id| {
            let keys = stored.unit(unit_id as usize % stored.units());
            let (start, end, ()) = timed(|| {
                for &key in keys {
                    std::hint::black_box(map.insert_replacing(key, table_value(key)));
                }
            });
            (start, end)
        });
        stop.store(true, Ordering::Release);
        (get, get_miss, get_mixed, replace)
    });
    rungs.metric("hash.get_ns", per_op_ns(&get, read_unit), "ns");
    rungs.metric("hash.get_miss_ns", per_op_ns(&get_miss, read_unit), "ns");
    let get_mixed_ns = per_op_ns(&get_mixed, read_unit);
    rungs.metric("hash.get_mixed_ns", get_mixed_ns, "ns");
    rungs.metric(
        "hash.insert_replacing_ns",
        per_op_ns(&replace, read_unit),
        "ns",
    );

    // --- rcu + hash under a live reader: grace periods, then resizes. The
    // reader runs the workload's read units throughout and keeps the
    // durations of those that overlapped a resize.
    const IDLE: u32 = 0;
    const RESIZING: u32 = 1;
    const DONE: u32 = 2;
    let state = AtomicU32::new(IDLE);
    let reading = AtomicBool::new(false);
    let (sync, shrink, expand, during, map_stats, grace_periods) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            crate::measure::pin(1);
            let (mut index, mut during, mut wrong) = (0, Vec::new(), 0);
            loop {
                let before = state.load(Ordering::Acquire);
                if before == DONE {
                    return (during, wrong);
                }
                let (start, end, outcome) = mixed.run_unit(&map, index, 0, None);
                index = (index + 1) % mixed.units();
                wrong += outcome.failed;
                reading.store(true, Ordering::Release);
                if before == RESIZING {
                    during.push((end - start).as_nanos().min(u128::from(u32::MAX)) as u32);
                }
            }
        });
        // A grace period has no one to wait for until the reader is going.
        while !reading.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let sync = rungs.sample("rcu.synchronize", 16, |_| {
            let (start, end, ()) = timed(|| GraceSync::global().synchronize());
            (start, end)
        });
        let stats_before = map.stats();
        let grace_before = RcuDomain::global().stats().grace_periods;
        state.store(RESIZING, Ordering::Release);
        let shrink = rungs.sample("hash.shrink", 2, |_| {
            let (start, end, ()) = timed(|| map.shrink());
            // Back to full size outside the timing of this rung.
            map.expand();
            (start, end)
        });
        let expand = rungs.sample("hash.expand", 2, |_| {
            map.shrink();
            let (start, end, ()) = timed(|| map.expand());
            (start, end)
        });
        let stats_after = map.stats();
        let grace_periods = RcuDomain::global().stats().grace_periods - grace_before;
        state.store(DONE, Ordering::Release);
        let (during, wrong) = reader.join().expect("reader panicked");
        failed += wrong;
        let delta = (
            stats_after.resizes() - stats_before.resizes(),
            stats_after.unzip_rounds - stats_before.unzip_rounds,
            stats_after.expands - stats_before.expands,
        );
        (sync, shrink, expand, during, delta, grace_periods)
    });
    let (resizes, unzip_rounds, expands) = map_stats;
    rungs.metric("rcu.synchronize_us", p50_us(&sync), "us");
    rungs.metric(
        "rcu.grace_periods_per_resize",
        grace_periods as f64 / resizes as f64,
        "count",
    );
    rungs.metric("hash.expand_ms", p50_us(&expand) / 1000.0, "ms");
    rungs.metric("hash.shrink_ms", p50_us(&shrink) / 1000.0, "ms");
    rungs.metric(
        "hash.unzip_rounds_per_resize",
        unzip_rounds as f64 / expands as f64,
        "count",
    );
    rungs.metric("hash.read_unit_p99_us", tail_ns(&during).0 / 1000.0, "us");
    if let Err(violation) = map.check_invariants() {
        eprintln!("check_invariants after the resize rung: {violation}");
        failed += 1;
    }
    drop(map);

    // --- rcu: a QSBR quiescent-state announcement.
    let mut handle = QsbrReadHandle::register();
    let quiescent = rungs.sample("rcu.qsbr_quiescent", 16, |_| {
        let (start, end, ()) = timed(|| {
            for _ in 0..UNIT_OPS {
                handle.quiescent_state();
            }
        });
        (start, end)
    });
    drop(handle);
    rungs.metric(
        "rcu.qsbr_quiescent_ns",
        per_op_ns(&quiescent, UNIT_OPS),
        "ns",
    );

    TableHalf {
        metrics: rungs.metrics,
        spans: rungs.spans,
        failed,
        read_ns: pin_ns / read_unit as f64 + get_mixed_ns,
    }
}

pub fn server_half(
    spec: &ServerSpec,
    streams: &ServerStreams,
    kvcached: &Path,
    seed: u64,
    slice: Duration,
) -> Result<ServerHalf, Fatal> {
    let mut rungs = Rungs::new(slice);
    let mut failed = 0;

    // --- shard: `RpHashMap` lookups through the router, at the size of the
    // server's index.
    let keys = spec.keys;
    let sharded: ShardedRpMap<u64, u64> =
        ShardedRpMap::with_policy(ShardPolicy::for_capacity(16, keys));
    for id in 0..keys as u32 {
        sharded.insert(table_key(id), table_value(table_key(id)));
    }
    let stored_dist = KeyDist {
        absent_permille: 0,
        ..spec.dist
    };
    let shard_keys = ReadStream::new(
        stored_dist,
        keys,
        (keys / UNIT_OPS).max(64),
        UNIT_OPS,
        &mut Rng::new(seed, 51),
    );
    let shard_get = rungs.sample("shard.get", 16, |unit_id| {
        let unit = shard_keys.unit(unit_id as usize % shard_keys.units());
        let guard = sharded.pin();
        let (start, end, hits) = timed(|| {
            unit.iter()
                .filter(|key| sharded.get(*key, &guard).is_some())
                .count() as u64
        });
        failed += hits.abs_diff(UNIT_OPS as u64);
        (start, end)
    });
    rungs.metric("shard.get_ns", per_op_ns(&shard_get, UNIT_OPS), "ns");
    drop(sharded);
    drop(shard_keys);

    // --- kvcache: the server's wire bytes decoded and executed in-process.
    let mut engine = Engine::build(spec.capacity);
    engine.prefill(streams.prefill.iter().copied());
    let depth = spec.depth;
    let get_units = streams.ids.len() / depth;
    let unit_wire = |unit_id: u64| {
        let first = (unit_id as usize % get_units) * depth;
        &streams.get_wire[first * GET_LEN..(first + depth) * GET_LEN]
    };
    let mut requests = Vec::with_capacity(UNIT_OPS);
    let mut sink = Vec::new();
    let decode_samples = rungs.sample("kvcache.decode", 16, |unit_id| {
        let wire = unit_wire(unit_id);
        let (start, end, whole) = timed(|| decode(wire, &mut requests));
        failed += u64::from(!whole || requests.len() != depth);
        (start, end)
    });
    let get_ref = rungs.sample("kvcache.get_ref", 16, |unit_id| {
        decode(unit_wire(unit_id), &mut requests);
        let (start, end, _hits) = timed(|| engine.get_ref(&requests));
        engine.batch_end();
        (start, end)
    });
    let execute = rungs.sample("kvcache.execute_ref", 16, |unit_id| {
        decode(unit_wire(unit_id), &mut requests);
        let (start, end, ()) = timed(|| engine.execute(&requests, &mut sink));
        engine.batch_end();
        (start, end)
    });
    let decode_ns = per_op_ns(&decode_samples, depth);
    let execute_ns = per_op_ns(&execute, depth);
    rungs.metric("kvcache.decode_ns", decode_ns, "ns");
    rungs.metric("kvcache.get_ref_ns", per_op_ns(&get_ref, depth), "ns");
    rungs.metric("kvcache.execute_ref_ns", execute_ns, "ns");
    // Allocations are counted over a longer run of requests.
    let first_many = &streams.get_wire[..UNIT_OPS.min(streams.ids.len()) * GET_LEN];
    decode(first_many, &mut requests);
    rungs.metric(
        "kvcache.get_allocs",
        engine.allocs_per_request(&requests, &mut sink),
        "count",
    );

    // Overwrites of resident keys.
    let resident = &streams.prefill;
    let mut set_wire = Vec::with_capacity(SET_UNIT * SET_LEN);
    let set_unit = |unit_id: u64, set_wire: &mut Vec<u8>| {
        set_wire.clear();
        for i in 0..SET_UNIT {
            push_set(
                set_wire,
                resident[(unit_id as usize * SET_UNIT + i) % resident.len()],
            );
        }
    };
    let items_before = engine.len();
    let set = rungs.sample("kvcache.set", 16, |unit_id| {
        set_unit(unit_id, &mut set_wire);
        let mut requests = Vec::with_capacity(SET_UNIT);
        decode(&set_wire, &mut requests);
        let (start, end, ()) = timed(|| engine.execute(&requests, &mut sink));
        engine.batch_end();
        (start, end)
    });
    let set_ns = per_op_ns(&set, SET_UNIT);
    rungs.metric("kvcache.set_ns", set_ns, "ns");
    // Allocations again over a longer run.
    set_wire.clear();
    for &id in resident.iter().take(256) {
        push_set(&mut set_wire, id);
    }
    let mut set_requests = Vec::with_capacity(256);
    decode(&set_wire, &mut set_requests);
    rungs.metric(
        "kvcache.set_allocs",
        engine.allocs_per_request(&set_requests, &mut sink),
        "count",
    );
    failed += u64::from(engine.len() != items_before);
    drop(set_requests);
    drop(requests);
    drop(engine);

    // A full cache taking keys it does not hold: every `set` evicts.
    let mut small = Engine::build(EVICT_CAPACITY);
    small.prefill(0..EVICT_CAPACITY as u32);
    let evictions_before = small.evictions();
    let mut one_set = Vec::with_capacity(SET_LEN);
    let evicting = rungs.sample("kvcache.set_evict", 8, |unit_id| {
        one_set.clear();
        push_set(&mut one_set, unit_id as u32 | ABSENT);
        let mut requests = Vec::with_capacity(1);
        decode(&one_set, &mut requests);
        let (start, end, ()) = timed(|| small.execute(&requests, &mut sink));
        small.batch_end();
        (start, end)
    });
    rungs.metric("kvcache.set_evict_us", p50_us(&evicting), "us");
    rungs.metric(
        "kvcache.evictions_per_set",
        (small.evictions() - evictions_before) as f64 / evicting.len() as f64,
        "count",
    );
    failed += u64::from(small.len() > EVICT_CAPACITY);
    drop(small);

    // --- net, maint, obs: a fresh kvcached serving `get`s only, at the
    // workload's depth and then at depth 1.
    let window = Phase {
        window: (slice * 3).max(Duration::from_secs(1)),
        traced: true,
    };
    let deep = server::run(kvcached, spec, streams, Traffic::Gets(depth), &[window])?;
    let shallow = server::run(kvcached, spec, streams, Traffic::Gets(1), &[window])?;
    for run in [&deep, &shallow] {
        failed += run.failed_after + run.windows[0].log.failed;
    }
    let one_client = Threads {
        readers: 1,
        writes_on_reader: true,
    };
    // CPU time at the floor, as `cpu_us_per_kop` is end to end.
    let deep_window = &deep.windows[0];
    let reads = deep_window.log.reads;
    let floor = Floor::of(&deep_window.log, one_client);
    let read_cpu_ns = floor.cpu_us_per_kop(deep_window.target_cpu_us, reads);
    let kreq = reads as f64 / 1000.0;
    let delta = |name: &str| -> Result<f64, Fatal> {
        Ok(stat(&deep.stats_json, name)? - stat(&deep.stats_before, name)?)
    };
    let flushes = delta("net_flush_syscalls_total")?;
    rungs.metric(
        "net.cpu_self_ns_per_req",
        read_cpu_ns - decode_ns - execute_ns,
        "ns",
    );
    rungs.metric("net.flush_syscalls_per_kreq", flushes / kreq, "count");
    rungs.metric(
        "net.segments_per_flush",
        delta("net_flush_segments_total")? / flushes,
        "count",
    );
    rungs.metric(
        "net.batch_size_p50",
        stat(&deep.stats_json, "net_batch_size")?,
        "count",
    );
    rungs.metric(
        "net.rtt_self_us",
        Floor::of(&shallow.windows[0].log, one_client).read_us - (decode_ns + execute_ns) / 1000.0,
        "us",
    );
    rungs.metric("net.connect_us", deep.connect.as_secs_f64() * 1e6, "us");
    rungs.metric(
        "maint.slices",
        stat(&deep.stats_json, "maint_slices_total")?,
        "count",
    );
    rungs.metric(
        "maint.slice_ns_p50",
        stat(&deep.stats_json, "maint_slice_ns")?,
        "ns",
    );
    rungs.metric(
        "maint.resizes_finished",
        stat(&deep.stats_json, "resize_finished_total")?,
        "count",
    );
    rungs.metric("obs.stats_scrape_us", deep.scrape.as_secs_f64() * 1e6, "us");
    rungs.metric(
        "benchmark.client_cpu_us_per_kop",
        floor.cpu_us_per_kop(deep_window.own_cpu_us, reads),
        "us/kop",
    );

    let Rungs {
        metrics, mut spans, ..
    } = rungs;
    let stats_json = deep.stats_json.clone();
    for run in [deep, shallow] {
        for window in run.windows {
            spans.append(window.spans);
        }
    }
    Ok(ServerHalf {
        metrics,
        spans,
        failed,
        stats_json,
        read_cpu_ns,
        set_extra_ns: set_ns - execute_ns,
    })
}
