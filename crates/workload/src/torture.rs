//! A reusable rcutorture-style stress harness for the workspace's
//! concurrent maps.
//!
//! Modeled on the kernel's rcutorture: a population of readers in steady
//! read-side activity, writers continuously replacing tagged values, and
//! the structure resizing under everyone the whole time. The harness is
//! generic over `rp_baselines`' adapter: a [`Table`] whose writers drive
//! it through their own handles, that [`Resizable`] resizes and [`Checked`]
//! checks, and whose borrowed read path ([`Get`]) the readers hold
//! references through — so the exact same storm runs against the
//! relativistic table, the sharded table, and the split-ordered list. The
//! assertions are the RCU contract itself:
//!
//! * **No freed or torn value is ever observed** — every [`Payload`]
//!   carries a checksum over its key and generation; a use-after-free or
//!   torn read fails the checksum (or crashes, which the test also counts
//!   as a failure).
//! * **No key is ever absent mid-move** — every *stable* key is inserted
//!   once before the storm and only ever replaced, so a reader must find
//!   it in every lookup, at some generation (old or new), no matter how
//!   many resize splices are in flight.
//! * **The storm is not vacuous** — the resizer must observe the bucket
//!   count actually change at least once, or the run tested nothing.
//!
//! Duration is controlled by `RP_TORTURE_SECS` (default 2 — fast enough
//! for tier-1; CI runs a longer mode explicitly).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rp_baselines::{Checked, Get, Resizable, Table};
use rp_hash::{QsbrReadHandle, ReadProtect, ReadSide};

const MAGIC: u64 = 0x9E37_79B9_7F4A_7C15;

/// A checksummed value: any torn, stale-beyond-reclamation, or freed read
/// trips [`Payload::verify`].
#[derive(Clone, Debug)]
pub struct Payload {
    /// The key this payload was stored under.
    pub key: u64,
    /// The generation (write sequence number) that produced it.
    pub gen: u64,
    check: u64,
}

impl Payload {
    /// Builds a payload for `key` at generation `gen`.
    pub fn new(key: u64, gen: u64) -> Payload {
        Payload {
            key,
            gen,
            check: key ^ gen.rotate_left(17) ^ MAGIC,
        }
    }

    /// Panics if the payload is not a valid payload for `expected_key`.
    pub fn verify(&self, expected_key: u64) {
        assert_eq!(
            self.key, expected_key,
            "reader observed a payload for the wrong key (chain corruption)"
        );
        assert_eq!(
            self.check,
            self.key ^ self.gen.rotate_left(17) ^ MAGIC,
            "reader observed a torn or freed payload (key {}, gen {})",
            self.key,
            self.gen
        );
    }
}

/// Storm duration: `RP_TORTURE_SECS` seconds (default 2, floor 0.1).
pub fn torture_duration() -> Duration {
    let secs: f64 = std::env::var("RP_TORTURE_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    Duration::from_secs_f64(secs.max(0.1))
}

/// Storm shape. [`TortureConfig::default`] matches the original
/// rcutorture-style test: 512 stable keys, 3 QSBR readers plus one EBR
/// reader, 2 writers, 2048 volatile keys per writer, duration from
/// `RP_TORTURE_SECS`.
pub struct TortureConfig {
    /// Keys inserted before the storm and only ever replaced — readers
    /// must find every one of them on every lookup.
    pub stable_keys: u64,
    /// Barrier-free readers announcing quiescent states between batches.
    pub qsbr_readers: usize,
    /// Writer threads replacing stable keys and churning volatile blocks.
    pub writers: usize,
    /// Volatile keys each writer inserts and removes per cycle — sized to
    /// push auto-resize thresholds in both directions.
    pub volatile_per_writer: u64,
    /// Wall-clock storm length.
    pub duration: Duration,
}

impl Default for TortureConfig {
    fn default() -> TortureConfig {
        TortureConfig {
            stable_keys: 512,
            qsbr_readers: 3,
            writers: 2,
            volatile_per_writer: 2048,
            duration: torture_duration(),
        }
    }
}

/// What the storm measured (the correctness assertions have already run —
/// a completed return means the map passed).
pub struct TortureOutcome {
    /// Times the resizer thread observed the bucket count change.
    pub resize_transitions: u64,
    /// Highest write generation issued.
    pub generations_issued: u64,
}

/// A simple xorshift so reader key choice is cheap and deterministic per
/// seed.
fn next_rand(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Walks the hint path for `key` at every depth, as a server worker does
/// ahead of a pipelined batch. A hint races the same splices, removals and
/// reclamation a lookup does and holds the same witness, so whatever it
/// returns must be a live, untorn payload — of some key with `key`'s hash.
fn warm<M: Get<u64, Payload>, P: ReadProtect>(map: &M, key: u64, protect: &P) {
    for depth in 0..=4 {
        if let Some(payload) = map.hint(&key, depth, protect) {
            payload.verify(payload.key);
        }
    }
}

/// Runs the full rcutorture-style storm against `map` and panics on any
/// contract violation: torn/freed reads, stable keys absent mid-resize,
/// post-storm invariant failures, or a vacuous run (no resize transition
/// ever observed).
pub fn torture_storm<M>(map: &M, config: &TortureConfig) -> TortureOutcome
where
    M: Table<u64, Payload> + Get<u64, Payload> + Resizable + Checked,
{
    let gen_counter = AtomicU64::new(1);
    let mut loader = map.handle(ReadSide::Ebr).expect("every table serves EBR");
    for key in 0..config.stable_keys {
        loader.insert(key, Payload::new(key, 0));
    }
    drop(loader);

    let stop = AtomicBool::new(false);
    let transitions = AtomicU64::new(0);
    let deadline = Instant::now() + config.duration;
    let stable_keys = config.stable_keys;

    std::thread::scope(|s| {
        // QSBR readers: steady barrier-free lookups, quiescent once per
        // "batch", periodically offline (a parked worker), periodically
        // holding several references across lookups (a pipelined batch).
        for seed in 0..config.qsbr_readers as u64 {
            let (stop, map) = (&stop, map);
            s.spawn(move || {
                let mut handle = QsbrReadHandle::register();
                let mut rng = 0xDEAD_BEEF ^ (seed + 1);
                let mut ops = 0_u64;
                while !stop.load(Ordering::Relaxed) {
                    if ops % 32 == 31 {
                        // Hold a window of references open across several
                        // lookups before verifying them all — the borrows
                        // keep `handle` pinned (no quiescent state can be
                        // announced), so all eight must stay valid.
                        let keys: Vec<u64> =
                            (0..8).map(|_| next_rand(&mut rng) % stable_keys).collect();
                        let held: Vec<(u64, &Payload)> = keys
                            .iter()
                            .map(|&k| {
                                (k, map.get(&k, &handle).expect("stable key absent mid-move"))
                            })
                            .collect();
                        for (k, payload) in held {
                            payload.verify(k);
                        }
                    } else {
                        let k = next_rand(&mut rng) % stable_keys;
                        if ops.is_multiple_of(8) {
                            warm(map, k, &handle);
                        }
                        map.get(&k, &handle)
                            .expect("stable key absent mid-move")
                            .verify(k);
                    }
                    ops += 1;
                    if ops.is_multiple_of(128) {
                        handle.quiescent_state();
                    }
                    if ops.is_multiple_of(8192) {
                        // A parked worker: offline while "blocked".
                        handle.offline_scope(std::thread::yield_now);
                    }
                }
            });
        }

        // One EBR reader alongside: grace periods must cover both flavors
        // at once.
        {
            let (stop, map) = (&stop, map);
            s.spawn(move || {
                let mut rng = 0xFEED_F00D_u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = next_rand(&mut rng) % stable_keys;
                    let guard = rp_rcu::pin();
                    if k.is_multiple_of(8) {
                        warm(map, k, &guard);
                    }
                    map.get(&k, &guard)
                        .expect("stable key absent mid-move (EBR)")
                        .verify(k);
                }
            });
        }

        // Writers: continuously replace stable keys at fresh generations
        // and churn a volatile block up (crossing expand thresholds) and
        // back down (crossing shrink thresholds), so auto-resizes cycle
        // for the whole run.
        for w in 0..config.writers as u64 {
            let (stop, map, gen_counter) = (&stop, map, &gen_counter);
            let writers = config.writers as u64;
            let volatile_per_writer = config.volatile_per_writer;
            s.spawn(move || {
                let mut writer = map.handle(ReadSide::Ebr).expect("every table serves EBR");
                let volatile_base = (1 << 32) + w * volatile_per_writer;
                while !stop.load(Ordering::Relaxed) {
                    for key in (w..stable_keys).step_by(writers as usize) {
                        let gen = gen_counter.fetch_add(1, Ordering::Relaxed);
                        writer.insert(key, Payload::new(key, gen));
                    }
                    for i in 0..volatile_per_writer {
                        writer.insert(volatile_base + i, Payload::new(volatile_base + i, 0));
                    }
                    for i in 0..volatile_per_writer {
                        writer.remove(&(volatile_base + i));
                    }
                }
            });
        }

        // An explicit resize cycler races the readers (and any background
        // maintenance resizes), alternating a large and a small target so
        // transitions keep happening in both directions (the sharded map
        // resizes its shards one at a time). It also counts observed
        // bucket-count transitions so a vacuous storm fails loudly.
        {
            let (stop, map, transitions) = (&stop, map, &transitions);
            s.spawn(move || {
                let mut round = 0_u64;
                let mut last = map.num_buckets();
                while !stop.load(Ordering::Relaxed) {
                    map.resize_to(if round.is_multiple_of(2) { 512 } else { 64 });
                    let now = map.num_buckets();
                    if now != last {
                        transitions.fetch_add(1, Ordering::Relaxed);
                        last = now;
                    }
                    round += 1;
                }
            });
        }

        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::SeqCst);
    });

    // Quiesced: every stable key still present at some valid generation.
    let ceiling = gen_counter.load(Ordering::SeqCst);
    let mut handle = QsbrReadHandle::register();
    for key in 0..config.stable_keys {
        let payload = map
            .get(&key, &handle)
            .expect("stable key lost after the storm");
        payload.verify(key);
        assert!(
            payload.gen < ceiling,
            "generation {} was never issued (ceiling {ceiling})",
            payload.gen
        );
    }
    handle.quiescent_state();
    drop(handle);

    let resize_transitions = transitions.load(Ordering::SeqCst);
    assert!(
        resize_transitions >= 1,
        "the storm never completed a resize — the torture tested nothing"
    );
    map.check_invariants().unwrap();
    map.flush_retired();

    TortureOutcome {
        resize_transitions,
        generations_issued: ceiling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_hash::RpHashMap;

    #[test]
    fn payload_checksum_catches_corruption() {
        let good = Payload::new(3, 9);
        good.verify(3);
        let torn = Payload {
            gen: 10,
            ..good.clone()
        };
        assert!(std::panic::catch_unwind(|| torn.verify(3)).is_err());
        assert!(std::panic::catch_unwind(|| good.verify(4)).is_err());
    }

    #[test]
    fn a_tiny_storm_passes_on_the_plain_map() {
        let map: RpHashMap<u64, Payload> = RpHashMap::with_buckets(64);
        let config = TortureConfig {
            stable_keys: 64,
            qsbr_readers: 1,
            writers: 1,
            volatile_per_writer: 256,
            duration: Duration::from_millis(200),
        };
        let outcome = torture_storm(&map, &config);
        assert!(outcome.resize_transitions >= 1);
        assert!(outcome.generations_issued > 1);
    }
}
