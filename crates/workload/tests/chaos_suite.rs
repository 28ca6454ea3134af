//! The chaos suite: the torture storm and a live cache server, both run
//! with `rp-fault` failpoints **armed**.
//!
//! Two properties are on trial:
//!
//! 1. **Timing chaos does not break the maps.** Seeded delays injected at
//!    the two most timing-sensitive boundaries in the stack — grace-period
//!    synchronization (`rcu.grace`) and resize step transitions
//!    (`hash.resize.step`) — widen every race window the storm exercises.
//!    All three engines must still pass the full torture contract (no
//!    freed or torn value, no stable key absent mid-resize, invariants
//!    intact) under a stall watchdog that must flag **nothing**: the
//!    delays are small, so any stall report is a false positive.
//!
//! 2. **Fault bursts do not take the server down or lose updates.** An
//!    event-loop cache server is driven by reconnecting clients while
//!    scripted connection-handler panics, read errors and short writes
//!    fire. Every update the retrying client saw acknowledged must be
//!    readable afterwards, the process must still serve fresh
//!    connections, and GET throughput must be back to 90 % of its
//!    pre-burst level within ten seconds of the faults disarming.
//!
//! The failpoint registry is process-global, so every test in this binary
//! serialises on a local mutex and the panic hook is quieted for the
//! injected panics (real panics still print).

use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use rp_fault::ArmGuard;
use rp_hash::RpHashMap;
use rp_kvcache::{
    CacheClient, CacheEngine, EventServer, Item, RetryClient, RetryPolicy, RpEngine, ServerConfig,
};
use rp_shard::ShardedRpMap;
use rp_splitorder::SplitOrderMap;
use rp_workload::drive_connections_reconnecting;
use rp_workload::torture::{torture_storm, Payload, TortureConfig};

/// Serialises the armed tests — the failpoint registry is process-global.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Quiet the default panic hook for the panics this suite injects on
/// purpose; anything else still reaches the original hook.
fn quiet_expected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let original = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected panic at failpoint"));
            if !expected {
                original(info);
            }
        }));
    });
}

/// The suite's fault seed: `RP_FAULT_SEED` when set (CI pins it), a fixed
/// default otherwise — either way the run is reproducible.
fn chaos_seed() -> u64 {
    std::env::var("RP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Runs `storm` and asserts zero stall reports: the injected delays are
/// two orders of magnitude below the threshold, so a report would be a
/// detector false positive (and, with `RP_RCU_STALL_PANIC=1`, an abort).
fn assert_no_stall_false_positives(storm: impl FnOnce()) {
    let stalls_before = rp_obs::global().rcu.grace_stalls_total.get();
    storm();
    assert_eq!(
        rp_obs::global().rcu.grace_stalls_total.get(),
        stalls_before,
        "millisecond fault delays must not trip the stall detector"
    );
}

/// Delays at the grace-period and resize-step boundaries, both armed for
/// the whole storm. Probabilities are low enough to keep throughput (the
/// storm asserts it observed resizes and generations) but high enough to
/// fire constantly at storm rates.
const STORM_PLAN: &str = "rcu.grace=delay:1ms@0.2;hash.resize.step=delay:1ms@0.1";

#[test]
fn every_engine_survives_the_storm_with_delay_faults_armed() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _arm = ArmGuard::new(STORM_PLAN, chaos_seed());
    let config = TortureConfig::default();

    assert_no_stall_false_positives(|| {
        let map: RpHashMap<u64, Payload> = RpHashMap::with_buckets(64);
        let outcome = torture_storm(&map, &config);
        assert!(outcome.resize_transitions >= 1);
    });
    assert_no_stall_false_positives(|| {
        let map: ShardedRpMap<u64, Payload> = ShardedRpMap::with_shards(4);
        let outcome = torture_storm(&map, &config);
        assert!(outcome.resize_transitions >= 1);
    });
    assert_no_stall_false_positives(|| {
        let map: SplitOrderMap<u64, Payload> = SplitOrderMap::with_buckets(64);
        let outcome = torture_storm(&map, &config);
        assert!(outcome.resize_transitions >= 1);
    });

    assert!(
        rp_fault::injected("rcu.grace") > 0,
        "the storm must actually have hit the grace-period failpoint"
    );
}

/// The server-facing burst: handler panics, peer resets and short writes.
/// Finite counts so the burst ends while the test is still driving
/// traffic — recovery is observed in the same run.
const BURST_PLAN: &str = "net.on_data=panic*2;net.read=econnreset*3;net.writev=short:7*32";

/// Fraction of pre-burst GET throughput the server must regain after the
/// faults disarm.
const RECOVERY_FLOOR: f64 = 0.90;

/// Wall-clock budget for regaining [`RECOVERY_FLOOR`].
const RECOVERY_DEADLINE: Duration = Duration::from_secs(10);

#[test]
fn cache_server_survives_a_fault_burst_without_losing_updates() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    quiet_expected_panics();

    let engine = std::sync::Arc::new(RpEngine::with_capacity(4096));
    // The keys exist before the burst rewrites them, so the read windows
    // before, during and after it all measure hits of the same size.
    for i in 0..64 {
        engine.set(&format!("chaos-{i}"), Item::new(0, vec![0x42_u8; 64]));
    }
    let mut server = EventServer::start(engine, &ServerConfig::event_loop(2))
        .expect("event server starts on an ephemeral port");
    let addr = server.addr();
    let obs = rp_obs::global();
    let panics_before = obs.net.conn_panics_total.get();
    let value = vec![0xAB_u8; 64];

    // One window of closed-loop GETs through the reconnecting driver; the
    // same window is run before, during and after the burst. Eight
    // connections on four threads keep a small host oversubscribed in every
    // window: with two threads on two CPUs the rate is bimodal (thread
    // placement decides between 45k and 130k/s) and the floor measures that.
    let read_window = move || {
        drive_connections_reconnecting(
            8,
            4,
            Duration::from_millis(400),
            |_idx| CacheClient::connect(addr),
            |_thread| {
                move |conn: &mut CacheClient, ordinal: u64| {
                    conn.get(&format!("chaos-{}", ordinal % 64)).map(|_| 1)
                }
            },
            64,
        )
        .expect("at least the initial connects succeed")
    };
    // The baseline: one warm-up window (connection setup, cold buffers),
    // then the mean of two.
    read_window();
    let pre_burst = (read_window().ops_per_sec() + read_window().ops_per_sec()) / 2.0;

    // Writes ride the retrying client: the fault plan may kill any given
    // connection mid-operation, but an acknowledged set must survive.
    let retry = RetryPolicy {
        base_backoff: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    let mut writer = RetryClient::new(addr, retry);

    let stored: Vec<u64> = {
        let _arm = ArmGuard::new(BURST_PLAN, chaos_seed());

        // Concurrent read pressure through the reconnecting driver gives
        // the read/writev/panic injections connections to land on.
        let reads = std::thread::spawn(read_window);

        let mut stored = Vec::new();
        for i in 0..64_u64 {
            if let Ok(true) = writer.set(&format!("chaos-{i}"), 0, 0, &value) {
                stored.push(i);
            }
        }
        let read_result = reads.join().expect("driver thread exits");
        assert!(read_result.total_ops > 0, "the read side made progress");
        stored
    };

    // Recovery, measured: with the faults disarmed, a read window regains
    // the floor before the deadline.
    let disarmed = Instant::now();
    loop {
        let recovered = read_window().ops_per_sec();
        if recovered >= pre_burst * RECOVERY_FLOOR {
            eprintln!(
                "pre-burst {pre_burst:.0}/s, {recovered:.0}/s {:?} after the faults disarmed",
                disarmed.elapsed()
            );
            break;
        }
        assert!(
            disarmed.elapsed() < RECOVERY_DEADLINE,
            "throughput stuck at {recovered:.0}/s, below {:.0}% of the {pre_burst:.0}/s \
             baseline {RECOVERY_DEADLINE:?} after the faults disarmed",
            RECOVERY_FLOOR * 100.0,
        );
    }

    assert!(
        !stored.is_empty(),
        "the retrying writer must land updates through the burst"
    );
    assert!(
        rp_fault::injected("net.on_data") >= 1,
        "the burst must actually have injected handler panics"
    );
    assert!(
        obs.net.conn_panics_total.get() > panics_before,
        "each injected handler panic is counted"
    );

    // Recovery: a *fresh* connection (no retries, faults disarmed) reads
    // back every acknowledged update with the right bytes.
    let mut check = CacheClient::connect(addr).expect("server still accepts after the burst");
    for i in &stored {
        let got = check
            .get(&format!("chaos-{i}"))
            .expect("post-burst reads succeed");
        assert_eq!(
            got.as_deref(),
            Some(&value[..]),
            "acknowledged update chaos-{i} lost in the fault burst"
        );
    }
    server.shutdown();
}
