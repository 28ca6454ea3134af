//! A panicking housekeeping turn does not stop later turns: a QSBR worker
//! whose postponed resize unwinds mid-step (the real failpoint, on the
//! real `rp` engine behind the real server) counts the panic, keeps
//! serving, and finishes the resize in a later turn.
//!
//! Alone in its test binary: the `rp_fault` plan registry and the `rp-obs`
//! counters it reads are process-global.

use std::sync::Arc;

use rp_kvcache::client::CacheClient;
use rp_kvcache::{EventServer, ReadSide, RpEngine, ServerConfig};

#[test]
fn a_panicking_turn_is_contained_and_a_later_turn_finishes_the_resize() {
    // Quiet for the injected panic only.
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected panic at failpoint"));
        if !injected {
            default(info);
        }
    }));

    // One table of 1024 buckets: it doubles past 2048 items.
    let engine = Arc::new(RpEngine::with_capacity(1 << 20));
    let config = ServerConfig {
        workers: 1,
        read_side: ReadSide::Qsbr,
        ..ServerConfig::default()
    };
    let mut server = EventServer::start(engine.clone(), &config).expect("start");
    let obs = rp_obs::global();
    let panics_before = obs.maint.worker_panics_total.get();

    // The first step of the first resize a turn begins unwinds: the doubled
    // table is published and the zippers are still closed. The SETs stop
    // once that turn is counted, so no later write crosses a bound and only
    // the resize left in flight brings a later turn to it.
    let _armed = rp_fault::ArmGuard::new("hash.resize.step=panic*1", 7);
    let mut client = CacheClient::connect(server.addr()).expect("connect");
    let keys: Vec<String> = (0..8192).map(|i| format!("key-{i}")).collect();
    let mut stored = 0;
    while obs.maint.worker_panics_total.get() == panics_before {
        assert!(stored < keys.len(), "no turn panicked");
        assert!(client.set(&keys[stored], 0, 0, b"v").unwrap());
        stored += 1;
    }
    assert_eq!(rp_fault::injected("hash.resize.step"), 1);
    assert_eq!(obs.maint.worker_panics_total.get() - panics_before, 1);

    // The worker still serves: every SET it acknowledged is there. Each
    // GET is a batch of its own, and its turn ran before the next GET was
    // read: a turn after the panic found the resize it left in flight and
    // finished it.
    for key in &keys[..stored] {
        assert_eq!(
            client.get(key).unwrap().as_deref(),
            Some(&b"v"[..]),
            "{key}"
        );
    }
    assert_eq!(
        obs.resize.begun_total.get(),
        obs.resize.finished_total.get(),
        "a resize is still in flight"
    );
    client.quit().unwrap();
    server.shutdown();
    engine.check_index().unwrap();
}
