//! A resize step that panics inside a SET costs one connection: a QSBR
//! worker whose SET unwinds in the automatic resize step (the real
//! failpoint, on the real `rp` engine behind the real server) sheds that
//! connection, keeps serving, and a SET on another connection finishes the
//! resize left in flight.
//!
//! Alone in its test binary: the `rp_fault` plan registry and the `rp-obs`
//! counters it reads are process-global.

use std::sync::Arc;

use rp_kvcache::client::CacheClient;
use rp_kvcache::{EventServer, ReadSide, RpEngine, ServerConfig};

#[test]
fn a_step_that_panics_in_a_set_sheds_one_connection_and_the_next_set_finishes_the_resize() {
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
    let config = ServerConfig::event_loop(1).with_read_side(ReadSide::Qsbr);
    let mut server = EventServer::start(engine.clone(), &config).expect("start");
    let obs = rp_obs::global();
    let shed_before = obs.net.conn_panics_total.get();

    // The first SET to find the first resize's grace period over unwinds
    // before it finishes that resize: the doubled table is published and
    // its chains are not cut yet. The connection that sent it hears a
    // SERVER_ERROR and is shed; the SETs stop there, short of the next
    // doubling, so only the resize left in flight is due.
    let _armed = rp_fault::ArmGuard::new("hash.resize.step=panic*1", 7);
    let mut first = CacheClient::connect(server.addr()).expect("connect");
    let keys: Vec<String> = (0..8192).map(|i| format!("key-{i}")).collect();
    let mut acknowledged = 0;
    while let Ok(true) = first.set(&keys[acknowledged], 0, 0, b"v") {
        acknowledged += 1;
        assert!(acknowledged < keys.len(), "no SET panicked");
    }
    assert_eq!(rp_fault::injected("hash.resize.step"), 1);
    assert_eq!(obs.net.conn_panics_total.get() - shed_before, 1);
    assert!(obs.resize.begun_total.get() > obs.resize.finished_total.get());

    // The worker still serves, and the next SET finishes the resize.
    let mut second = CacheClient::connect(server.addr()).expect("connect");
    assert!(second.set("after", 0, 0, b"v").unwrap());
    assert_eq!(
        obs.resize.begun_total.get(),
        obs.resize.finished_total.get(),
        "a resize is still in flight"
    );
    for key in &keys[..acknowledged] {
        assert_eq!(
            second.get(key).unwrap().as_deref(),
            Some(&b"v"[..]),
            "{key}"
        );
    }
    second.quit().unwrap();
    server.shutdown();
    engine.check_index().unwrap();
}
