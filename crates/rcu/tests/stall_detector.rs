//! Induced grace-period stalls, end to end: a deliberately uncooperative
//! reader of each flavor must be detected within 2× the configured
//! threshold, land in the trace ring as `grace_stall` and be counted in
//! `rcu_grace_stalls_total`; with panic-on-stall configured the detector
//! converts the hang into a failure whose report names the reader's thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rp_rcu::qsbr::QsbrHandle;
use rp_rcu::stall::{spawn_watchdog, StallConfig, StallDetector};
use rp_rcu::{GraceSync, RcuDomain};

/// These tests share the global domain, detector, and telemetry; run the
/// scenarios one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn stall_trace_count() -> usize {
    let mut out = Vec::new();
    rp_obs::global().render_trace_recent(None, &mut out);
    String::from_utf8(out)
        .unwrap()
        .matches(" grace_stall ")
        .count()
}

/// Runs one induced-stall scenario: a reader on a thread named `thread`
/// refuses to cooperate (`misbehave` holds it up until the release flag is
/// set); a waiter then enters `GraceSync::synchronize`, and a watchdog with
/// a 400 ms threshold and `panic_on_stall` must flag the stall within 2×
/// the threshold, its panic report naming `thread`.
fn induced_stall(thread: &str, misbehave: impl FnOnce(&AtomicBool, &AtomicBool) + Send + 'static) {
    const THRESHOLD: Duration = Duration::from_millis(400);
    let obs = rp_obs::global();
    let stalls_before = obs.rcu.grace_stalls_total.get();
    let traces_before = stall_trace_count();

    let watchdog = spawn_watchdog(StallConfig {
        threshold: THRESHOLD,
        panic_on_stall: true,
    });

    let ready = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let reader = {
        let (ready, release) = (Arc::clone(&ready), Arc::clone(&release));
        thread::Builder::new()
            .name(thread.into())
            .spawn(move || misbehave(&ready, &release))
            .unwrap()
    };
    while !ready.load(Ordering::SeqCst) {
        thread::yield_now();
    }

    let start = Instant::now();
    let waiter = thread::spawn(|| GraceSync::global().synchronize());

    // The stall must be flagged within 2x the configured threshold.
    let deadline = start + 2 * THRESHOLD;
    while obs.rcu.grace_stalls_total.get() == stalls_before {
        assert!(
            Instant::now() < deadline,
            "stall not detected within 2x threshold ({THRESHOLD:?})"
        );
        thread::sleep(Duration::from_millis(5));
    }
    let detected_in = start.elapsed();
    assert!(
        detected_in <= 2 * THRESHOLD,
        "detection took {detected_in:?}, over 2x the {THRESHOLD:?} threshold"
    );

    // Join the watchdog while the reader still blocks: its report is built
    // from the readers blocking right now.
    let err = watchdog.stop().expect_err("panic_on_stall must panic");
    let report = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        report.contains("grace-period stall") && report.contains(&format!("({thread})")),
        "the report must name the blocking thread {thread:?}: {report:?}"
    );
    assert!(
        stall_trace_count() > traces_before,
        "no grace_stall trace event recorded"
    );

    release.store(true, Ordering::SeqCst);
    reader.join().unwrap();
    waiter.join().unwrap();
}

#[test]
fn parked_online_qsbr_reader_trips_a_stall_that_names_it() {
    let _serial = SERIAL.lock();
    induced_stall("parked-qsbr-reader", |ready, release| {
        // Online, never announces quiescence: the grace period cannot end
        // until we are released.
        let h = QsbrHandle::new(RcuDomain::global());
        ready.store(true, Ordering::SeqCst);
        while !release.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(5));
        }
        h.quiescent_state();
    });
}

#[test]
fn held_ebr_guard_trips_a_stall_that_names_it() {
    let _serial = SERIAL.lock();
    induced_stall("held-ebr-guard", |ready, release| {
        // A read-side critical section held across the bump: the grace
        // period waits on us.
        let guard = rp_rcu::pin();
        ready.store(true, Ordering::SeqCst);
        while !release.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(5));
        }
        drop(guard);
    });
}

#[test]
fn panic_on_stall_converts_the_hang_into_a_named_failure() {
    // Serialized too: flagging bumps the global counter and trace ring,
    // which the induced-stall scenarios read.
    let _serial = SERIAL.lock();
    // Isolated detector: the panic must not poison the shared slots.
    let detector = Arc::new(StallDetector::new());
    let stamp = detector.stamp_begin().expect("a slot");
    thread::sleep(Duration::from_millis(30));
    let checker = {
        let detector = Arc::clone(&detector);
        thread::spawn(move || {
            detector.check_now(&StallConfig {
                threshold: Duration::from_millis(10),
                panic_on_stall: true,
            })
        })
    };
    let err = checker.join().expect_err("check_now must panic");
    let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        message.contains("grace-period stall") && message.contains("blocking reader(s)"),
        "panic message must name the stall and its readers: {message:?}"
    );
    drop(stamp);
}
