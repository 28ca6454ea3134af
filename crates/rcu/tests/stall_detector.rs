//! Induced grace-period stalls, end to end: the scan that waits for a
//! deliberately uncooperative reader of either flavor must report it within
//! 2× the configured threshold, once, as a `grace_stall` trace event and a
//! bump of `rcu_grace_stalls_total`. The report itself goes to stderr, so
//! the cases that read it run a scenario in a child process of this test
//! binary (one `#[ignore]`d test, run by name): with `RP_RCU_STALL_PANIC=1`
//! the child must die by `SIGABRT` after naming the reader's thread, and a
//! stall on a private domain must name that domain's reader only.

use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rp_rcu::qsbr::QsbrHandle;
use rp_rcu::stall::{self, StallConfig};
use rp_rcu::{GraceSync, LocalHandle, RcuDomain};

/// These tests share the global domain, the stall configuration and
/// telemetry; run the in-process scenarios one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const THRESHOLD: Duration = Duration::from_millis(400);
const HELD_EBR_GUARD: &str = "held-ebr-guard";
const PARKED_QSBR_READER: &str = "parked-qsbr-reader";
/// A reader of the global domain, which a private domain's report must not
/// name.
const GLOBAL_READER: &str = "global-domain-reader";
/// `SIGABRT` on Linux.
const SIGABRT: i32 = 6;

fn stall_trace_count() -> usize {
    let mut out = Vec::new();
    rp_obs::global().render_trace_recent(None, &mut out);
    String::from_utf8(out)
        .unwrap()
        .matches(" grace_stall ")
        .count()
}

/// Starts a thread named `name` that reads `domain` and does not cooperate
/// until `release` is set: it holds an EBR guard if `name` is
/// [`HELD_EBR_GUARD`] or [`GLOBAL_READER`], else keeps a QSBR handle online
/// without announcing a quiescent state. Returns once the thread reads.
fn uncooperative_reader(
    name: &'static str,
    domain: &Arc<RcuDomain>,
    release: &Arc<AtomicBool>,
) -> JoinHandle<()> {
    let holds_guard = name == HELD_EBR_GUARD || name == GLOBAL_READER;
    let (domain, release) = (Arc::clone(domain), Arc::clone(release));
    let (tx, rx) = mpsc::channel();
    let reader = thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let ebr = LocalHandle::new(&domain);
            let guard = holds_guard.then(|| ebr.read_lock());
            let qsbr = (!holds_guard).then(|| QsbrHandle::new(&domain));
            tx.send(()).unwrap();
            while !release.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_millis(5));
            }
            drop((guard, qsbr));
        })
        .unwrap();
    rx.recv().unwrap();
    reader
}

/// Waits until `rcu_grace_stalls_total` passes `before`, failing past 2×
/// the threshold since `start`.
fn await_stall_report(before: u64, start: Instant) {
    while rp_obs::global().rcu.grace_stalls_total.get() == before {
        assert!(
            start.elapsed() < 2 * THRESHOLD,
            "stall not reported within 2x the threshold ({THRESHOLD:?})"
        );
        thread::sleep(Duration::from_millis(5));
    }
}

/// A reader named `thread` stalls a grace period of the global domain that
/// `wait` runs; the scan must report it within 2× the threshold, once.
fn induced_stall(thread: &'static str, wait: fn()) {
    let _serial = SERIAL.lock();
    stall::configure(StallConfig {
        threshold: THRESHOLD,
        panic_on_stall: false,
    });
    let stalls_before = rp_obs::global().rcu.grace_stalls_total.get();
    let traces_before = stall_trace_count();
    let release = Arc::new(AtomicBool::new(false));
    let reader = uncooperative_reader(thread, RcuDomain::global(), &release);

    let start = Instant::now();
    let waiter = thread::spawn(wait);
    await_stall_report(stalls_before, start);
    assert!(
        stall_trace_count() > traces_before,
        "no grace_stall trace event recorded"
    );
    thread::sleep(THRESHOLD / 2);
    assert!(
        !waiter.is_finished(),
        "the grace period ended under a reader"
    );
    assert_eq!(
        rp_obs::global().rcu.grace_stalls_total.get(),
        stalls_before + 1,
        "a stalled scan reports once"
    );

    release.store(true, Ordering::SeqCst);
    reader.join().unwrap();
    waiter.join().unwrap();
}

#[test]
fn parked_online_qsbr_reader_trips_a_stall() {
    induced_stall(PARKED_QSBR_READER, || GraceSync::global().synchronize());
}

#[test]
fn held_ebr_guard_trips_a_stall_of_a_direct_domain_wait() {
    induced_stall(HELD_EBR_GUARD, || RcuDomain::global().synchronize());
}

/// Runs the `#[ignore]`d test `name` of this binary alone, in a child
/// process, with a 400 ms threshold and `RP_RCU_STALL_PANIC` set to
/// `panic`.
fn run_child(name: &str, panic: &str) -> Output {
    Command::new(std::env::current_exe().unwrap())
        .args([name, "--exact", "--ignored", "--nocapture"])
        .env(
            "RP_RCU_STALL_THRESHOLD_MS",
            THRESHOLD.as_millis().to_string(),
        )
        .env("RP_RCU_STALL_PANIC", panic)
        .output()
        .unwrap()
}

/// The child's scenario: a reader named `thread` stalls a grace period of
/// `domain`, which a funnel over it waits for; beside a private domain, a
/// [`GLOBAL_READER`] holds a guard on the global one. The child returns
/// once the scan has reported, unless it aborted there.
fn child_stall(thread: &'static str, domain: Arc<RcuDomain>) {
    let _serial = SERIAL.lock();
    let stalls_before = rp_obs::global().rcu.grace_stalls_total.get();
    let release = Arc::new(AtomicBool::new(false));
    let mut threads = vec![uncooperative_reader(thread, &domain, &release)];
    if !Arc::ptr_eq(&domain, RcuDomain::global()) {
        threads.push(uncooperative_reader(
            GLOBAL_READER,
            RcuDomain::global(),
            &release,
        ));
    }
    let start = Instant::now();
    threads.push(thread::spawn(move || GraceSync::new(domain).synchronize()));
    await_stall_report(stalls_before, start);
    release.store(true, Ordering::SeqCst);
    for thread in threads {
        thread.join().unwrap();
    }
}

#[test]
#[ignore = "a child process of panic_on_stall_aborts_with_a_report_naming_the_reader"]
fn child_held_ebr_guard_stalls_the_global_domain() {
    child_stall(HELD_EBR_GUARD, Arc::clone(RcuDomain::global()));
}

#[test]
#[ignore = "a child process of panic_on_stall_aborts_with_a_report_naming_the_reader"]
fn child_parked_qsbr_reader_stalls_the_global_domain() {
    child_stall(PARKED_QSBR_READER, Arc::clone(RcuDomain::global()));
}

#[test]
#[ignore = "a child process of a_private_domain_stall_names_only_that_domain_s_reader"]
fn child_parked_qsbr_reader_stalls_a_private_domain() {
    child_stall(PARKED_QSBR_READER, RcuDomain::new());
}

#[test]
fn panic_on_stall_aborts_with_a_report_naming_the_reader() {
    for (child, thread) in [
        (
            "child_held_ebr_guard_stalls_the_global_domain",
            HELD_EBR_GUARD,
        ),
        (
            "child_parked_qsbr_reader_stalls_the_global_domain",
            PARKED_QSBR_READER,
        ),
    ] {
        let out = run_child(child, "1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.signal(),
            Some(SIGABRT),
            "{child} must abort: {:?}\n{stderr}",
            out.status
        );
        assert!(
            stderr.contains("grace-period stall") && stderr.contains(&format!("({thread})")),
            "the report must name {thread:?}:\n{stderr}"
        );
    }
}

#[test]
fn a_private_domain_stall_names_only_that_domain_s_reader() {
    let child = "child_parked_qsbr_reader_stalls_a_private_domain";
    let out = run_child(child, "0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{child}: {:?}\n{stderr}", out.status);
    let report = stderr
        .lines()
        .find(|line| line.contains("grace-period stall"))
        .unwrap_or_else(|| panic!("no stall report:\n{stderr}"));
    assert!(
        report.contains(&format!("({PARKED_QSBR_READER})")),
        "the report must name the private domain's reader: {report}"
    );
    assert!(
        !report.contains(&format!("({GLOBAL_READER})")),
        "the report names a reader of the global domain: {report}"
    );
}
