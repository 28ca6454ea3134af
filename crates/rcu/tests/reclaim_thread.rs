//! The global funnel's reclaim thread: retiring never waits, the thread
//! frees what was retired once every reader has moved on, a panicking
//! callback costs only itself, `synchronize_and_reclaim` is a barrier
//! behind whatever pass the thread has in flight, the push that takes the
//! queue past 256 wakes the thread, even one that jumps over 256, and no
//! wake is lost.
//!
//! Every test here drives the one process-wide queue, so they take turns
//! (`SERIAL`) and each starts from an emptied queue.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rp_rcu::{pin, thread_synchronize_count, GraceSync};

static SERIAL: Mutex<()> = Mutex::new(());

/// Takes this file's turn on the global queue, which starts empty.
fn serial() -> parking_lot::MutexGuard<'static, ()> {
    let turn = SERIAL.lock();
    GraceSync::global().synchronize_and_reclaim();
    turn
}

/// Queues `n` callbacks that each bump the returned counter.
fn counting(n: usize) -> Arc<AtomicUsize> {
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..n {
        let ran = Arc::clone(&ran);
        GraceSync::global().defer(move || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    ran
}

/// Waits (bounded, without running a pass itself) until `done` holds.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

/// An EBR reader on a thread of its own, inside its critical section until
/// the returned sender is used or dropped.
fn reader() -> (mpsc::Sender<()>, thread::JoinHandle<()>) {
    let (entered_tx, entered) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let thread = thread::spawn(move || {
        let _guard = pin();
        entered_tx.send(()).unwrap();
        let _ = released.recv();
    });
    entered.recv().unwrap();
    (release, thread)
}

#[test]
fn the_barrier_waits_out_a_pass_blocked_on_a_reader() {
    let _turn = serial();
    let sync = GraceSync::global();
    let (release, reader) = reader();

    // The 256th callback wakes the thread; it takes the batch and waits
    // for the reader. The batch's last callback is slow to run, so a
    // barrier that ran only its own batch would return before it.
    let first = counting(255);
    let slow = Arc::clone(&first);
    GraceSync::global().defer(move || {
        thread::sleep(Duration::from_millis(100));
        slow.fetch_add(1, Ordering::SeqCst);
    });
    wait_until("the reclaim thread takes the batch", || {
        sync.deferred_pending() == 0
    });
    let second = counting(10);

    let returned = Arc::new(AtomicBool::new(false));
    let barrier = {
        let returned = Arc::clone(&returned);
        thread::spawn(move || {
            GraceSync::global().synchronize_and_reclaim();
            returned.store(true, Ordering::SeqCst);
        })
    };
    thread::sleep(Duration::from_millis(50));
    assert!(!returned.load(Ordering::SeqCst), "returned under a reader");
    assert_eq!(first.load(Ordering::SeqCst), 0, "freed under a reader");
    assert_eq!(second.load(Ordering::SeqCst), 0, "freed under a reader");

    release.send(()).unwrap();
    reader.join().unwrap();
    barrier.join().unwrap();
    // Both batches queued before the barrier: the thread's, and its own.
    assert_eq!(first.load(Ordering::SeqCst), 256);
    assert_eq!(second.load(Ordering::SeqCst), 10);
}

#[test]
fn retiring_under_a_held_guard_never_waits_and_frees_nothing_until_it_drops() {
    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    let _turn = serial();
    let drops = Arc::new(AtomicUsize::new(0));
    let waits = thread_synchronize_count();
    let guard = pin();
    for _ in 0..10_000 {
        let retired = Box::new(Counted(Arc::clone(&drops)));
        GraceSync::global().defer(move || drop(retired));
    }
    // The 256th retire woke the thread; its pass, and any pass after it,
    // waits for this thread's guard.
    thread::sleep(Duration::from_millis(100));
    assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under a guard");
    assert_eq!(thread_synchronize_count(), waits, "the writer waited");

    drop(guard);
    wait_until("the reclaim thread frees all 10 000", || {
        drops.load(Ordering::SeqCst) == 10_000
    });
    assert_eq!(thread_synchronize_count(), waits, "the writer waited");
}

#[test]
fn a_panicking_callback_stops_neither_its_batch_nor_the_next() {
    let _turn = serial();
    let panics = || rp_obs::global().rcu.reclaim_panics_total.get();
    let before = panics();
    let ran = counting(100);
    GraceSync::global().defer(|| panic!("a deferred destructor panicked"));
    let rest = counting(155);
    // That was the 256th: the thread runs the batch.
    wait_until("the rest of the batch runs", || {
        ran.load(Ordering::SeqCst) == 100 && rest.load(Ordering::SeqCst) == 155
    });
    assert_eq!(panics(), before + 1);

    let later = counting(256);
    wait_until("a later batch runs", || later.load(Ordering::SeqCst) == 256);
    assert_eq!(panics(), before + 1);
}

/// A dropper that frees nothing, so any address will do.
unsafe fn keep(_: *mut ()) {}

/// A map queues its retires 64 at a time, so a push can take the queue
/// past 256 without landing on it; that push must wake the thread too.
#[test]
fn a_slice_push_that_jumps_over_256_wakes_the_thread() {
    let _turn = serial();
    // Past the thread's 50 ms recheck of the queue `serial` emptied: it now
    // sleeps until a push wakes it.
    thread::sleep(Duration::from_millis(120));
    let ran = counting(250);
    let batch = [std::ptr::null_mut::<()>(); 64];
    // SAFETY: `keep` is sound for any pointer and frees nothing.
    unsafe { GraceSync::global().defer_drop(&batch, keep) };
    // 250 → 314: the push crossed 256.
    wait_until("the woken thread runs the batch", || {
        ran.load(Ordering::SeqCst) == 250
    });
}

/// Queues a callback and wakes the thread; the receiver gets how long after
/// the wake the callback ran.
fn queue_and_wake() -> mpsc::Receiver<Duration> {
    let (ran, took) = mpsc::channel();
    let woken = Instant::now();
    GraceSync::global().defer(move || ran.send(woken.elapsed()).unwrap());
    GraceSync::global().wake_reclaimer();
    took
}

/// A wake that did not find the thread waiting must still lead to a pass
/// at once, not to the one the thread falls back on 50 ms after it last
/// saw the queue.
fn assert_prompt(took: mpsc::Receiver<Duration>) {
    let took = took.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(
        took < Duration::from_millis(25),
        "the pass ran {took:?} after its wake"
    );
}

/// The first wake starts the thread, before it has looked at the queue.
/// Only a process of its own has its first wake to give, so the test
/// re-runs this binary on itself alone.
#[test]
fn the_first_wake_leads_to_a_pass() {
    const CHILD: &str = "RECLAIM_THREAD_FIRST_WAKE";
    if std::env::var_os(CHILD).is_some() {
        return assert_prompt(queue_and_wake());
    }
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "the_first_wake_leads_to_a_pass"])
        .env(CHILD, "1")
        .status()
        .unwrap();
    assert!(child.success(), "the first wake was lost");
}

/// A wake from a callback of a running pass leads to the next pass at once.
#[test]
fn a_wake_during_a_pass_leads_to_the_next_pass() {
    let _turn = serial();
    assert_prompt(queue_and_wake());
    let (inner, took) = mpsc::channel();
    GraceSync::global().defer(move || inner.send(queue_and_wake()).unwrap());
    GraceSync::global().wake_reclaimer();
    assert_prompt(took.recv_timeout(Duration::from_secs(10)).unwrap());
}
