//! Maintenance-thread supervision: a panicking `MaintTarget::maintain` must
//! be contained (the thread keeps serving other units), the panicked unit
//! must be re-queued exactly once, and the panic must be counted.
//!
//! These tests panic on purpose; a quiet hook keeps the expected unwinds
//! out of the test log while still letting *unexpected* panics print.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rp_maint::{MaintTarget, MaintThread};

/// Installs a panic hook that suppresses messages for panics carrying the
/// given marker (the supervisor catches them anyway).
fn quiet_expected_panics(marker: &'static str) {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains(marker))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains(marker))
            })
            .unwrap_or(false);
        if !expected {
            default(info);
        }
    }));
}

/// Unit 0 panics on every `maintain` (attempts are counted); the other
/// units each owe three work items that one turn pays off.
struct PoisonedUnit {
    attempts_on_poisoned: AtomicUsize,
    owed: Vec<AtomicUsize>,
}

impl PoisonedUnit {
    fn new(units: usize) -> Self {
        PoisonedUnit {
            attempts_on_poisoned: AtomicUsize::new(0),
            owed: (0..units).map(|_| AtomicUsize::new(3)).collect(),
        }
    }
}

impl MaintTarget for PoisonedUnit {
    fn units(&self) -> usize {
        self.owed.len()
    }

    fn maintain(&self, unit: usize) -> bool {
        if unit == 0 {
            self.attempts_on_poisoned.fetch_add(1, Ordering::SeqCst);
            panic!("supervision-test: injected maintain panic");
        }
        self.owed[unit].swap(0, Ordering::SeqCst) > 0
    }
}

/// The one unit panics on its next `maintain` whenever `armed` is set, then
/// pays off what it owes like any other — the transient-failure case the
/// one-shot retry exists for.
struct TransientPanic {
    armed: AtomicBool,
    owed: AtomicUsize,
}

impl MaintTarget for TransientPanic {
    fn units(&self) -> usize {
        1
    }

    fn maintain(&self, _unit: usize) -> bool {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("supervision-test: transient maintain panic");
        }
        self.owed.swap(0, Ordering::SeqCst) > 0
    }
}

fn wait_until(mut done: impl FnMut() -> bool) {
    for _ in 0..2000 {
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(done(), "condition not reached within the bounded wait");
}

#[test]
fn panicking_unit_is_contained_requeued_once_and_counted() {
    quiet_expected_panics("supervision-test");
    let target = Arc::new(PoisonedUnit::new(3));
    let handle = MaintThread::spawn(Arc::clone(&target) as Arc<dyn MaintTarget>);

    handle.request(0); // will panic
    handle.request(1); // must still complete despite the panic

    // The poisoned unit is attempted, re-queued once by the supervisor,
    // attempted again, and then dropped: exactly two attempts.
    wait_until(|| target.attempts_on_poisoned.load(Ordering::SeqCst) >= 2);
    wait_until(|| target.owed[1].load(Ordering::SeqCst) == 0);
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        target.attempts_on_poisoned.load(Ordering::SeqCst),
        2,
        "a deterministically-panicking unit gets its initial attempt plus \
         exactly one supervised retry"
    );

    // The thread survived: it still serves fresh requests for other units
    // and honors *new* external requests for the poisoned one (a single
    // fresh attempt; still no supervised re-queue since it never completed
    // a clean turn).
    handle.request(2);
    wait_until(|| target.owed[2].load(Ordering::SeqCst) == 0);
    handle.request(0);
    wait_until(|| target.attempts_on_poisoned.load(Ordering::SeqCst) >= 3);
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(target.attempts_on_poisoned.load(Ordering::SeqCst), 3);

    let stats = handle.stats();
    assert_eq!(
        stats.worker_panics, 3,
        "every contained panic is counted: {stats:?}"
    );
    assert_eq!(stats.turns, 5, "units 0, 1, 0 again, 2, 0: {stats:?}");
    handle.shutdown();
}

#[test]
fn transient_panic_recovers_via_the_single_requeue() {
    quiet_expected_panics("supervision-test");
    let target = Arc::new(TransientPanic {
        armed: AtomicBool::new(true),
        owed: AtomicUsize::new(3),
    });
    let handle = MaintThread::spawn(Arc::clone(&target) as Arc<dyn MaintTarget>);
    handle.request(0);
    wait_until(|| target.owed.load(Ordering::SeqCst) == 0);
    assert_eq!(
        handle.stats().worker_panics,
        1,
        "the one-shot re-queue maintained the unit after its transient panic"
    );

    // The clean turn earned the retry back: a second transient panic is
    // retried like the first.
    target.owed.store(3, Ordering::SeqCst);
    target.armed.store(true, Ordering::SeqCst);
    handle.request(0);
    wait_until(|| target.owed.load(Ordering::SeqCst) == 0);
    assert_eq!(handle.stats().worker_panics, 2);
    handle.shutdown();
}
