//! The maintenance thread: one work queue, one pending flag per unit, one
//! supervised thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::stats::AtomicMaintStats;
use crate::{MaintStats, MaintTarget};

/// State shared between requesters, the maintenance thread and the handle.
struct MaintShared {
    queue: Mutex<QueueState>,
    wakeup: Condvar,
    /// Per unit: set by the request that queues it, cleared by the thread
    /// just before the unit's turn. A unit is on the queue at most once.
    pending: Box<[AtomicBool]>,
    stats: AtomicMaintStats,
}

struct QueueState {
    items: VecDeque<usize>,
    shutdown: bool,
}

impl MaintShared {
    /// Queues `unit` unless it is already waiting or intake has stopped;
    /// the queue depth if it was queued.
    fn enqueue(&self, unit: usize) -> Option<u64> {
        // Pairs with the acquiring clear in `run`: the write that made the
        // caller ask happens-before the turn that clears this flag, whether
        // this swap set it or found it set (RMWs continue the release
        // sequence of the request that did).
        if self.pending[unit].swap(true, Ordering::AcqRel) {
            return None;
        }
        let depth = {
            let mut q = self.queue.lock();
            if q.shutdown {
                return None;
            }
            q.items.push_back(unit);
            q.items.len() as u64
        };
        rp_obs::global().maint.queue_depth.set(depth);
        self.wakeup.notify_one();
        Some(depth)
    }

    /// The next queued unit (also while shutting down — the queue is
    /// served to its end), waiting for one while the queue is empty; `None`
    /// once it is empty and intake has stopped.
    fn next(&self) -> Option<usize> {
        let mut q = self.queue.lock();
        loop {
            if let Some(unit) = q.items.pop_front() {
                rp_obs::global().maint.queue_depth.set(q.items.len() as u64);
                return Some(unit);
            }
            if q.shutdown {
                return None;
            }
            self.wakeup.wait(&mut q);
        }
    }

    /// One turn: `maintain(unit)`, recorded as a slice if it worked.
    /// `false` if it unwound: the panic is counted, traced against the unit
    /// and contained.
    ///
    /// What `maintain` leaves behind when it unwinds is its own contract:
    /// `rp-hash` panics (by failpoint) only at a resize step boundary, with
    /// no lock held and the table consistent, and the next `maintain`
    /// finishes that resize before anything else.
    fn turn(&self, target: &dyn MaintTarget, unit: usize) -> bool {
        self.stats.turns.fetch_add(1, Ordering::Relaxed);
        let timer = rp_obs::timer();
        let Ok(worked) = catch_unwind(AssertUnwindSafe(|| target.maintain(unit))) else {
            self.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            let obs = rp_obs::global();
            obs.maint.worker_panics_total.inc();
            obs.trace.record(rp_obs::TraceKind::MaintPanic, unit as u64);
            return false;
        };
        if worked {
            // The writer-visible cost the maintainer absorbed in this turn.
            if let Some(ns) = rp_obs::elapsed_ns(timer) {
                let obs = rp_obs::global();
                obs.maint.slice_ns.record(ns);
                obs.maint.slices_total.inc();
                obs.trace.record(rp_obs::TraceKind::MaintSlice, ns);
            }
        }
        true
    }
}

/// Spawns and owns the maintenance thread. This is a namespace type; see
/// [`MaintThread::spawn`].
pub struct MaintThread;

impl MaintThread {
    /// Spawns the maintenance thread for `target` and returns its handle.
    ///
    /// The thread sleeps until a unit is requested via
    /// [`MaintHandle::request`], and exits — every unit at rest — when the
    /// handle shuts down.
    pub fn spawn(target: Arc<dyn MaintTarget>) -> MaintHandle {
        let shared = Arc::new(MaintShared {
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                shutdown: false,
            }),
            wakeup: Condvar::new(),
            pending: (0..target.units())
                .map(|_| AtomicBool::new(false))
                .collect(),
            stats: AtomicMaintStats::default(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rp-maint".to_string())
                .spawn(move || run(&*target, &shared))
                .expect("failed to spawn the maintenance thread")
        };
        MaintHandle {
            shared,
            thread: Some(thread),
        }
    }
}

/// Owner handle for a running maintenance thread.
///
/// Dropping the handle shuts the thread down: no further requests are
/// accepted, what is queued is served, any resize left in flight is
/// finished, and the thread is joined. Use [`MaintHandle::shutdown`] for an
/// explicit, nameable version of the same handshake.
pub struct MaintHandle {
    shared: Arc<MaintShared>,
    thread: Option<JoinHandle<()>>,
}

impl MaintHandle {
    /// Asks for `unit` to be maintained. Never blocks and never waits for
    /// readers: one atomic swap if the unit is already waiting for its turn,
    /// plus a queue push and a wakeup if it is not — the entire cost a
    /// writer pays for triggering a resize on the maintained path.
    ///
    /// Requests made after shutdown began are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is not below the target's `units()`.
    pub fn request(&self, unit: usize) {
        if let Some(depth) = self.shared.enqueue(unit) {
            self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
            // The resize debt this writer observed: how many units were
            // waiting for the maintainer at the moment of its request.
            self.shared
                .stats
                .max_debt
                .fetch_max(depth, Ordering::Relaxed);
        }
    }

    /// A snapshot of the thread's counters.
    pub fn stats(&self) -> MaintStats {
        self.shared.stats.snapshot()
    }

    /// Number of units currently waiting on the work queue.
    pub fn pending(&self) -> usize {
        self.shared.queue.lock().items.len()
    }

    /// Shuts the thread down: stops accepting requests, waits for it to
    /// serve its queue and leave every unit at rest, and joins it.
    ///
    /// Idempotent; also runs on drop.
    ///
    /// # Panics
    ///
    /// Panics if called (or dropped) from inside a read-side critical
    /// section of the global RCU domain: the thread's last turns wait for
    /// grace periods, which can never complete while the calling thread
    /// holds a guard, so the join would deadlock silently otherwise.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.lock().shutdown = true;
        self.shared.wakeup.notify_all();
        let Some(thread) = self.thread.take() else {
            return;
        };
        if rp_rcu::global_read_nesting() > 0 {
            // Joining here would wait forever for our own guard to drop.
            // Detach the thread (it exits once the guard is gone) and make
            // the bug loud — unless we are already unwinding, where a
            // second panic would abort.
            if std::thread::panicking() {
                return;
            }
            panic!(
                "MaintHandle shut down while inside a read-side critical section; \
                 drop the RcuGuard first (the last turns would otherwise deadlock)"
            );
        }
        // Every panic on that thread is contained and counted where it
        // happens; there is nothing left for the join to report.
        let _ = thread.join();
    }
}

impl Drop for MaintHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for MaintHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintHandle")
            .field("pending", &self.pending())
            .field("stats", &self.stats())
            .finish()
    }
}

/// The maintenance thread. It is the dedicated synchronizer: *it* waits for
/// grace periods so writers never do.
fn run(target: &dyn MaintTarget, shared: &MaintShared) {
    // Units whose last turn unwound and has had its one retry queued.
    let mut struck = vec![false; target.units()];
    while let Some(unit) = shared.next() {
        // Cleared **before** the turn, with an acquiring RMW: a write that
        // crosses a trigger from here on queues the unit again, and every
        // write whose request found the flag set is visible to the check
        // `maintain` is about to make.
        shared.pending[unit].swap(false, Ordering::AcqRel);
        if shared.turn(target, unit) {
            struck[unit] = false;
        } else if !std::mem::replace(&mut struck[unit], true) {
            // A transient panic gets its retry, behind the other waiting
            // units; a deterministic one cannot loop. (Under shutdown
            // nothing is queued: the sweep below retries.)
            shared.enqueue(unit);
        }
    }
    // Intake has stopped and the queue is empty. One last turn each leaves
    // no resize half-published — the one way this thread leaves one in
    // flight is a turn that unwound.
    for unit in 0..target.units() {
        shared.turn(target, unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Each unit owes a number of work items; a turn pays them all off.
    struct Debts(Vec<AtomicUsize>);

    impl Debts {
        fn new(units: usize, owed: usize) -> Arc<Self> {
            Arc::new(Debts((0..units).map(|_| AtomicUsize::new(owed)).collect()))
        }

        fn owed(&self, unit: usize) -> usize {
            self.0[unit].load(Ordering::SeqCst)
        }
    }

    impl MaintTarget for Debts {
        fn units(&self) -> usize {
            self.0.len()
        }

        fn maintain(&self, unit: usize) -> bool {
            self.0[unit].swap(0, Ordering::SeqCst) > 0
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
    fn requested_units_are_maintained_and_the_requester_never_waits() {
        let target = Debts::new(4, 3);
        let sync_before = rp_rcu::thread_synchronize_count();
        let handle = MaintThread::spawn(Arc::clone(&target) as Arc<dyn MaintTarget>);
        handle.request(1);
        handle.request(3);
        wait_until(|| target.owed(1) == 0 && target.owed(3) == 0);
        assert_eq!(target.owed(0), 3, "unrequested");
        let stats = handle.stats();
        assert_eq!(stats.requests, 2);
        assert!(stats.turns >= 2);
        assert!((1..=2).contains(&stats.max_debt), "{stats:?}");
        handle.shutdown();
        assert_eq!(
            rp_rcu::thread_synchronize_count(),
            sync_before,
            "the requesting thread must never wait for a grace period"
        );
    }

    /// A target whose `maintain` reports each entry and then blocks until
    /// the test releases it.
    struct Gated {
        entered: mpsc::SyncSender<usize>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl MaintTarget for Gated {
        fn units(&self) -> usize {
            2
        }

        fn maintain(&self, unit: usize) -> bool {
            self.entered.send(unit).unwrap();
            self.release.lock().recv().is_ok()
        }
    }

    #[test]
    fn a_request_made_mid_turn_is_not_lost_and_a_waiting_unit_is_queued_once() {
        let (entered_tx, entered) = mpsc::sync_channel(8);
        let (release, release_rx) = mpsc::channel();
        let target = Arc::new(Gated {
            entered: entered_tx,
            release: Mutex::new(release_rx),
        });
        let mut handle = MaintThread::spawn(target as Arc<dyn MaintTarget>);
        // A lost request must fail the test, not hang it: bounded waits, and
        // the gate dropped (opening it) before the handle joins.
        let release = release;
        let entered = || entered.recv_timeout(Duration::from_secs(10));
        handle.request(0);
        assert_eq!(entered(), Ok(0));
        // The maintainer is inside `maintain(0)`: its check may already be
        // behind it, so this request must buy unit 0 another turn. The
        // repeats find the unit waiting and queue nothing.
        for _ in 0..3 {
            handle.request(0);
        }
        handle.request(1);
        assert_eq!(handle.pending(), 2);
        assert_eq!(handle.stats().requests, 3);
        release.send(()).unwrap();
        assert_eq!(entered(), Ok(0), "the mid-turn request");
        release.send(()).unwrap();
        assert_eq!(entered(), Ok(1));
        release.send(()).unwrap();
        // Shutdown's last turn for each unit finds the gate gone.
        drop(release);
        handle.shutdown_inner();
        assert_eq!(handle.stats().turns, 3 + 2);
    }

    #[test]
    fn shutdown_serves_the_queue_and_then_refuses_requests() {
        let target = Debts::new(3, 5);
        let mut handle = MaintThread::spawn(Arc::clone(&target) as Arc<dyn MaintTarget>);
        handle.request(0);
        handle.request(2);
        handle.shutdown_inner();
        // Every unit is at rest after shutdown, asked for or not.
        assert_eq!((0..3).map(|u| target.owed(u)).sum::<usize>(), 0);
        let stats = handle.stats();
        assert_eq!(stats.requests, 2);
        target.0[1].store(5, Ordering::SeqCst);
        handle.request(1);
        assert_eq!(handle.stats().requests, 2);
        assert_eq!(target.owed(1), 5);
    }
}
