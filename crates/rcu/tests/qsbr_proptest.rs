//! Property tests for the one grace-period detector, with readers of both
//! flavors on one domain, checked against a reference model.
//!
//! The model is the protocol's paper description: each registered QSBR
//! handle is either *offline* or *online at some generation*, and each EBR
//! handle holds some number of nested guards; a `synchronize` that begins
//! now completes exactly when every QSBR handle is offline, unregistered,
//! or has announced a quiescent state **after** the call began, and every
//! EBR handle has dropped its outermost guard. Two properties follow, and
//! both are tested against random op interleavings:
//!
//! * **Never early:** while any reader the model calls *blocking* (a QSBR
//!   handle alive and online, or an EBR handle holding a guard, at the
//!   moment the grace period starts) has not yet let go, `synchronize`
//!   must not return.
//! * **Never stuck:** once every alive handle is offline and every guard
//!   is dropped, `synchronize` must return — regardless of the op history
//!   that led there (re-registrations, online/offline flapping, nested
//!   pins, drops mid-wait).
//!
//! Handles are `!Send`, so each generated case runs its op sequence on a
//! dedicated actor thread while the main thread drives `synchronize`
//! concurrently from another.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rp_rcu::qsbr::QsbrHandle;
use rp_rcu::{LocalHandle, RcuDomain, RcuGuard};

/// One operation applied to the actor thread's set of handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Quiescent(usize),
    Offline(usize),
    Online(usize),
    /// Drop the handle (deregistration). Ops addressing a dropped slot are
    /// skipped, matching the model.
    Unregister(usize),
    /// Register a fresh handle into the slot (if empty).
    Register(usize),
    /// Take one more (possibly nested) guard on the slot's EBR handle.
    Pin(usize),
    /// Drop the slot's newest guard, if it holds one.
    Unpin(usize),
}

const SLOTS: usize = 3;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0_usize..SLOTS).prop_map(Op::Quiescent),
        2 => (0_usize..SLOTS).prop_map(Op::Offline),
        2 => (0_usize..SLOTS).prop_map(Op::Online),
        1 => (0_usize..SLOTS).prop_map(Op::Unregister),
        1 => (0_usize..SLOTS).prop_map(Op::Register),
        2 => (0_usize..SLOTS).prop_map(Op::Pin),
        2 => (0_usize..SLOTS).prop_map(Op::Unpin),
    ]
}

/// The reference model: per slot, is the QSBR handle alive and online, and
/// how many guards does the EBR handle hold. (Generations collapse to
/// "online": any online handle blocks a *new* grace period until its next
/// announcement, because the grace period advances the target past every
/// previously announced value.)
#[derive(Clone)]
struct Model {
    alive: [bool; SLOTS],
    online: [bool; SLOTS],
    pins: [usize; SLOTS],
}

impl Model {
    fn initial() -> Model {
        Model {
            alive: [true; SLOTS],
            online: [true; SLOTS],
            pins: [0; SLOTS],
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Quiescent(i) | Op::Online(i) => {
                if self.alive[i] {
                    self.online[i] = true;
                }
            }
            Op::Offline(i) => {
                if self.alive[i] {
                    self.online[i] = false;
                }
            }
            Op::Unregister(i) => {
                self.alive[i] = false;
                self.online[i] = false;
            }
            Op::Register(i) => {
                if !self.alive[i] {
                    self.alive[i] = true;
                    self.online[i] = true; // registration starts online
                }
            }
            Op::Pin(i) => self.pins[i] += 1,
            Op::Unpin(i) => self.pins[i] = self.pins[i].saturating_sub(1),
        }
    }

    /// Does a grace period started now wait: is some reader online or
    /// holding a guard?
    fn blocks(&self) -> bool {
        (0..SLOTS).any(|i| (self.alive[i] && self.online[i]) || self.pins[i] > 0)
    }
}

/// The actor thread's readers: a QSBR handle (or none) and an EBR handle
/// with its stack of guards in every slot.
struct Readers<'a> {
    domain: &'a Arc<RcuDomain>,
    qsbr: Vec<Option<QsbrHandle>>,
    guards: Vec<Vec<RcuGuard<'a>>>,
}

impl<'a> Readers<'a> {
    fn new(domain: &'a Arc<RcuDomain>) -> Readers<'a> {
        Readers {
            domain,
            qsbr: (0..SLOTS).map(|_| Some(QsbrHandle::new(domain))).collect(),
            guards: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }

    fn apply(&mut self, op: Op, ebr: &'a [LocalHandle]) {
        match op {
            Op::Quiescent(i) => {
                if let Some(h) = self.qsbr[i].as_ref() {
                    h.quiescent_state();
                }
            }
            Op::Offline(i) => {
                if let Some(h) = self.qsbr[i].as_ref() {
                    h.offline();
                }
            }
            Op::Online(i) => {
                if let Some(h) = self.qsbr[i].as_ref() {
                    h.online();
                }
            }
            Op::Unregister(i) => self.qsbr[i] = None,
            Op::Register(i) => {
                if self.qsbr[i].is_none() {
                    self.qsbr[i] = Some(QsbrHandle::new(self.domain));
                }
            }
            Op::Pin(i) => self.guards[i].push(ebr[i].read_lock()),
            Op::Unpin(i) => drop(self.guards[i].pop()),
        }
    }

    /// Lets every grace period end: every QSBR handle goes offline and
    /// every guard drops.
    fn release(&mut self) {
        for h in self.qsbr.iter().flatten() {
            h.offline();
        }
        self.guards.iter_mut().for_each(Vec::clear);
    }
}

fn ebr_handles(domain: &Arc<RcuDomain>) -> Vec<LocalHandle> {
    (0..SLOTS).map(|_| LocalHandle::new(domain)).collect()
}

/// Runs `ops` on an actor thread (handles live there), then checks a
/// `synchronize` started against the resulting state completes exactly when
/// the model says it may: blocked while any handle is online, released once
/// the actor offlines everything.
fn check_case(ops: &[Op]) -> Result<(), TestCaseError> {
    let domain = RcuDomain::new();
    let mut model = Model::initial();

    let (op_tx, op_rx) = mpsc::channel::<Option<Op>>();
    let (ack_tx, ack_rx) = mpsc::channel::<()>();
    let actor = {
        let domain = Arc::clone(&domain);
        std::thread::spawn(move || {
            let ebr = ebr_handles(&domain);
            let mut readers = Readers::new(&domain);
            while let Ok(msg) = op_rx.recv() {
                match msg {
                    Some(op) => readers.apply(op, &ebr),
                    // Release phase: must unblock any waiter.
                    None => readers.release(),
                }
                ack_tx.send(()).unwrap();
            }
        })
    };

    // Phase 1: apply the random prefix, mirrored in the model.
    for &op in ops {
        op_tx.send(Some(op)).unwrap();
        ack_rx.recv().unwrap();
        model.apply(op);
    }

    // Phase 2: start a synchronize against the settled state.
    let done = Arc::new(AtomicBool::new(false));
    let waiter = {
        let domain = Arc::clone(&domain);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            domain.synchronize();
            done.store(true, Ordering::SeqCst);
        })
    };

    if model.blocks() {
        // Never early: the model says at least one reader blocks this
        // grace period, so it must still be pending after a real delay.
        std::thread::sleep(Duration::from_millis(15));
        prop_assert!(
            !done.load(Ordering::SeqCst),
            "synchronize returned early: model says {:?}/{:?}/{:?} blocks it",
            model.alive,
            model.online,
            model.pins
        );
    }

    // Phase 3 (release): the actor offlines everything alive and drops
    // every guard; the model now allows completion, so the waiter must
    // finish promptly.
    op_tx.send(None).unwrap();
    ack_rx.recv().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done.load(Ordering::SeqCst) {
        prop_assert!(
            Instant::now() < deadline,
            "synchronize deadlocked after every handle went offline \
             (alive {:?}, online-before-release {:?}, pins-before-release {:?})",
            model.alive,
            model.online,
            model.pins
        );
        std::thread::yield_now();
    }

    drop(op_tx);
    actor.join().unwrap();
    waiter.join().unwrap();
    prop_assert_eq!(domain.stats().grace_periods, 1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random op interleavings of both flavors against a concurrent
    /// `synchronize`: never early (model-checked), never deadlocked.
    #[test]
    fn synchronize_agrees_with_the_counter_model(
        ops in proptest::collection::vec(op_strategy(), 0..24)
    ) {
        check_case(&ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Ops racing a free-running synchronize loop: no interleaving may
    /// deadlock once the actor goes offline, and every completed grace
    /// period is counted.
    #[test]
    fn racing_synchronize_never_deadlocks(
        ops in proptest::collection::vec(op_strategy(), 1..48)
    ) {
        let domain = RcuDomain::new();
        let stop = Arc::new(AtomicBool::new(false));
        let syncer = {
            let domain = Arc::clone(&domain);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut completed = 0_u64;
                while !stop.load(Ordering::Relaxed) {
                    domain.synchronize();
                    completed += 1;
                }
                completed
            })
        };

        let actor = {
            let domain = Arc::clone(&domain);
            let ops = ops.clone();
            std::thread::spawn(move || {
                let ebr = ebr_handles(&domain);
                let mut readers = Readers::new(&domain);
                for op in ops {
                    readers.apply(op, &ebr);
                }
                // Guards and handles drop here (a QSBR handle goes offline
                // first), so the syncer can always finish its in-flight
                // grace period.
            })
        };

        actor.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        let completed = syncer.join().unwrap();
        prop_assert_eq!(domain.stats().grace_periods, completed);
    }
}
