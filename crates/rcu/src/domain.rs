//! The grace-period detector: one registry of readers of both flavors, one
//! 64-bit counter, and the wait that outlasts their critical sections.
//!
//! An [`RcuDomain`] answers one question — *have all the readers that were
//! inside a critical section when I asked left it?* — for EBR guards
//! ([`crate::pin`], [`crate::LocalHandle`]) and QSBR handles
//! ([`crate::qsbr::QsbrHandle`]) alike, and owns nothing else. The
//! deferred-free queue belongs to [`crate::GraceSync`].
//!
//! Every registered reader has one word: the domain counter it loaded when
//! its critical section began, or 0 while it reads nothing. An EBR reader's
//! section is its outermost guard; a QSBR reader's runs from one quiescent
//! state (or going online) to the next, and going offline ends it. The two
//! flavors differ only in *when* they write the word.
//! [`RcuDomain::synchronize`] bumps the counter to `target` and scans the
//! registry once, waiting on every word that is non-zero and below
//! `target`. The counter is 64 bits wide and never wraps, so a snapshot
//! that is stale when it is published is only ever waited for longer,
//! never mistaken for a current one (DESIGN.md, *One counter, one scan*).
//! The counter also names a grace period as a number, a cookie
//! ([`RcuDomain::cookie`], [`RcuDomain::poll`]), for callers that only
//! need to know whether one has passed.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::stats::{AtomicStats, DomainStats};

std::thread_local! {
    /// Every reader the calling thread has registered, of either flavor,
    /// with its domain's address. Handles are `!Send`, so the list is exact;
    /// it is what [`RcuDomain::read_by_this_thread`] checks.
    static THREAD_READERS: RefCell<Vec<(usize, Arc<CachePadded<Reader>>)>> =
        const { RefCell::new(Vec::new()) };
}

/// One registered reader, as the detector scans it.
#[derive(Debug)]
pub(crate) struct Reader {
    /// The domain counter at the start of the critical section in
    /// progress, or 0 when the reader is idle (EBR) or offline (QSBR).
    pub(crate) word: AtomicU64,
    /// EBR guard nesting depth. Only the owning thread touches it.
    pub(crate) nesting: AtomicUsize,
    /// Registration ordinal, unique within the domain.
    ordinal: u64,
    /// The registering thread's name; with `ordinal`, what a stall report
    /// names the reader by.
    thread: Box<str>,
}

impl Reader {
    /// Does a grace period that bumped the counter to `target` wait for
    /// this reader? Yes while its section began before the bump.
    fn blocks(&self, target: u64) -> bool {
        let word = self.word.load(Ordering::SeqCst);
        word != 0 && word < target
    }
}

/// An RCU domain: the registered readers of both flavors plus the
/// grace-period counter that covers them.
///
/// Most users interact with the process-wide domain returned by
/// [`RcuDomain::global`], which the [`crate::pin`] guards, `rp_hash`'s QSBR
/// handles and all relativistic data structures in this workspace use.
/// Independent domains can be created with [`RcuDomain::new`] for
/// isolation (e.g. in tests); their readers register explicitly with
/// [`crate::LocalHandle::new`] or [`crate::qsbr::QsbrHandle::new`].
///
/// A domain frees nothing: memory is retired into, and reclaimed by, a
/// [`crate::GraceSync`], whose passes wait for this domain.
#[derive(Debug)]
pub struct RcuDomain {
    /// The grace-period counter: 1 at creation, bumped once per grace
    /// period; 0 is the idle word. Every pin and every quiescent state loads
    /// it, so it has a line of its own: next to `gp_lock`, which every
    /// `synchronize` takes, or to `stats`, which every `defer_free` bumps,
    /// each such store would take the line from every reading core.
    gp_ctr: CachePadded<AtomicU64>,
    /// The target of the last finished scan: every cookie up to it is
    /// covered. Off `gp_ctr`'s line, since every grace period stores it.
    completed: AtomicU64,
    /// Serialises grace periods (writers waiting for readers).
    gp_lock: Mutex<()>,
    /// Registered readers of both flavors.
    registry: Mutex<Vec<Arc<CachePadded<Reader>>>>,
    stats: AtomicStats,
}

impl RcuDomain {
    /// Creates a fresh, independent domain.
    pub fn new() -> Arc<Self> {
        Arc::new(RcuDomain {
            gp_ctr: CachePadded::new(AtomicU64::new(1)),
            completed: AtomicU64::new(1),
            gp_lock: Mutex::new(()),
            registry: Mutex::new(Vec::new()),
            stats: AtomicStats::default(),
        })
    }

    /// Returns the process-wide global domain.
    ///
    /// This is the domain used by [`crate::pin`], by `rp_hash`'s QSBR
    /// handles and by every relativistic data structure in this workspace.
    pub fn global() -> &'static Arc<RcuDomain> {
        static GLOBAL: OnceLock<Arc<RcuDomain>> = OnceLock::new();
        GLOBAL.get_or_init(RcuDomain::new)
    }

    fn key(&self) -> usize {
        self as *const RcuDomain as usize
    }

    /// Registers a reader of the calling thread. It starts idle (word 0).
    pub(crate) fn register(&self) -> Arc<CachePadded<Reader>> {
        let ordinal = self
            .stats
            .readers_registered
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        let thread = std::thread::current().name().unwrap_or("unnamed").into();
        let reader = Arc::new(CachePadded::new(Reader {
            word: AtomicU64::new(0),
            nesting: AtomicUsize::new(0),
            ordinal,
            thread,
        }));
        self.registry.lock().push(Arc::clone(&reader));
        let _ = THREAD_READERS.try_with(|readers| {
            readers.borrow_mut().push((self.key(), Arc::clone(&reader)));
        });
        reader
    }

    /// Removes a reader from the registry.
    ///
    /// The caller must guarantee the reader's word is 0. A `synchronize`
    /// that snapshotted the registry before this call keeps polling its own
    /// `Arc` of the record, and a non-zero word would hold it forever.
    pub(crate) fn unregister(&self, reader: &Arc<CachePadded<Reader>>) {
        let mut registry = self.registry.lock();
        if let Some(pos) = registry.iter().position(|r| Arc::ptr_eq(r, reader)) {
            registry.swap_remove(pos);
            self.stats
                .readers_unregistered
                .fetch_add(1, Ordering::Relaxed);
        }
        drop(registry);
        let _ = THREAD_READERS.try_with(|readers| {
            let mut readers = readers.borrow_mut();
            if let Some(pos) = readers.iter().position(|(_, r)| Arc::ptr_eq(r, reader)) {
                readers.swap_remove(pos);
            }
        });
    }

    /// Does the calling thread read this domain right now: is it inside a
    /// guard's critical section, or is its own QSBR handle online? A grace
    /// period would then wait for the caller itself.
    pub(crate) fn read_by_this_thread(&self) -> bool {
        THREAD_READERS
            .try_with(|readers| {
                readers.borrow().iter().any(|(domain, reader)| {
                    *domain == self.key() && reader.word.load(Ordering::Relaxed) != 0
                })
            })
            .unwrap_or(false)
    }

    /// The grace-period counter, as a reader snapshots it. Relaxed, because
    /// it pairs through fences: the writer's SeqCst fence before its bump
    /// (a release) with the reader's SeqCst fence after it publishes the
    /// snapshot (an acquire); see DESIGN.md, *One counter, one scan*.
    pub(crate) fn counter(&self) -> u64 {
        self.gp_ctr.load(Ordering::Relaxed)
    }

    /// Waits for a grace period: every read-side critical section, of
    /// either flavor, that was in progress when this call began has
    /// completed when it returns.
    ///
    /// This is the `synchronize_rcu` equivalent. It never blocks readers; it
    /// only blocks the calling (writer) thread.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread reads this domain itself, through a
    /// guard or an online QSBR handle: the grace period could never end.
    pub fn synchronize(&self) {
        self.assert_not_reading();
        let _gp = self.gp_lock.lock();
        self.stats.synchronize_calls.fetch_add(1, Ordering::Relaxed);
        crate::local::note_synchronize();

        // Order all prior writes by this thread (e.g. unlinking a node)
        // before the bump and the scan below.
        std::sync::atomic::fence(Ordering::SeqCst);
        let target = self.gp_ctr.load(Ordering::Relaxed) + 1;
        self.gp_ctr.store(target, Ordering::SeqCst);
        std::sync::atomic::fence(Ordering::SeqCst);

        // Snapshot the registry. A reader that registers after this point
        // starts idle and publishes its first word after our bump, so its
        // sections begin after ours. One that unregisters during the wait is
        // kept alive by the cloned `Arc` and shows a 0 word.
        let snapshot: Vec<Arc<CachePadded<Reader>>> = self.registry.lock().clone();
        for reader in &snapshot {
            let mut spins = 0_u32;
            while reader.blocks(target) {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else if spins < 256 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }

        // Order the scan before any reclamation the caller performs after
        // this function returns, and, through `completed`, before whatever
        // a poller frees once it reads the target.
        std::sync::atomic::fence(Ordering::SeqCst);
        self.completed.store(target, Ordering::Release);
        self.stats.grace_periods.fetch_add(1, Ordering::Relaxed);
    }

    /// A cookie for the grace period that makes everything the caller
    /// unpublished before this call unreachable: the target of the first
    /// scan whose bump follows the fence (Linux's
    /// `get_state_synchronize_rcu`; DESIGN.md, *One counter, one scan*).
    pub fn cookie(&self) -> u64 {
        std::sync::atomic::fence(Ordering::SeqCst);
        self.gp_ctr.load(Ordering::Relaxed) + 1
    }

    /// Has a grace period covered `cookie`? Once `true` it stays `true`,
    /// and the acquire orders the caller's frees after that scan.
    pub fn poll(&self, cookie: u64) -> bool {
        self.completed.load(Ordering::Acquire) >= cookie
    }

    /// Returns at once if `cookie` is covered, else runs a grace period,
    /// whose target is at least the cookie (`cond_synchronize_rcu`).
    pub fn synchronize_until(&self, cookie: u64) {
        if !self.poll(cookie) {
            self.synchronize();
        }
    }

    /// The panic [`RcuDomain::synchronize`] opens with: the calling thread
    /// reads this domain.
    pub(crate) fn assert_not_reading(&self) {
        if self.read_by_this_thread() {
            panic!(
                "RcuDomain::synchronize called while the calling thread reads the domain \
                 (it holds one of its RcuGuards, or its own QSBR handle is online); drop the \
                 guard or go offline first (this would otherwise deadlock)"
            );
        }
    }

    /// Returns a snapshot of this domain's counters. The two callback
    /// counters are kept by the [`crate::GraceSync`] built over this domain.
    pub fn stats(&self) -> DomainStats {
        self.stats.snapshot()
    }

    /// The live counters, for the funnel's callback accounting.
    pub(crate) fn counters(&self) -> &AtomicStats {
        &self.stats
    }

    /// Number of readers currently registered with this domain.
    pub fn registered_readers(&self) -> usize {
        self.registry.lock().len()
    }

    /// The readers the latest grace period waits for: the ordinal and
    /// thread name of every registered reader, of either flavor, whose
    /// section began before the latest bump. While a `synchronize` is
    /// pending these are the readers holding it up; the stall detector
    /// ([`crate::stall`]) names them.
    pub fn blocking_readers(&self) -> Vec<(u64, String)> {
        let target = self.gp_ctr.load(Ordering::SeqCst);
        self.registry
            .lock()
            .iter()
            .filter(|reader| reader.blocks(target))
            .map(|reader| (reader.ordinal, reader.thread.to_string()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsbr::QsbrHandle;
    use crate::LocalHandle;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn what_a_pin_loads_shares_no_line_with_what_writers_store() {
        use std::mem::{align_of, offset_of, size_of};
        assert!(align_of::<RcuDomain>() >= 128);
        let line = offset_of!(RcuDomain, gp_ctr) / 128;
        assert_eq!(size_of::<CachePadded<AtomicU64>>(), 128);
        for (stored, size) in [
            (offset_of!(RcuDomain, completed), size_of::<AtomicU64>()),
            (offset_of!(RcuDomain, gp_lock), size_of::<Mutex<()>>()),
            (
                offset_of!(RcuDomain, registry),
                size_of::<Mutex<Vec<Arc<CachePadded<Reader>>>>>(),
            ),
            (offset_of!(RcuDomain, stats), size_of::<AtomicStats>()),
        ] {
            assert_ne!(stored / 128, line, "{stored}");
            assert_ne!((stored + size - 1) / 128, line);
        }
    }

    #[test]
    fn fresh_domain_has_no_readers() {
        let d = RcuDomain::new();
        assert_eq!(d.registered_readers(), 0);
        assert_eq!(d.stats().grace_periods, 0);
    }

    #[test]
    fn synchronize_counts_grace_periods() {
        let d = RcuDomain::new();
        d.synchronize();
        d.synchronize();
        let s = d.stats();
        assert_eq!(s.grace_periods, 2);
        assert_eq!(s.synchronize_calls, 2);
    }

    #[test]
    fn register_and_unregister_update_registry() {
        let d = RcuDomain::new();
        let h1 = LocalHandle::new(&d);
        let h2 = LocalHandle::new(&d);
        assert_eq!(d.registered_readers(), 2);
        drop(h1);
        assert_eq!(d.registered_readers(), 1);
        drop(h2);
        assert_eq!(d.registered_readers(), 0);
        let s = d.stats();
        assert_eq!(s.readers_registered, 2);
        assert_eq!(s.readers_unregistered, 2);
    }

    /// The whole detector in three cases: what a word blocks, and the
    /// reader that loads the counter before a bump but publishes after the
    /// scan.
    #[test]
    fn a_word_blocks_while_it_is_below_the_target() {
        let d = RcuDomain::new();
        let reader = d.register();
        // A 0 word (idle EBR reader, offline QSBR reader) never blocks.
        assert!(!reader.blocks(2));
        assert!(!reader.blocks(u64::MAX));
        // A word below the target blocks; one at it does not.
        reader.word.store(1, Ordering::SeqCst);
        assert!(reader.blocks(2));
        assert!(!reader.blocks(1));

        // The late publisher: it loads the counter (1), the writer bumps
        // to 2 and scans a 0 word, then the snapshot is published. The grace
        // period in progress ends without it, since its reads start after
        // the scan's fence, and the next one waits for it.
        reader.word.store(0, Ordering::SeqCst);
        let snapshot = d.counter();
        d.synchronize();
        reader.word.store(snapshot, Ordering::SeqCst);
        let next = {
            let d = Arc::clone(&d);
            thread::spawn(move || d.synchronize())
        };
        thread::sleep(Duration::from_millis(20));
        assert!(
            !next.is_finished(),
            "the next grace period ignored a stale word"
        );
        assert_eq!(d.blocking_readers(), vec![(1, reader.thread.to_string())]);
        reader.word.store(0, Ordering::SeqCst);
        next.join().unwrap();
        assert_eq!(d.stats().grace_periods, 2);
        d.unregister(&reader);
    }

    /// A scan covers only the cookies taken before its bump.
    #[test]
    fn a_cookie_taken_during_a_scan_is_covered_by_the_next_one() {
        let d = RcuDomain::new();
        let reader = d.register();
        reader.word.store(d.counter(), Ordering::SeqCst);
        let scan = {
            let d = Arc::clone(&d);
            thread::spawn(move || d.synchronize())
        };
        while d.counter() < 2 {
            thread::yield_now();
        }
        let cookie = d.cookie();
        assert_eq!(cookie, 3, "taken after the blocked scan's bump");
        reader.word.store(0, Ordering::SeqCst);
        scan.join().unwrap();
        assert!(!d.poll(cookie), "the scan in flight covered a later cookie");

        d.synchronize();
        assert!(d.poll(cookie));
        d.unregister(&reader);
    }

    #[test]
    fn synchronize_until_waits_only_for_an_uncovered_cookie() {
        let d = RcuDomain::new();
        let cookie = d.cookie();
        d.synchronize_until(cookie);
        assert!(d.poll(cookie));
        let waits = crate::thread_synchronize_count();
        d.synchronize_until(cookie);
        assert_eq!(d.stats().synchronize_calls, 1, "a covered cookie waited");
        assert_eq!(crate::thread_synchronize_count(), waits);
    }

    #[test]
    fn concurrent_synchronize_calls_serialize_safely() {
        let d = RcuDomain::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                thread::spawn(move || {
                    for _ in 0..50 {
                        d.synchronize();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.stats().grace_periods, 200);
    }

    #[test]
    fn custom_domain_reader_blocks_only_its_domain() {
        let d1 = RcuDomain::new();
        let d2 = RcuDomain::new();
        let h1 = LocalHandle::new(&d1);
        let _guard = h1.read_lock();
        let _q = QsbrHandle::new(&d1);
        // Readers of d1 must not prevent grace periods of d2.
        d2.synchronize();
        assert_eq!(d2.stats().grace_periods, 1);
    }

    /// One registry: a held guard and an online handle on one domain are
    /// both named, each by its own thread.
    #[test]
    fn blocking_readers_names_both_flavors() {
        let d = RcuDomain::new();
        let release = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let readers: Vec<_> = ["ebr-reader", "qsbr-reader"]
            .into_iter()
            .map(|name| {
                let (d, release, tx) = (Arc::clone(&d), Arc::clone(&release), tx.clone());
                thread::Builder::new()
                    .name(name.into())
                    .spawn(move || {
                        let ebr = LocalHandle::new(&d);
                        let _guard = (name == "ebr-reader").then(|| ebr.read_lock());
                        let qsbr = (name == "qsbr-reader").then(|| QsbrHandle::new(&d));
                        tx.send(()).unwrap();
                        while !release.load(Ordering::SeqCst) {
                            thread::sleep(Duration::from_millis(1));
                        }
                        drop(qsbr);
                    })
                    .unwrap()
            })
            .collect();
        rx.recv().unwrap();
        rx.recv().unwrap();
        assert!(d.blocking_readers().is_empty(), "no grace period pending");
        let waiter = {
            let d = Arc::clone(&d);
            thread::spawn(move || d.synchronize())
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut names = Vec::new();
        while names.len() < 2 && std::time::Instant::now() < deadline {
            names = d.blocking_readers().into_iter().map(|(_, n)| n).collect();
            thread::yield_now();
        }
        names.sort();
        assert_eq!(names, ["ebr-reader", "qsbr-reader"]);
        release.store(true, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        waiter.join().unwrap();
        assert!(d.blocking_readers().is_empty(), "resolved after the GP");
    }
}
