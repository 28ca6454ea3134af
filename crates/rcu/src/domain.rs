//! The EBR grace-period detector: a registry of reader threads and the
//! wait that outlasts their critical sections.
//!
//! An [`RcuDomain`] answers one question — *have all the EBR readers that
//! were inside a critical section when I asked left it?* — and owns nothing
//! else; [`crate::qsbr::QsbrDomain`] answers it for the other flavor. The
//! deferred-free queue, and the decision of which readers a reclamation
//! pass waits for, belong to [`crate::GraceSync`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::stats::{AtomicStats, DomainStats};
use crate::{GP_COUNT, GP_PHASE, NEST_MASK};

/// Per-reader-thread state scanned by the grace-period machinery.
///
/// The single counter word encodes both the read-side critical-section
/// nesting depth (low half) and a snapshot of the domain's grace-period
/// phase bit (taken when the outermost critical section is entered), exactly
/// as liburcu's "memory barrier" flavor does.
#[derive(Debug, Default)]
pub(crate) struct ReaderState {
    pub(crate) ctr: AtomicUsize,
}

impl ReaderState {
    /// Returns `true` if this reader is currently inside a read-side
    /// critical section that began before the current grace-period phase.
    fn blocks_grace_period(&self, gp_ctr: usize) -> bool {
        let c = self.ctr.load(Ordering::SeqCst);
        if c & NEST_MASK == 0 {
            // Not in a read-side critical section at all.
            return false;
        }
        // In a critical section: it only blocks the grace period if it began
        // in the *previous* phase (its phase snapshot differs from the
        // current one).
        (c ^ gp_ctr) & GP_PHASE != 0
    }
}

/// An RCU domain: a set of registered reader threads plus the grace-period
/// state that covers them.
///
/// Most users interact with the process-wide domain returned by
/// [`RcuDomain::global`], which is the one the [`crate::pin`] guards and all
/// relativistic data structures in this workspace use. Independent domains
/// can be created with [`RcuDomain::new`] for isolation (e.g. in tests);
/// readers of an independent domain must register explicitly via
/// [`crate::LocalHandle::new`].
///
/// A domain frees nothing: memory is retired into, and reclaimed by, a
/// [`crate::GraceSync`], whose passes wait for this domain *and* its QSBR
/// sibling.
#[derive(Debug)]
pub struct RcuDomain {
    /// Global grace-period counter; only the phase bit and the low `1`
    /// (folded nesting seed) are meaningful. Every EBR `pin` loads it, so
    /// it has a line of its own: next to `gp_lock`, which every
    /// `synchronize` takes, or to `stats`, which every `defer_free` bumps,
    /// each such store would take the line from every reading core.
    gp_ctr: CachePadded<AtomicUsize>,
    /// Serialises grace periods (writers waiting for readers).
    gp_lock: Mutex<()>,
    /// Registered reader threads.
    registry: Mutex<Vec<Arc<CachePadded<ReaderState>>>>,
    stats: AtomicStats,
}

impl Default for RcuDomain {
    fn default() -> Self {
        Self::new_unregistered()
    }
}

impl RcuDomain {
    fn new_unregistered() -> Self {
        RcuDomain {
            // Start with the nesting seed set so readers copying this value
            // enter their critical section with a nesting count of one.
            gp_ctr: CachePadded::new(AtomicUsize::new(GP_COUNT)),
            gp_lock: Mutex::new(()),
            registry: Mutex::new(Vec::new()),
            stats: AtomicStats::default(),
        }
    }

    /// Creates a fresh, independent domain.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::new_unregistered())
    }

    /// Returns the process-wide global domain.
    ///
    /// This is the domain used by [`crate::pin`] and by every relativistic
    /// data structure in this workspace.
    pub fn global() -> &'static Arc<RcuDomain> {
        static GLOBAL: OnceLock<Arc<RcuDomain>> = OnceLock::new();
        GLOBAL.get_or_init(RcuDomain::new)
    }

    /// Registers a new reader with this domain and returns its state record.
    pub(crate) fn register_reader(&self) -> Arc<CachePadded<ReaderState>> {
        let state = Arc::new(CachePadded::new(ReaderState::default()));
        self.registry.lock().push(Arc::clone(&state));
        self.stats
            .readers_registered
            .fetch_add(1, Ordering::Relaxed);
        state
    }

    /// Removes a reader's state record from the registry.
    ///
    /// The caller must guarantee the reader is not inside a read-side
    /// critical section (its nesting count is zero); [`crate::LocalHandle`]
    /// enforces this by leaking the record otherwise.
    pub(crate) fn unregister_reader(&self, state: &Arc<CachePadded<ReaderState>>) {
        let mut registry = self.registry.lock();
        if let Some(pos) = registry.iter().position(|s| Arc::ptr_eq(s, state)) {
            registry.swap_remove(pos);
            self.stats
                .readers_unregistered
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current value of the grace-period counter (read by `read_lock`).
    pub(crate) fn gp_ctr_relaxed(&self) -> usize {
        self.gp_ctr.load(Ordering::Relaxed)
    }

    /// Waits for a grace period: every read-side critical section that was
    /// in progress when this call began is guaranteed to have completed when
    /// it returns.
    ///
    /// This is the `synchronize_rcu` equivalent. It never blocks readers; it
    /// only blocks the calling (writer) thread.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a read-side critical section of the
    /// global domain (that would otherwise self-deadlock: the grace period
    /// can never end while the caller's own guard is alive).
    pub fn synchronize(&self) {
        self.assert_not_reading();
        let _gp = self.gp_lock.lock();
        self.stats.synchronize_calls.fetch_add(1, Ordering::Relaxed);
        crate::local::note_synchronize();

        // Order all prior writes by this thread (e.g. unlinking a node)
        // before the phase flips and registry scans below.
        std::sync::atomic::fence(Ordering::SeqCst);

        // Snapshot the registry. Readers that register after this point
        // start outside any critical section (counter zero) and therefore
        // never need to be waited on: their critical sections necessarily
        // begin after ours did. Readers that unregister during the wait are
        // kept alive by the cloned `Arc`s and show a zero nesting count.
        let snapshot: Vec<Arc<CachePadded<ReaderState>>> = self.registry.lock().clone();

        // Two phase flips are required: a reader may have sampled the old
        // phase just before the first flip and entered its critical section
        // just after we scanned it, so a single flip can miss it; it cannot
        // survive two (see liburcu's `urcu_common_wait_for_readers`).
        for _ in 0..2 {
            let new_phase = self.gp_ctr.load(Ordering::Relaxed) ^ GP_PHASE;
            self.gp_ctr.store(new_phase, Ordering::SeqCst);
            std::sync::atomic::fence(Ordering::SeqCst);

            for reader in &snapshot {
                let mut spins = 0_u32;
                while reader.blocks_grace_period(new_phase) {
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
        }

        // Order the registry scans before any reclamation the caller
        // performs after this function returns.
        std::sync::atomic::fence(Ordering::SeqCst);
        self.stats.grace_periods.fetch_add(1, Ordering::Relaxed);
    }

    /// The panic [`RcuDomain::synchronize`] opens with: the calling thread
    /// is inside a read-side critical section of this (global) domain.
    pub(crate) fn assert_not_reading(&self) {
        if std::ptr::eq(self, Arc::as_ptr(Self::global()))
            && crate::local::global_read_nesting() > 0
        {
            panic!(
                "RcuDomain::synchronize called from inside a read-side critical section; \
                 drop the RcuGuard first (this would otherwise deadlock)"
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

    /// Number of registered readers currently inside a read-side critical
    /// section that began before the current grace-period phase — the
    /// readers a pending grace period is waiting on. The stall detector
    /// ([`crate::stall`]) uses this to attribute an overdue EBR grace
    /// period; outside a pending `synchronize` it is normally 0.
    pub fn readers_blocking_grace(&self) -> usize {
        let gp_ctr = self.gp_ctr.load(Ordering::SeqCst);
        self.registry
            .lock()
            .iter()
            .filter(|reader| reader.blocks_grace_period(gp_ctr))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalHandle;
    use std::thread;

    #[test]
    fn what_a_pin_loads_shares_no_line_with_what_writers_store() {
        use std::mem::{align_of, offset_of, size_of};
        assert!(align_of::<RcuDomain>() >= 128);
        let line = offset_of!(RcuDomain, gp_ctr) / 128;
        assert_eq!(size_of::<CachePadded<AtomicUsize>>(), 128);
        for (stored, size) in [
            (offset_of!(RcuDomain, gp_lock), size_of::<Mutex<()>>()),
            (
                offset_of!(RcuDomain, registry),
                size_of::<Mutex<Vec<Arc<CachePadded<ReaderState>>>>>(),
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

    #[test]
    fn reader_in_old_phase_blocks_grace_period() {
        let state = ReaderState::default();
        // Simulate a reader that entered with phase 0 while the writer has
        // flipped to phase 1.
        state.ctr.store(GP_COUNT, Ordering::SeqCst);
        assert!(state.blocks_grace_period(GP_COUNT | GP_PHASE));
        // Same phase: does not block.
        assert!(!state.blocks_grace_period(GP_COUNT));
        // Not in a critical section: never blocks.
        state.ctr.store(0, Ordering::SeqCst);
        assert!(!state.blocks_grace_period(GP_COUNT | GP_PHASE));
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
        // A reader of d1 must not prevent grace periods of d2.
        d2.synchronize();
        assert_eq!(d2.stats().grace_periods, 1);
    }
}
