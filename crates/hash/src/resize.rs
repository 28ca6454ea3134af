//! The paper's resize algorithms: zip (shrink) and unzip (expand), split
//! into an **incremental state machine**.
//!
//! Both algorithms preserve the reader-visible invariant at every instant:
//! *every bucket reachable from the published table contains every element
//! that hashes to it* (it may temporarily contain extra elements — an
//! "imprecise" bucket — which lookups filter out by key comparison).
//!
//! # The state machine
//!
//! A resize is a first-class *operation object* ([`UnzipOp`] / [`ZipOp`],
//! stored inside the map) that any thread can push forward one bounded
//! [`ResizeStep`] at a time:
//!
//! ```text
//! expand:  begin(+publish new table) → grace → [splice round → grace]* → finish
//! shrink:  begin(+publish new table) → grace → finish
//! ```
//!
//! * **begin** allocates and links the new bucket array and publishes it in
//!   one writer-lock critical section (linking and publishing cannot be
//!   separated: the links are computed against the chains as they are at
//!   that instant). It is one pass: an expand walks each old chain once, to
//!   the first node of each side, and takes both new heads and the pair's
//!   first turn from that walk; a shrink visits each pair of old heads once.
//! * **grace** steps wait for readers with the writer lock *released*, so
//!   concurrent writers keep updating the map while the resizing thread
//!   absorbs the wait. This is the only grace-period wait in the crate's
//!   resize code, and it is a rule, not an optimisation: a QSBR-online
//!   thread that writes to the map announces its quiescent state only after
//!   its write, so whoever waited for it while holding the lock that write
//!   needs would wait forever.
//! * **splice rounds** perform at most one cross-link splice per in-progress
//!   bucket pair under the writer lock (bounded work, no waiting), then
//!   require a grace period before the next round. A round visits each
//!   unfinished pair once and retires it on the spot if the cut was its
//!   last, so after the round that cuts the last cross-link of the table
//!   nothing is left but that round's grace period.
//! * **finish** tears down the operation bookkeeping; it walks no chain.
//!
//! There is one driver, [`RpHashMap::drive_resizes`]: finish whatever resize
//! is in flight, begin the next one its caller asks for, step it to
//! [`ResizeStep::Finished`] through [`RpHashMap::advance_resize`], repeat.
//! [`RpHashMap::expand`], [`RpHashMap::shrink`], [`RpHashMap::resize_to`],
//! [`RpHashMap::maintain`] and the load-factor triggers (which fire after
//! the triggering writer has unlocked) differ only in what they ask for.
//! The caller is synchronous — it returns when its resize has finished, and
//! pays every grace period of it — but holds nothing while it waits.
//!
//! # Writer mutations between steps
//!
//! Because the writer lock is released between steps, insertions and
//! removals interleave with an in-progress unzip. Mid-unzip a node can be
//! reachable from *both* buckets of its pair (the chains have not been
//! split apart yet), so unlinking it from its home chain alone would leave
//! the sibling chain pointing at retired memory. Writers therefore call
//! [`RpHashMap::fixup_unzip_links_locked`] after every unlink, and the
//! splice rounds re-derive splice points from the published bucket heads
//! each round (no stored cursors that a removal could invalidate) with a
//! reachability check that refuses any splice that would orphan a run.

use std::hash::{BuildHasher, Hash};
use std::sync::atomic::Ordering;

use rp_rcu::GraceSync;

use crate::map::{prefetch_line, RpHashMap, WriterGuard};
use crate::node::Node;
use crate::stats::AtomicMapStats;
use crate::table::BucketArray;

/// Sentinel for a fully-unzipped bucket pair in [`UnzipOp::turn`].
const PAIR_DONE: usize = usize::MAX;

/// How many buckets ahead of itself a resize loop hints a head node: far
/// enough for the miss to land before the loop gets there, near enough for
/// the line to still be in cache when it does.
const HINT_AHEAD: usize = 16;

/// Hints the head node of `table`'s bucket `index`, if there is one. Only
/// the head: a hint that loads the head to hint its successor turns the
/// head's miss back into one the loop waits for.
fn hint_head<K, V>(table: &BucketArray<K, V>, index: usize) {
    if let Some(slot) = table.buckets.get(index) {
        // Relaxed: the pointer is only hinted, never dereferenced.
        prefetch_line(slot.load(Ordering::Relaxed).cast_const().cast());
    }
}

/// Telemetry: a resize began (`expand = true` for unzip, `false` for zip).
fn observe_resize_begin(expand: bool) {
    let obs = rp_obs::global();
    obs.resize.begun_total.inc();
    obs.trace
        .record(rp_obs::TraceKind::ResizeBegin, u64::from(expand));
}

/// Telemetry: a resize absorbed one grace-period wait (timed when enabled).
fn observe_resize_grace(timer: Option<std::time::Instant>) {
    if let Some(ns) = rp_obs::elapsed_ns(timer) {
        let obs = rp_obs::global();
        obs.resize.grace_wait_ns.record(ns);
        obs.trace.record(rp_obs::TraceKind::ResizeGrace, ns);
    }
}

/// Telemetry: one bounded restructuring step ran; counts completions even
/// with timing disabled.
fn observe_resize_step(timer: Option<std::time::Instant>, step: ResizeStep) {
    let obs = rp_obs::global();
    if step != ResizeStep::Idle {
        if let Some(ns) = rp_obs::elapsed_ns(timer) {
            obs.resize.step_ns.record(ns);
        }
    }
    if step == ResizeStep::Finished {
        obs.resize.finished_total.inc();
        obs.trace.record(rp_obs::TraceKind::ResizeFinish, 0);
    }
}

/// The outcome of one [`RpHashMap::advance_resize`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeStep {
    /// No resize is in progress; nothing was done.
    Idle,
    /// Waited for one grace period (with the writer lock released).
    Grace,
    /// Performed one splice round: at most one cross-link splice per
    /// in-progress bucket pair, under the writer lock, without waiting.
    Splice,
    /// The resize completed and its bookkeeping was torn down.
    Finished,
}

/// The resize [`RpHashMap::drive_resizes`] is asked to begin next.
enum Begin {
    Expand,
    Shrink,
}

/// An in-progress incremental resize (guarded by the map's writer lock).
pub(crate) enum ResizeOp<K, V> {
    Unzip(UnzipOp<K, V>),
    Zip(ZipOp<K, V>),
}

impl<K, V> ResizeOp<K, V> {
    /// If the op is waiting on a grace period, its `(op id, round)` key.
    fn grace_key(&self) -> Option<(u64, u64)> {
        match self {
            ResizeOp::Unzip(u) if u.grace_pending => Some((u.id, u.round)),
            ResizeOp::Zip(z) if z.grace_pending => Some((z.id, 0)),
            _ => None,
        }
    }

    fn id(&self) -> u64 {
        match self {
            ResizeOp::Unzip(u) => u.id,
            ResizeOp::Zip(z) => z.id,
        }
    }

    /// Marks the pending grace period as elapsed and releases the superseded
    /// bucket array (no reader can hold it any more).
    fn grace_done(&mut self) {
        match self {
            ResizeOp::Unzip(u) => {
                u.grace_pending = false;
                drop(u.old_table.take());
            }
            ResizeOp::Zip(z) => {
                z.grace_pending = false;
                drop(z.old_table.take());
            }
        }
    }
}

/// An in-progress expansion (unzip).
pub(crate) struct UnzipOp<K, V> {
    /// Unique id (per map) used by grace-wait bookkeeping.
    id: u64,
    /// Bucket count before the expansion; pair `o` is new buckets `o` and
    /// `o + old_buckets`.
    pub(crate) old_buckets: usize,
    /// `new_buckets - 1`.
    new_mask: usize,
    /// The superseded bucket array, freed once the publish grace period has
    /// elapsed (its chain nodes live on, shared with the new table).
    old_table: Option<Box<BucketArray<K, V>>>,
    /// Per old bucket: the new-bucket index whose chain receives the next
    /// splice, or [`PAIR_DONE`].
    turn: Vec<usize>,
    /// Number of pairs not yet fully unzipped.
    remaining: usize,
    /// A grace period must elapse before the next structural step.
    grace_pending: bool,
    /// Bumped each time `grace_pending` is set, so concurrent advancers can
    /// tell exactly which wait they resolved.
    round: u64,
}

/// An in-progress shrink (zip): after `begin` the only outstanding work is
/// one grace period and then freeing the superseded array.
pub(crate) struct ZipOp<K, V> {
    id: u64,
    old_table: Option<Box<BucketArray<K, V>>>,
    grace_pending: bool,
}

/// Where a splice cuts the chain: at the bucket head slot or after a node.
enum CutPoint<K, V> {
    Head(usize),
    After(*mut Node<K, V>),
}

/// A candidate splice: cut `cut` so the chain skips the foreign run
/// `[foreign_head ..= run tail]` and continues at `after_foreign`.
struct CrossLink<K, V> {
    cut: CutPoint<K, V>,
    foreign_head: *mut Node<K, V>,
    foreign_bucket: usize,
    after_foreign: *mut Node<K, V>,
}

impl<K, V, S> RpHashMap<K, V, S>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Send + Sync + 'static,
    S: BuildHasher,
{
    /// Doubles the number of buckets (one unzip expansion step), driving the
    /// resize to completion before returning.
    ///
    /// Lookups proceed at full speed throughout, and so do other writers:
    /// the call waits for one grace period to publish the new table plus
    /// one per unzip round, each with the writer lock released. Any resize
    /// already in progress is completed first. A no-op at the policy's
    /// `max_buckets`.
    pub fn expand(&self) {
        let mut once = Some(Begin::Expand);
        self.drive_resizes(|_, _| once.take());
    }

    /// Halves the number of buckets (one zip shrink step), driving the
    /// resize to completion before returning.
    ///
    /// Lookups and other writers proceed throughout; the call waits for a
    /// single grace period regardless of table size. Any resize already in
    /// progress is completed first. A no-op at the policy's `min_buckets`.
    pub fn shrink(&self) {
        let mut once = Some(Begin::Shrink);
        self.drive_resizes(|_, _| once.take());
    }

    /// Resizes the table to `target_buckets` (rounded up to a power of two
    /// and clamped to the policy bounds), doubling or halving repeatedly.
    ///
    /// Each step is decided against the table as it is once no other resize
    /// is in flight, so a concurrent resizer delays the call but does not
    /// derail it.
    pub fn resize_to(&self, target_buckets: usize) {
        let target = self.policy().clamp_buckets(target_buckets.max(1));
        self.drive_resizes(|_, buckets| match buckets.cmp(&target) {
            std::cmp::Ordering::Less => Some(Begin::Expand),
            std::cmp::Ordering::Greater => Some(Begin::Shrink),
            std::cmp::Ordering::Equal => None,
        });
    }

    /// Catches up on automatic-resize work the writer paths postponed,
    /// driving the table back inside its policy's load-factor bounds.
    /// Returns `true` if it resized the table.
    ///
    /// Writers skip automatic resizing when the writing thread cannot wait
    /// for readers — it holds an EBR guard, or it is an online QSBR reader
    /// (an event-loop worker serving lookups). If *every* writer is such a
    /// thread, nothing would ever resize; callers with a natural quiescent
    /// point (the event-loop worker between batches, with its handle
    /// offline) invoke this instead. The same self-deadlock conditions are
    /// re-checked here, so a mistimed call is a no-op rather than a panic.
    ///
    /// This is the step every writer that crosses a load-factor trigger
    /// takes after it unlocks, made callable — by the caller above, and by
    /// a background maintainer whose writers do not take it at all
    /// (`rp-shard`'s `with_maintenance`).
    pub fn maintain(&self) -> bool {
        rp_rcu::may_wait_for_readers() && self.drive_to_policy()
    }

    /// [`RpHashMap::maintain`] for a caller that has already established it
    /// may wait for readers.
    pub(crate) fn drive_to_policy(&self) -> bool {
        let wanted = |len, buckets| {
            if self.policy().should_expand(len, buckets) {
                Some(Begin::Expand)
            } else if self.policy().should_shrink(len, buckets) {
                Some(Begin::Shrink)
            } else {
                None
            }
        };
        // Lock-free check first: event-loop workers run this per batch, so
        // the nothing-to-do case must cost loads, not a writer-lock round
        // trip.
        if !self.resize_in_progress() && wanted(self.len(), self.num_buckets()).is_none() {
            return false;
        }
        self.drive_resizes(wanted)
    }

    /// The one resize driver. Until `next` — shown the entry and bucket
    /// counts of the table at rest — asks for nothing, or a policy bound
    /// refuses what it asks for: begin that resize and step it to
    /// [`ResizeStep::Finished`]. Returns `true` if it began any.
    ///
    /// Every grace period is waited for inside
    /// [`RpHashMap::advance_resize`], with the writer lock **released**:
    /// the readers being waited for may themselves be writers (a QSBR-online
    /// worker in the middle of its batch), and one of them blocked on this
    /// map's writer lock would never reach its quiescent state.
    fn drive_resizes(&self, mut next: impl FnMut(usize, usize) -> Option<Begin>) -> bool {
        let mut resized = false;
        loop {
            let guard = self.lock_at_rest();
            // SAFETY: writer lock held.
            let begun = unsafe {
                match next(self.len(), self.table_locked().len()) {
                    Some(Begin::Expand) => self.begin_unzip_locked(&guard),
                    Some(Begin::Shrink) => self.begin_zip_locked(&guard),
                    None => false,
                }
            };
            drop(guard);
            if !begun {
                return resized;
            }
            self.finish_resize();
            resized = true;
        }
    }

    /// Steps the resize in flight, if any, to its end.
    fn finish_resize(&self) {
        while !matches!(
            self.advance_resize(),
            ResizeStep::Finished | ResizeStep::Idle
        ) {}
    }

    /// Takes the writer lock with no resize in flight, first finishing —
    /// lock released — whatever resize it finds, as often as another thread
    /// begins one in between.
    fn lock_at_rest(&self) -> WriterGuard<'_> {
        loop {
            let guard = self.writer_lock();
            // SAFETY: writer lock held.
            if unsafe { self.resize_op_locked() }.is_none() {
                return guard;
            }
            drop(guard);
            self.finish_resize();
        }
    }

    /// Returns `true` if an incremental resize (begun with
    /// [`RpHashMap::begin_expand`] or [`RpHashMap::begin_shrink`]) has not
    /// yet reached its [`ResizeStep::Finished`] step.
    ///
    /// This is a lock-free snapshot; it can be stale by the time the caller
    /// acts on it.
    pub fn resize_in_progress(&self) -> bool {
        self.resize_active()
    }

    /// Starts an incremental expansion: allocates the doubled bucket array,
    /// links every new bucket into the corresponding old chain, and
    /// publishes it — all in one bounded writer-lock critical section, with
    /// **no grace-period wait**.
    ///
    /// Returns `false` (and does nothing) if a resize is already in progress
    /// or the policy's `max_buckets` bound is reached. On success the caller
    /// (or any other thread) must repeatedly call
    /// [`RpHashMap::advance_resize`] until it reports
    /// [`ResizeStep::Finished`].
    pub fn begin_expand(&self) -> bool {
        let guard = self.writer_lock();
        // SAFETY: `guard` holds this map's writer lock.
        unsafe { self.begin_unzip_locked(&guard) }
    }

    /// Starts an incremental shrink: links the collapsing chains together
    /// and publishes the halved bucket array in one bounded writer-lock
    /// critical section, with **no grace-period wait**.
    ///
    /// Returns `false` (and does nothing) if a resize is already in progress
    /// or the policy's `min_buckets` bound is reached. Drive it with
    /// [`RpHashMap::advance_resize`] like an expansion.
    pub fn begin_shrink(&self) -> bool {
        let guard = self.writer_lock();
        // SAFETY: `guard` holds this map's writer lock.
        unsafe { self.begin_zip_locked(&guard) }
    }

    /// Advances the in-progress resize by one bounded step and reports what
    /// was done.
    ///
    /// *Grace steps* release the writer lock for the duration of the wait,
    /// so concurrent writers keep making progress — this is what lets a
    /// maintenance thread absorb every `synchronize` on behalf of the
    /// writers, and what keeps a resize from deadlocking against a
    /// QSBR-online writer. *Splice* and *finish* steps take the writer lock
    /// for a bounded amount of restructuring work.
    ///
    /// Safe to call from any thread, including concurrently with writers
    /// and with other advancers; the only requirement is the usual one for
    /// grace periods — the calling thread must not hold an [`rp_rcu`] read
    /// guard.
    pub fn advance_resize(&self) -> ResizeStep {
        // Chaos hook, *before* the writer lock: an injected delay widens
        // the window between state-machine steps, and an injected panic
        // lands at a step boundary — the table is reader-consistent and no
        // lock is held, so the resize is simply left mid-flight for the
        // next advancer (or Drop completion) to finish.
        let _ = rp_fault::point("hash.resize.step");
        let guard = self.writer_lock();
        // SAFETY: writer lock held.
        let pending = match unsafe { self.resize_op_locked() } {
            None => return ResizeStep::Idle,
            Some(op) => op.grace_key(),
        };
        match pending {
            Some((id, round)) => {
                // Wait for readers with the writer lock released: this is
                // the step a resizer spends nearly all its time in, and
                // writers must not be blocked behind it — some of them are
                // the readers being waited for. The wait goes through
                // `GraceSync`, covering QSBR readers of this map's chains
                // as well as EBR guards.
                drop(guard);
                let timer = rp_obs::timer();
                GraceSync::global().synchronize();
                observe_resize_grace(timer);
                let guard = self.writer_lock();
                // SAFETY: `guard` holds this map's writer lock.
                unsafe { self.resolve_grace_locked(&guard, id, round) };
                ResizeStep::Grace
            }
            None => {
                let timer = rp_obs::timer();
                // SAFETY: `guard` still holds this map's writer lock.
                let step = unsafe { self.resize_work_step_locked(&guard) };
                observe_resize_step(timer, step);
                step
            }
        }
    }

    /// `begin` for expansion. Requires the writer lock; returns `false` if a
    /// resize is in progress or the table cannot grow.
    ///
    /// # Safety
    ///
    /// `held` must guard this map's writer lock.
    unsafe fn begin_unzip_locked(&self, held: &WriterGuard<'_>) -> bool {
        // SAFETY (this fn body): writer lock held per the caller contract,
        // so the op slot, the published table and all reachable nodes are
        // stable (nodes are only retired under this lock and freed a grace
        // period later).
        unsafe {
            if self.resize_op_locked().is_some() {
                return false;
            }
            // Chaos hook, inside the writer-lock critical section but
            // before any mutation: an injected panic here unwinds while
            // holding the writer lock, exercising the poisoned-lock
            // recovery semantics without corrupting the table.
            let _ = rp_fault::point("hash.resize.begin");
            let old_table = self.table_locked();
            let old_buckets = old_table.len();
            let new_buckets = match old_buckets.checked_mul(2) {
                Some(n) if n <= self.policy().max_buckets => n,
                _ => return false,
            };

            // Phase 1: one walk per old bucket. Old bucket `o` splits into
            // new buckets `o` and `o + old_buckets`, and its chain holds both
            // sides' elements interleaved: walk it until the first node of
            // each side has been seen (or it ends) and point each new bucket
            // at its own. A chain that feeds both sides is a zipper that
            // needs unzipping, and its first splice belongs to the chain of
            // the old head's side (the zipper's first run).
            let new_table: Box<BucketArray<K, V>> = BucketArray::new(new_buckets);
            let new_mask = new_buckets - 1;
            let mut turn = vec![PAIR_DONE; old_buckets];
            let mut remaining = 0;
            for (low, slot) in turn.iter_mut().enumerate() {
                hint_head(old_table, low + HINT_AHEAD);
                let head = old_table.head_acquire(low);
                let mut first: [*mut Node<K, V>; 2] = [std::ptr::null_mut(); 2];
                let mut cur = head;
                while !cur.is_null() {
                    let node = &*cur;
                    let side = usize::from((node.hash as usize) & new_mask != low);
                    if first[side].is_null() {
                        first[side] = cur;
                        if !first[1 - side].is_null() {
                            break;
                        }
                    }
                    cur = node.next_acquire();
                }
                new_table.publish_head(low, first[0]);
                new_table.publish_head(low + old_buckets, first[1]);
                if !first[0].is_null() && !first[1].is_null() {
                    *slot = ((*head).hash as usize) & new_mask;
                    remaining += 1;
                }
            }

            // Phase 2: publish the new table. After one grace period every
            // reader starts from the new (imprecise) buckets and the old
            // array can be freed; that wait is the op's first pending step.
            let old_ptr = self.publish_table(new_table);
            let op = UnzipOp {
                id: self.next_resize_id(held),
                old_buckets,
                new_mask,
                // SAFETY: `old_ptr` was the previously published table,
                // allocated by `BucketArray::new`; it is owned by the op and
                // freed only after the publish grace period.
                old_table: Some(Box::from_raw(old_ptr)),
                turn,
                remaining,
                grace_pending: true,
                round: 0,
            };
            *self.resize_op_locked() = Some(ResizeOp::Unzip(op));
            self.set_resize_active(true);
            observe_resize_begin(true);
            true
        }
    }

    /// `begin` for shrinking. Requires the writer lock; returns `false` if a
    /// resize is in progress or the table cannot shrink.
    ///
    /// # Safety
    ///
    /// `held` must guard this map's writer lock.
    unsafe fn begin_zip_locked(&self, held: &WriterGuard<'_>) -> bool {
        // SAFETY (this fn body): writer lock held per the caller contract;
        // see `begin_unzip_locked`.
        unsafe {
            if self.resize_op_locked().is_some() {
                return false;
            }
            let old_table = self.table_locked();
            let old_buckets = old_table.len();
            if old_buckets <= self.policy().min_buckets.max(1) || old_buckets == 1 {
                return false;
            }
            let new_buckets = old_buckets / 2;

            // Phase 1: one pass over the old heads. New bucket `b` collects
            // old buckets `b` and `b + new_buckets`: point it at whichever
            // old chain comes first (preferring old bucket `b`) and, where
            // both exist, append the "high" chain to the tail of the "low"
            // one. That makes the low old bucket imprecise (its readers see
            // extra elements — harmless) while readers of the high old
            // bucket are untouched.
            let new_table: Box<BucketArray<K, V>> = BucketArray::new(new_buckets);
            for new_index in 0..new_buckets {
                // Only the low chain is walked; the high one is linked as is.
                hint_head(old_table, new_index + HINT_AHEAD);
                let low = old_table.head_acquire(new_index);
                let high = old_table.head_acquire(new_index + new_buckets);
                new_table.publish_head(new_index, if low.is_null() { high } else { low });
                if low.is_null() || high.is_null() {
                    continue;
                }
                let mut tail = low;
                loop {
                    let next = (*tail).next_acquire();
                    if next.is_null() {
                        break;
                    }
                    tail = next;
                }
                (*tail).next.store(high, Ordering::Release);
            }

            // Phase 2: publish the new table; the grace period that lets the
            // old array be freed is the op's one pending step.
            let old_ptr = self.publish_table(new_table);
            let op = ZipOp {
                id: self.next_resize_id(held),
                // SAFETY: as in `begin_unzip_locked`.
                old_table: Some(Box::from_raw(old_ptr)),
                grace_pending: true,
            };
            *self.resize_op_locked() = Some(ResizeOp::Zip(op));
            self.set_resize_active(true);
            observe_resize_begin(false);
            true
        }
    }

    /// Marks the grace period identified by `(id, round)` as elapsed, if the
    /// op still matches (a concurrent advancer may have resolved it, or the
    /// op may have finished and been replaced).
    ///
    /// # Safety
    ///
    /// `held` must guard this map's writer lock.
    unsafe fn resolve_grace_locked(&self, held: &WriterGuard<'_>, id: u64, round: u64) {
        // SAFETY: writer lock held per the caller contract.
        if let Some(op) = unsafe { self.resize_op_locked() } {
            if op.id() == id && op.grace_key() == Some((id, round)) {
                op.grace_done();
                self.stats.resize_grace_periods.add(1, held);
            }
        }
    }

    /// Performs one non-grace step: a splice round, or finish. Must only be
    /// called when no grace period is pending.
    ///
    /// # Safety
    ///
    /// `held` must guard this map's writer lock.
    unsafe fn resize_work_step_locked(&self, held: &WriterGuard<'_>) -> ResizeStep {
        // SAFETY (this fn body): writer lock held per the caller contract.
        unsafe {
            let Some(op) = self.resize_op_locked() else {
                return ResizeStep::Idle;
            };
            debug_assert!(op.grace_key().is_none(), "grace period still pending");
            match op {
                ResizeOp::Zip(_) => {
                    // The publish grace period has elapsed and the old array
                    // has been freed; nothing else to do.
                    *self.resize_op_locked() = None;
                    self.set_resize_active(false);
                    self.stats.shrinks.add(1, held);
                    ResizeStep::Finished
                }
                ResizeOp::Unzip(u) => {
                    if u.remaining > 0 {
                        let table = self.table_locked();
                        let splices = Self::splice_round(table, u);
                        if splices > 0 {
                            self.stats.unzip_splices.add(splices, held);
                            self.stats.unzip_rounds.add(1, held);
                            u.grace_pending = true;
                            u.round += 1;
                            return ResizeStep::Splice;
                        }
                    }
                    debug_assert_eq!(u.remaining, 0, "no splice found for unfinished pair");
                    *self.resize_op_locked() = None;
                    self.set_resize_active(false);
                    self.stats.expands.add(1, held);
                    ResizeStep::Finished
                }
            }
        }
    }

    /// Verifies the reader-visible invariant: every entry is reachable from
    /// the bucket its hash maps to in the current table.
    ///
    /// Intended for tests and debugging; drives any in-progress incremental
    /// resize to completion (grace periods waited for with the writer lock
    /// released, like every resize) and checks under the writer lock once it
    /// holds it with no resize in flight, so it sees a precise table.
    ///
    /// # Panics
    ///
    /// Because completing an in-progress resize waits for grace periods,
    /// calling this while the current thread holds an [`rp_rcu`] read guard
    /// *and* a resize is in flight panics (via
    /// [`rp_rcu::GraceSync::synchronize`]'s self-deadlock check); drop the
    /// guard first.
    pub fn check_invariants(&self) -> Result<(), String> {
        let _w = self.lock_at_rest();
        // SAFETY: writer lock held.
        let table = unsafe { self.table_locked() };
        let mut reachable = 0_usize;
        for bucket in 0..table.len() {
            let mut cur = table.head_acquire(bucket);
            let mut steps = 0_usize;
            while !cur.is_null() {
                // SAFETY: reachable node under the writer lock.
                let node = unsafe { &*cur };
                let home = table.bucket_of(node.hash);
                if home == bucket {
                    reachable += 1;
                } else {
                    return Err(format!(
                        "bucket {bucket} contains a node whose home bucket is {home} \
                         while no resize is in progress"
                    ));
                }
                steps += 1;
                if steps > self.len() + 1 {
                    return Err(format!("cycle detected in bucket {bucket}"));
                }
                cur = node.next_acquire();
            }
        }
        if reachable != self.len() {
            return Err(format!(
                "{} entries reachable but len() reports {}",
                reachable,
                self.len()
            ));
        }
        Ok(())
    }
}

/// Pointer-level chain surgery. These are deliberately free of the map's
/// `Hash`/`BuildHasher` bounds (they operate on cached hashes only) so that
/// `Drop` — implemented for every `RpHashMap` — can complete an in-progress
/// unzip before freeing nodes.
impl<K, V, S> RpHashMap<K, V, S> {
    /// One splice round: at most one cross-link splice per in-progress
    /// bucket pair, one visit per pair. A pair is retired (`PAIR_DONE`,
    /// `remaining -= 1`) in the round that finds it without cross-links —
    /// which is the round that cut its last one: both chains are re-checked
    /// right after the cut, while they are still in L1, so no later round
    /// walks them again only to learn there is nothing left. Retiring early
    /// is safe because writers never create a cross-link (inserts go to the
    /// home bucket's head, replacements take the place of a node with the
    /// same hash, unlinks only remove) and never read `turn`.
    ///
    /// Returns the number of splices performed, for the caller to add to
    /// `stats.unzip_splices` once.
    ///
    /// # Safety
    ///
    /// The caller must hold the writer lock (so all reachable nodes are
    /// stable), and a grace period must have elapsed since the previous
    /// round's splices (so no reader still traverses pre-splice links).
    pub(crate) unsafe fn splice_round(table: &BucketArray<K, V>, op: &mut UnzipOp<K, V>) -> u64 {
        // SAFETY (this fn body): forwarded caller contract — the writer lock
        // is held, so every node `find_cross_link` returns stays reachable
        // and alive while it is used here.
        unsafe {
            let new_mask = op.new_mask;
            let cross_link = |c| Self::find_cross_link(table, c, new_mask);
            // Cutting a cross-link whose foreign run is reachable from its
            // home chain only through the link being cut would orphan the
            // run; the other chain's cross-link is the zipper-earlier one.
            let cuttable = |c| cross_link(c).filter(|x| Self::splice_is_safe(table, x));
            let mut splices = 0;
            for o in 0..op.old_buckets {
                let ahead = o + HINT_AHEAD;
                if op.turn.get(ahead).is_some_and(|&t| t != PAIR_DONE) {
                    hint_head(table, ahead);
                    hint_head(table, ahead + op.old_buckets);
                }
                if op.turn[o] == PAIR_DONE {
                    continue;
                }
                let first = op.turn[o];
                let second = o + op.old_buckets + o - first; // the pair's other bucket
                let cut = cuttable(first).or_else(|| cuttable(second));
                if let Some(cross) = &cut {
                    match cross.cut {
                        CutPoint::Head(bucket) => table.publish_head(bucket, cross.after_foreign),
                        CutPoint::After(run_end) => (*run_end)
                            .next
                            .store(cross.after_foreign, Ordering::Release),
                    }
                    splices += 1;
                    // The next splice for this pair belongs to the chain the
                    // foreign run we just removed is headed for.
                    op.turn[o] = cross.foreign_bucket;
                }
                if cross_link(first).is_none() && cross_link(second).is_none() {
                    op.turn[o] = PAIR_DONE;
                    op.remaining -= 1;
                } else {
                    // At least one of the two chains always has a safely
                    // spliceable cross-link (see `splice_is_safe`); a round
                    // that finds cross-links but cannot cut any would stall
                    // the resize.
                    debug_assert!(cut.is_some(), "cross-links present but no safe splice");
                }
            }
            splices
        }
    }

    /// Finds the first cross-link in the chain of new bucket `c`: the
    /// earliest maximal run of nodes that do not belong to `c`.
    ///
    /// # Safety
    ///
    /// The caller must hold the writer lock.
    unsafe fn find_cross_link(
        table: &BucketArray<K, V>,
        c: usize,
        new_mask: usize,
    ) -> Option<CrossLink<K, V>> {
        // SAFETY (this fn body): nodes reachable from the published table
        // cannot be freed while the writer lock is held (retiring happens
        // under it, and freeing additionally waits for a grace period).
        unsafe {
            let mut cut = CutPoint::Head(c);
            let mut cur = table.head_acquire(c);
            // Skip the leading run of nodes that belong to `c` (the head can
            // itself be foreign if a removal promoted a foreign node).
            while !cur.is_null() && ((*cur).hash as usize) & new_mask == c {
                cut = CutPoint::After(cur);
                cur = (*cur).next_acquire();
            }
            if cur.is_null() {
                return None;
            }
            let foreign_head = cur;
            let foreign_bucket = ((*cur).hash as usize) & new_mask;
            let mut tail = cur;
            loop {
                let next = (*tail).next_acquire();
                if next.is_null() || ((*next).hash as usize) & new_mask != foreign_bucket {
                    break;
                }
                tail = next;
            }
            Some(CrossLink {
                cut,
                foreign_head,
                foreign_bucket,
                after_foreign: (*tail).next_acquire(),
            })
        }
    }

    /// Returns `true` if cutting `cross` cannot orphan its foreign run: the
    /// run's home chain must reach it without passing through the link being
    /// cut.
    ///
    /// Head cuts are always safe (a chain traversal never passes through
    /// another bucket's head *slot*). For a node cut, walk the foreign
    /// bucket's chain: reaching `foreign_head` first proves an independent
    /// path; reaching the cut node first means the only path goes through
    /// the link we want to remove.
    ///
    /// # Safety
    ///
    /// The caller must hold the writer lock.
    unsafe fn splice_is_safe(table: &BucketArray<K, V>, cross: &CrossLink<K, V>) -> bool {
        let run_end = match cross.cut {
            CutPoint::Head(_) => return true,
            CutPoint::After(node) => node,
        };
        let mut cur = table.head_acquire(cross.foreign_bucket);
        while !cur.is_null() {
            if cur == cross.foreign_head {
                return true;
            }
            if cur == run_end {
                return false;
            }
            // SAFETY: reachable node under the writer lock (caller
            // contract).
            cur = unsafe { &*cur }.next_acquire();
        }
        debug_assert!(false, "foreign run unreachable from its home chain");
        false
    }

    /// Completes the chain surgery of an in-progress unzip without waiting
    /// for any grace period. Only sound when no readers can exist — used by
    /// `Drop`, which has `&mut self`.
    pub(crate) fn complete_resize_for_drop(
        table: &BucketArray<K, V>,
        op: &mut ResizeOp<K, V>,
        stats: &mut AtomicMapStats,
    ) {
        let ResizeOp::Unzip(u) = op else {
            return; // a zip leaves single-path chains; nothing to do
        };
        drop(u.old_table.take());
        // Each round splices at least one cross-link per unfinished pair and
        // splices strictly reduce the (finite) cross-link count, so this
        // terminates; a round that makes no progress would mean corrupted
        // chains, and freeing from them would be worse than leaking.
        while u.remaining > 0 {
            // SAFETY: exclusive access (no readers, no writers) is strictly
            // stronger than the writer-lock + grace-period contract.
            let splices = unsafe { Self::splice_round(table, u) };
            *stats.unzip_splices.get_mut() += splices;
            if splices == 0 && u.remaining > 0 {
                debug_assert!(false, "unzip stalled during drop");
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ResizeStep;
    use crate::{FnvBuildHasher, ResizePolicy, RpHashMap};

    type Map = RpHashMap<u64, u64, FnvBuildHasher>;

    fn filled(buckets: usize, n: u64) -> Map {
        let map = RpHashMap::with_buckets_and_hasher(buckets, FnvBuildHasher);
        for i in 0..n {
            map.insert(i, i * 2);
        }
        map
    }

    fn assert_all_present(map: &Map, n: u64) {
        let guard = map.pin();
        for i in 0..n {
            assert_eq!(map.get(&i, &guard), Some(&(i * 2)), "missing key {i}");
        }
    }

    #[test]
    fn expand_preserves_all_entries() {
        let map = filled(8, 500);
        map.expand();
        assert_eq!(map.num_buckets(), 16);
        assert_all_present(&map, 500);
        map.check_invariants().unwrap();
        assert_eq!(map.stats().expands, 1);
        assert!(map.stats().unzip_splices > 0);
    }

    #[test]
    fn shrink_preserves_all_entries() {
        let map = filled(16, 500);
        map.shrink();
        assert_eq!(map.num_buckets(), 8);
        assert_all_present(&map, 500);
        map.check_invariants().unwrap();
        assert_eq!(map.stats().shrinks, 1);
    }

    #[test]
    fn expand_then_shrink_round_trips() {
        let map = filled(8, 300);
        map.expand();
        map.expand();
        assert_eq!(map.num_buckets(), 32);
        map.shrink();
        map.shrink();
        assert_eq!(map.num_buckets(), 8);
        assert_all_present(&map, 300);
        map.check_invariants().unwrap();
    }

    #[test]
    fn resize_to_reaches_target_in_one_call() {
        let map = filled(8, 200);
        map.resize_to(128);
        assert_eq!(map.num_buckets(), 128);
        assert_all_present(&map, 200);
        map.resize_to(4);
        assert_eq!(map.num_buckets(), 4);
        assert_all_present(&map, 200);
        map.check_invariants().unwrap();
        // 8 -> 128 is four doublings; 128 -> 4 is five halvings.
        let stats = map.stats();
        assert_eq!(stats.expands, 4);
        assert_eq!(stats.shrinks, 5);
    }

    #[test]
    fn resize_respects_policy_bounds() {
        let map: Map = RpHashMap::with_buckets_hasher_and_policy(
            16,
            FnvBuildHasher,
            ResizePolicy {
                min_buckets: 8,
                max_buckets: 32,
                ..ResizePolicy::default()
            },
        );
        for i in 0..100 {
            map.insert(i, i * 2);
        }
        map.resize_to(1);
        assert_eq!(map.num_buckets(), 8);
        map.resize_to(1 << 20);
        assert_eq!(map.num_buckets(), 32);
        assert_all_present(&map, 100);
    }

    #[test]
    fn expand_on_empty_and_tiny_tables() {
        let map: Map = RpHashMap::with_buckets_and_hasher(1, FnvBuildHasher);
        map.expand();
        assert_eq!(map.num_buckets(), 2);
        map.shrink();
        assert_eq!(map.num_buckets(), 1);
        // Shrinking a one-bucket table is a no-op.
        map.shrink();
        assert_eq!(map.num_buckets(), 1);
        map.insert(1, 2);
        map.expand();
        assert_eq!(map.get_cloned(&1), Some(2));
        map.check_invariants().unwrap();
    }

    #[test]
    fn single_bucket_chain_unzips_correctly() {
        // Everything starts in one bucket; expanding repeatedly must fan the
        // chain out without losing or duplicating entries.
        let map = filled(1, 64);
        for _ in 0..4 {
            map.expand();
        }
        assert_eq!(map.num_buckets(), 16);
        assert_all_present(&map, 64);
        map.check_invariants().unwrap();
    }

    #[test]
    fn updates_after_resize_use_precise_buckets() {
        let map = filled(4, 100);
        map.expand();
        // Mutations after the resize must still work against the new table.
        for i in 0..50 {
            assert!(map.remove(&i));
        }
        for i in 100..120 {
            assert!(map.insert(i, i * 2));
        }
        assert_eq!(map.len(), 70);
        let guard = map.pin();
        for i in 50..120 {
            assert_eq!(map.get(&i, &guard), Some(&(i * 2)));
        }
        map.check_invariants().unwrap();
    }

    #[test]
    fn grace_periods_accounted_per_resize() {
        let map = filled(4, 64);
        let before = map.stats().resize_grace_periods;
        map.shrink();
        let after_shrink = map.stats().resize_grace_periods;
        assert_eq!(
            after_shrink - before,
            1,
            "shrink must wait exactly one grace period"
        );
        map.expand();
        let after_expand = map.stats().resize_grace_periods;
        assert!(
            after_expand - after_shrink >= 2,
            "expand waits one grace period to publish plus one per unzip round"
        );
    }

    #[test]
    fn check_invariants_detects_length_mismatch() {
        let map = filled(4, 10);
        assert!(map.check_invariants().is_ok());
    }

    // ---- incremental state-machine tests ----

    #[test]
    fn maintain_catches_up_resizes_postponed_by_qsbr_writers() {
        // On a dedicated thread so the QSBR handle's thread-local online
        // state cannot leak into other tests.
        std::thread::spawn(|| {
            let map: Map = RpHashMap::with_buckets_hasher_and_policy(
                4,
                FnvBuildHasher,
                ResizePolicy {
                    auto_expand: true,
                    max_load_factor: 1.0,
                    ..ResizePolicy::default()
                },
            );
            let mut handle = crate::QsbrReadHandle::register();
            for i in 0..64 {
                map.insert(i, i * 2);
            }
            assert_eq!(
                map.num_buckets(),
                4,
                "auto-expansion must be postponed while the writer is QSBR-online"
            );
            assert!(
                !map.maintain(),
                "maintain is a no-op while the thread is still an online QSBR reader"
            );
            handle.offline();
            assert!(map.maintain(), "postponed expansion work exists");
            assert!(
                map.num_buckets() >= 64,
                "maintain must drive the table inside its policy bounds, got {}",
                map.num_buckets()
            );
            assert!(!map.maintain(), "second call has nothing to do");
            handle.online();
            for i in 0..64 {
                assert_eq!(map.get(&i, &handle), Some(&(i * 2)));
            }
            handle.offline();
            drop(handle);
            map.check_invariants().unwrap();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn maintain_does_not_block_the_qsbr_writers_it_waits_for() {
        // Two event-loop workers: one inserts in batches, QSBR-online until
        // each batch ends; the other runs `maintain` from its offline
        // window. The grace periods `maintain` waits for end only when the
        // inserting worker finishes its batch, so `maintain` must not hold
        // the writer lock that worker needs while it waits.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let map: Map = RpHashMap::with_buckets_hasher_and_policy(
                4,
                FnvBuildHasher,
                ResizePolicy {
                    auto_expand: true,
                    max_load_factor: 1.0,
                    ..ResizePolicy::default()
                },
            );
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let mut handle = crate::QsbrReadHandle::register();
                    let mut key = 0;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..16 {
                            map.insert(key, key);
                            key += 1;
                        }
                        handle.quiescent_state();
                        // The writer lock is not fair: leave the maintainer
                        // a window to take it between batches.
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    handle.offline();
                });
                let mut resizes = 0;
                while resizes < 6 {
                    resizes += usize::from(map.maintain());
                }
                stop.store(true, Ordering::Relaxed);
            });
            map.check_invariants().unwrap();
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("maintain deadlocked against a QSBR-online writer");
    }

    #[test]
    fn incremental_expand_steps_through_the_machine() {
        let map = filled(4, 128);
        assert!(!map.resize_in_progress());
        assert!(map.begin_expand());
        assert!(map.resize_in_progress());
        // The new table is published immediately; lookups work throughout.
        assert_eq!(map.num_buckets(), 8);
        assert!(!map.begin_expand(), "only one resize at a time");
        assert!(!map.begin_shrink(), "only one resize at a time");

        let mut steps = Vec::new();
        loop {
            let step = map.advance_resize();
            if step == ResizeStep::Finished {
                break;
            }
            assert_all_present(&map, 128);
            steps.push(step);
            assert!(steps.len() < 1000, "resize failed to converge: {steps:?}");
        }
        assert!(!map.resize_in_progress());
        assert_eq!(map.advance_resize(), ResizeStep::Idle);
        assert_eq!(steps[0], ResizeStep::Grace, "publish grace comes first");
        assert!(steps.contains(&ResizeStep::Splice));
        assert_all_present(&map, 128);
        map.check_invariants().unwrap();
        assert_eq!(map.stats().expands, 1);
    }

    #[test]
    fn incremental_shrink_steps_through_the_machine() {
        let map = filled(16, 64);
        assert!(map.begin_shrink());
        assert_eq!(map.num_buckets(), 8);
        assert_eq!(map.advance_resize(), ResizeStep::Grace);
        assert_eq!(map.advance_resize(), ResizeStep::Finished);
        assert_eq!(map.advance_resize(), ResizeStep::Idle);
        assert_all_present(&map, 64);
        map.check_invariants().unwrap();
        assert_eq!(map.stats().shrinks, 1);
        assert_eq!(map.stats().resize_grace_periods, 1);
    }

    #[test]
    fn an_expand_retires_every_pair_in_the_round_that_cuts_its_last_link() {
        // A shrink leaves every chain as one low run followed by one high
        // run: one cross-link per pair, so one round cuts them all — and
        // nothing walks the chains again after it but the grace period.
        let map = filled(64, 640);
        map.shrink();
        let before = map.stats();
        assert!(map.begin_expand());
        assert_eq!(map.advance_resize(), ResizeStep::Grace);
        assert_eq!(map.advance_resize(), ResizeStep::Splice);
        {
            let _w = map.writer_lock();
            // SAFETY: writer lock held.
            match unsafe { map.resize_op_locked() } {
                Some(super::ResizeOp::Unzip(op)) => assert_eq!(op.remaining, 0),
                _ => panic!("the expand is still in flight"),
            }
        }
        assert_eq!(map.advance_resize(), ResizeStep::Grace);
        assert_eq!(map.advance_resize(), ResizeStep::Finished);
        let after = map.stats();
        assert_eq!(after.unzip_rounds - before.unzip_rounds, 1);
        assert_eq!(after.unzip_splices - before.unzip_splices, 32);
        assert_all_present(&map, 640);
        map.check_invariants().unwrap();
    }

    #[test]
    fn unzips_cut_what_they_always_cut() {
        // Counts measured at the commit before `begin` was fused into one
        // walk and pairs were retired early: the same heads and turns are
        // picked, and the same links cut in the same rounds.
        let map = filled(1, 64);
        for _ in 0..4 {
            map.expand();
        }
        let stats = map.stats();
        assert_eq!((stats.unzip_splices, stats.unzip_rounds), (130, 70));
        let map = filled(8, 500);
        map.expand();
        let stats = map.stats();
        assert_eq!((stats.unzip_splices, stats.unzip_rounds), (255, 40));
    }

    #[test]
    fn begin_respects_policy_bounds() {
        let map: Map = RpHashMap::with_buckets_hasher_and_policy(
            8,
            FnvBuildHasher,
            ResizePolicy {
                min_buckets: 8,
                max_buckets: 8,
                ..ResizePolicy::default()
            },
        );
        assert!(!map.begin_expand());
        assert!(!map.begin_shrink());
        assert!(!map.resize_in_progress());
    }

    #[test]
    fn writers_mutate_between_resize_steps() {
        // The heart of the maintained path: inserts and removes interleave
        // with every step of an in-progress unzip, including removes of
        // nodes that are still reachable from both buckets of their pair.
        let map = filled(2, 200);
        assert!(map.begin_expand());
        let mut inserted = 200_u64;
        let mut removed = 0_u64;
        loop {
            // Remove a few existing keys and add a few new ones per step.
            for _ in 0..3 {
                if removed < inserted {
                    assert!(map.remove(&removed), "key {removed} missing");
                    removed += 1;
                }
            }
            for _ in 0..2 {
                assert!(map.insert(inserted, inserted * 2));
                inserted += 1;
            }
            if map.advance_resize() == ResizeStep::Finished {
                break;
            }
        }
        assert_eq!(map.len() as u64, inserted - removed);
        let guard = map.pin();
        for i in removed..inserted {
            assert_eq!(map.get(&i, &guard), Some(&(i * 2)), "missing key {i}");
        }
        drop(guard);
        map.check_invariants().unwrap();
        map.flush_retired();
    }

    #[test]
    fn removals_mid_unzip_fix_both_sibling_chains() {
        // Stress the dual-path fixup: drain *every* key while an unzip is
        // paused between steps, then finish the resize.
        for keys in [16_u64, 33, 64] {
            let map = filled(1, keys);
            assert!(map.begin_expand());
            assert_eq!(map.advance_resize(), ResizeStep::Grace);
            // Mid-unzip: every node still sits in one shared chain.
            for i in 0..keys {
                assert!(map.remove(&i), "key {i} missing mid-unzip");
            }
            assert!(map.is_empty());
            while map.resize_in_progress() {
                map.advance_resize();
            }
            map.check_invariants().unwrap();
            map.flush_retired();
        }
    }

    #[test]
    fn replacements_mid_unzip_keep_both_chains_consistent() {
        let map = filled(1, 40);
        assert!(map.begin_expand());
        assert_eq!(map.advance_resize(), ResizeStep::Grace);
        for i in 0..40 {
            assert!(!map.insert(i, i * 10), "key {i} should be replaced");
        }
        while map.resize_in_progress() {
            map.advance_resize();
        }
        let guard = map.pin();
        for i in 0..40 {
            assert_eq!(map.get(&i, &guard), Some(&(i * 10)));
        }
        drop(guard);
        map.check_invariants().unwrap();
        map.flush_retired();
    }

    #[test]
    fn retain_mid_unzip_visits_each_entry_once() {
        let map = filled(2, 100);
        assert!(map.begin_expand());
        assert_eq!(map.advance_resize(), ResizeStep::Grace);
        let mut calls = 0_u64;
        map.retain(|_, _| {
            calls += 1;
            false
        });
        assert_eq!(calls, 100, "retain must visit shared nodes exactly once");
        assert!(map.is_empty());
        while map.resize_in_progress() {
            map.advance_resize();
        }
        map.check_invariants().unwrap();
        map.flush_retired();
    }

    #[test]
    fn drop_mid_unzip_frees_every_node_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct CountsDrop(Arc<AtomicUsize>);
        impl Drop for CountsDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let drops = Arc::new(AtomicUsize::new(0));
        {
            let map: RpHashMap<u64, CountsDrop, FnvBuildHasher> =
                RpHashMap::with_buckets_and_hasher(2, FnvBuildHasher);
            for i in 0..50 {
                map.insert(i, CountsDrop(Arc::clone(&drops)));
            }
            assert!(map.begin_expand());
            assert_eq!(map.advance_resize(), ResizeStep::Grace);
            // Drop with the unzip mid-flight: shared chains must be split
            // before the node walk frees them.
        }
        assert_eq!(drops.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn manual_resize_completes_inflight_incremental_op() {
        let map = filled(4, 64);
        assert!(map.begin_expand());
        // `resize_to` must first finish the in-flight expansion (4 -> 8),
        // then carry on to the requested size.
        map.resize_to(32);
        assert!(!map.resize_in_progress());
        assert_eq!(map.num_buckets(), 32);
        assert_all_present(&map, 64);
        map.check_invariants().unwrap();
    }

    #[test]
    fn inline_resizes_racing_another_resizer_are_not_lost() {
        use std::sync::atomic::{AtomicBool, Ordering};

        // A second thread halves the table through the incremental API as
        // often as it can, for as long as `inline` runs; returns how many
        // shrinks it began.
        fn raced(map: &Map, inline: impl FnOnce()) -> u64 {
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let racer = scope.spawn(|| {
                    let mut shrinks = 0;
                    while !stop.load(Ordering::Relaxed) {
                        shrinks += u64::from(map.begin_shrink());
                        while map.advance_resize() != ResizeStep::Idle {}
                    }
                    shrinks
                });
                inline();
                stop.store(true, Ordering::Relaxed);
                racer.join().unwrap()
            })
        }

        // An `expand()` that finds the racer's shrink in flight must finish
        // it and still begin its own doubling: the bucket count ends where
        // the two tallies say.
        const EXPANDS: u64 = 24;
        let map = filled(1 << 8, 128);
        let shrinks = raced(&map, || {
            for _ in 0..EXPANDS {
                // Keeps the table small whatever the racer's pace.
                while map.num_buckets() > 1 << 10 {
                    std::thread::yield_now();
                }
                map.expand();
            }
        });
        assert!(shrinks > 0, "the racer never got a shrink in");
        let stats = map.stats();
        assert_eq!((stats.expands, stats.shrinks), (EXPANDS, shrinks));
        assert_eq!(
            u64::from(map.num_buckets().trailing_zeros()),
            8 + EXPANDS - shrinks
        );

        // A `resize_to` outlasts the shrinks (terminating is the test) and,
        // once the racer is gone, leaves the table at its target.
        raced(&map, || map.resize_to(1 << 8));
        map.resize_to(1 << 8);
        assert_eq!(map.num_buckets(), 1 << 8);
        assert_all_present(&map, 128);
        map.check_invariants().unwrap();
    }

    #[test]
    fn resize_to_stops_at_a_bound_it_cannot_reach() {
        // Bounds that are not powers of two: the clamped target rounds up
        // past `max_buckets`, so the last doubling is refused — and a
        // refused `begin` must end the driver's loop, not spin it.
        let map: Map = RpHashMap::with_buckets_hasher_and_policy(
            16,
            FnvBuildHasher,
            ResizePolicy {
                min_buckets: 6,
                max_buckets: 48,
                ..ResizePolicy::default()
            },
        );
        for i in 0..100 {
            map.insert(i, i * 2);
        }
        map.resize_to(1 << 20);
        assert_eq!(map.num_buckets(), 32);
        map.expand();
        assert_eq!(map.num_buckets(), 32, "expand() at the bound is a no-op");
        map.resize_to(1);
        assert_eq!(map.num_buckets(), 8);
        assert_all_present(&map, 100);
        map.check_invariants().unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NoGraceWait")]
    fn a_grace_wait_under_the_writer_lock_is_caught() {
        let map = filled(4, 8);
        let _w = map.writer_lock();
        map.flush_retired();
    }

    #[test]
    fn concurrent_advancers_and_writers_converge() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let map = Arc::new(filled(2, 256));
        assert!(map.begin_expand());
        let stop = Arc::new(AtomicBool::new(false));

        // A reader thread keeps grace periods meaningful.
        let reader = {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let guard = map.pin();
                    let mut n = 0;
                    for _ in map.iter(&guard) {
                        n += 1;
                    }
                    assert!(n >= 1);
                }
            })
        };
        // Two advancers race to drive the same resize.
        let advancers: Vec<_> = (0..2)
            .map(|_| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    while map.resize_in_progress() {
                        map.advance_resize();
                    }
                })
            })
            .collect();
        // A writer mutates throughout.
        for i in 256..512_u64 {
            map.insert(i, i * 2);
            map.remove(&(i - 256));
        }
        for a in advancers {
            a.join().unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        assert_eq!(map.len(), 256);
        map.check_invariants().unwrap();
        assert_eq!(map.stats().expands, 1);
    }
}
