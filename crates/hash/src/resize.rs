//! The paper's resize algorithms: zip (shrink) and unzip (expand), split
//! into an **incremental state machine**.
//!
//! Both algorithms preserve the reader-visible invariant at every instant:
//! *every bucket reachable from the published table contains every element
//! that hashes to it* (it may temporarily contain extra elements — an
//! "imprecise" bucket — which lookups filter out by key comparison).
//!
//! # Ordered chains
//!
//! Every chain is sorted by `hash.reverse_bits()`. A bucket is the hash's
//! low bits and a split uses the next bit up, so in every chain, at every
//! table size, the nodes that stay in the low bucket of an expand come
//! before the nodes that move to the high one; a zip (low chain, then high
//! chain) keeps the order. Unzipping a chain is therefore one cut: end its
//! low prefix.
//!
//! # The state machine
//!
//! A resize is a first-class *operation object* ([`ResizeOp`], stored
//! inside the map) that any thread can push forward one bounded
//! [`ResizeStep`] at a time:
//!
//! ```text
//! expand:  begin(+publish new table) → grace → cut + finish
//! shrink:  begin(+publish new table) → grace → finish
//! ```
//!
//! * **begin** allocates and links the new bucket array and publishes it in
//!   one writer-lock critical section (linking and publishing cannot be
//!   separated: the links are computed against the chains as they are at
//!   that instant). It is one pass: an expand walks each old chain's low
//!   prefix, points each new bucket at its side's first node and records
//!   the pairs that hold nodes on both sides, with the last low node each
//!   walk ended on; a shrink visits each pair of old heads once.
//! * **grace** steps wait for readers with the writer lock *released*, and
//!   only on the explicit path (an automatic resize waits for nothing,
//!   below). It is a rule, not an optimisation: a QSBR-online thread that
//!   writes to the map announces its quiescent state only after its write,
//!   so whoever waited for it while holding the lock that write needs would
//!   wait forever.
//! * **finish** takes the writer lock once and waits for nothing. An expand
//!   first ends each recorded pair's low chain where its high run begins;
//!   no second grace period is owed for that cut (DESIGN.md, *Expand =
//!   unzip*). The cut stores to the last low node `begin` remembered, and
//!   walks a low run again only for the pairs a writer stored to since.
//!
//! [`RpHashMap::expand`], [`RpHashMap::shrink`] and [`RpHashMap::resize_to`]
//! go through one driver, [`RpHashMap::drive_resizes`]: finish whatever
//! resize is in flight, begin the next one asked for, step it to
//! [`ResizeStep::Finished`] through [`RpHashMap::advance_resize`], paying its
//! grace period with nothing held. Automatic resizes have one driver too,
//! the writers, and none of them waits ([`RpHashMap::step_to_policy_locked`]):
//! the write that takes the table over a load-factor bound begins the resize
//! and queues a grace marker on the reclaim thread; the first write to find
//! the marker set finishes it. The marker is queued after the publish, so
//! the pass that sets it waited out a grace period that began after it.
//!
//! # Writer mutations between steps
//!
//! Because the writer lock is released between steps, insertions and
//! removals interleave with an in-progress unzip. Until the cut, a pair's
//! low chain runs on into its high chain, so the first high node it reaches
//! has two predecessors; the one unlink, [`LockedTable::swap_out`],
//! repoints the low chain's link too. Writers never give a pair a second
//! link between its chains, so the pairs `begin` recorded are all the cut
//! has to visit. Every store a writer makes to a chain goes through
//! [`LockedTable::link_after`] or the unlink, and both forget the pair's
//! remembered last low node when the chain is a low one: the node may have
//! left the chain, or stopped being its last low node.

use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rp_rcu::GraceSync;

use crate::map::{RpHashMap, WriterGuard};
use crate::table::{BucketArray, LockedTable, Remembered};

/// How many buckets ahead of itself a resize loop (or an iterator) hints a
/// head node: far enough for the miss to land before the loop gets there,
/// near enough for the line to still be in cache when it does.
pub(crate) const HINT_AHEAD: usize = 16;

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
    /// The resize completed under the writer lock, without waiting: an
    /// expand's chains were cut apart, and the bookkeeping was torn down.
    Finished,
}

/// The resize [`RpHashMap::drive_resizes`] is asked to begin next.
enum Begin {
    Expand,
    Shrink,
}

/// An in-progress incremental resize (guarded by the map's writer lock).
pub(crate) struct ResizeOp<K, V> {
    /// Unique id (per map), so concurrent advancers can tell which wait
    /// they resolved.
    id: u64,
    /// The superseded bucket array, until the grace period after its
    /// replacement has elapsed (its chain nodes live on, shared with the
    /// new table). `Some` is the op's one pending grace period.
    old_table: Option<Box<BucketArray<K, V>>>,
    /// An expand's pairs; `None` for a shrink.
    pub(crate) unzip: Option<Unzip<K, V>>,
    /// An automatic op's grace marker: set by the reclaim thread once a
    /// grace period has elapsed since the publish. `None` for an explicit
    /// op, whose driver waits for its grace period itself.
    marker: Option<Arc<AtomicBool>>,
}

impl<K, V> ResizeOp<K, V> {
    /// The op's id while it waits on its grace period.
    fn grace_pending(&self) -> Option<u64> {
        self.old_table.is_some().then_some(self.id)
    }

    /// `true` once an automatic op's grace marker is set: the post-grace
    /// steps may run, and wait for nothing.
    fn marked(&self) -> bool {
        self.marker
            .as_ref()
            .is_some_and(|marker| marker.load(Ordering::Acquire))
    }
}

/// An expand's pairs: pair `o` is new buckets `o` (low) and
/// `o + old_buckets` (high).
pub(crate) struct Unzip<K, V> {
    /// Bucket count before the expansion.
    pub(crate) old_buckets: usize,
    /// One bit per pair whose low chain ran on into high nodes at `begin`:
    /// the pairs the cut visits, and the only ones whose chains share a
    /// node.
    to_cut: Vec<u64>,
    /// Per word of `to_cut`, how many pairs the words before it record.
    ranks: Vec<usize>,
    /// Per recorded pair, in `to_cut`'s bit order, its last low node as
    /// `begin` found it, until a writer stores to that low chain.
    last_low: Vec<Remembered<K, V>>,
}

impl<K, V> Unzip<K, V> {
    /// Pair `low`'s last low node, if `begin` recorded the pair.
    pub(crate) fn entry(&self, low: usize) -> Option<&Remembered<K, V>> {
        let word = *self.to_cut.get(low / 64)?;
        let bit = 1_u64 << (low % 64);
        let below = (word & (bit - 1)).count_ones() as usize;
        (word & bit != 0).then(|| &self.last_low[self.ranks[low / 64] + below])
    }

    /// Forgets bucket `bucket`'s last low node, if it is a low bucket that
    /// has one: a writer stored to its chain.
    pub(crate) fn forget(&self, bucket: usize) {
        if let Some(entry) = self.entry(bucket) {
            entry.forget();
        }
    }
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
    /// the call waits for one grace period, with the writer lock released,
    /// whatever the table's size or chain lengths. Any resize already in
    /// progress is completed first. A no-op at the policy's `max_buckets`.
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

    /// A write's automatic resize step, under `held`, the writer lock it
    /// took: finish the automatic resize in flight once its grace marker is
    /// set (an op whose marker is unset, or an explicit one, is left alone),
    /// then begin the next one the policy asks for. Never waits. A step
    /// counts as one `maint_slices_total` slice, timed into `maint_slice_ns`.
    pub(crate) fn step_to_policy_locked(&self, held: &WriterGuard<'_, K, V>) {
        let marked = match &*held.borrow() {
            None => None,
            Some(op) if op.marked() => Some(op.id),
            Some(_) => return,
        };
        let timer = rp_obs::timer();
        if let Some(id) = marked {
            // Chaos hook, before any mutation: an injected panic unwinds
            // out of this write with the op intact and its marker set, for
            // the next write to finish.
            let _ = rp_fault::point("hash.resize.step");
            self.resolve_grace_locked(held, id);
            let step = self.resize_work_step_locked(held);
            observe_resize_step(timer, step);
        }
        let begun = self
            .wanted(self.len(), self.table_locked(held).len())
            .is_some_and(|begin| self.begin_locked(held, begin));
        if begun {
            // The marker is queued behind the publish, for the reclaim
            // thread to set once it has waited out a grace period.
            let marker = Arc::new(AtomicBool::new(false));
            held.borrow_mut().as_mut().expect("just begun").marker = Some(Arc::clone(&marker));
            let sync = GraceSync::global();
            sync.defer(move || marker.store(true, Ordering::Release));
            sync.wake_reclaimer();
        }
        if marked.is_some() || begun {
            let obs = rp_obs::global();
            obs.maint.slices_total.inc();
            if let Some(ns) = rp_obs::elapsed_ns(timer) {
                obs.maint.slice_ns.record(ns);
                obs.trace.record(rp_obs::TraceKind::MaintSlice, ns);
            }
        }
    }

    /// The resize the policy asks for at `len` entries over `buckets`.
    fn wanted(&self, len: usize, buckets: usize) -> Option<Begin> {
        if self.policy().should_expand(len, buckets) {
            Some(Begin::Expand)
        } else if self.policy().should_shrink(len, buckets) {
            Some(Begin::Shrink)
        } else {
            None
        }
    }

    /// The explicit resize driver. Until `next` — shown the entry and bucket
    /// counts of the table at rest — asks for nothing, or a policy bound
    /// refuses what it asks for: begin that resize and step it to
    /// [`ResizeStep::Finished`].
    ///
    /// Every grace period is waited for inside
    /// [`RpHashMap::advance_resize`], with the writer lock **released**:
    /// the readers being waited for may themselves be writers (a QSBR-online
    /// worker in the middle of its batch), and one of them blocked on this
    /// map's writer lock would never reach its quiescent state.
    fn drive_resizes(&self, mut next: impl FnMut(usize, usize) -> Option<Begin>) {
        loop {
            let guard = self.lock_at_rest();
            let begun = next(self.len(), self.table_locked(&guard).len())
                .is_some_and(|begin| self.begin_locked(&guard, begin));
            drop(guard);
            if !begun {
                return;
            }
            self.finish_resize();
        }
    }

    /// Begins `begin` under `held`, this map's writer lock; returns `false`
    /// if a resize is in progress or a policy bound refuses it.
    fn begin_locked(&self, held: &WriterGuard<'_, K, V>, begin: Begin) -> bool {
        match begin {
            Begin::Expand => self.begin_unzip_locked(held),
            Begin::Shrink => self.begin_zip_locked(held),
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
    fn lock_at_rest(&self) -> WriterGuard<'_, K, V> {
        loop {
            let guard = self.writer_lock();
            if guard.borrow().is_none() {
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
        self.resize_active.load(Ordering::Acquire)
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
        self.begin_unzip_locked(&self.writer_lock())
    }

    /// Starts an incremental shrink: links the collapsing chains together
    /// and publishes the halved bucket array in one bounded writer-lock
    /// critical section, with **no grace-period wait**.
    ///
    /// Returns `false` (and does nothing) if a resize is already in progress
    /// or the policy's `min_buckets` bound is reached. Drive it with
    /// [`RpHashMap::advance_resize`] like an expansion.
    pub fn begin_shrink(&self) -> bool {
        self.begin_zip_locked(&self.writer_lock())
    }

    /// Advances the in-progress resize by one bounded step and reports what
    /// was done.
    ///
    /// *Grace steps* release the writer lock for the duration of the wait,
    /// so concurrent writers keep making progress — this is what keeps a
    /// resize from deadlocking against a QSBR-online writer. The *finish*
    /// step takes the writer lock for one pass over the pairs an expand
    /// recorded, and waits for nothing.
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
        // next advancer to finish, or for the map's drop.
        let _ = rp_fault::point("hash.resize.step");
        let guard = self.writer_lock();
        let pending = match &*guard.borrow() {
            None => return ResizeStep::Idle,
            Some(op) => op.grace_pending(),
        };
        match pending {
            Some(id) => {
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
                self.resolve_grace_locked(&self.writer_lock(), id);
                ResizeStep::Grace
            }
            None => {
                let timer = rp_obs::timer();
                let step = self.resize_work_step_locked(&guard);
                observe_resize_step(timer, step);
                step
            }
        }
    }

    /// `begin` for expansion, under `held`, this map's writer lock; returns
    /// `false` if a resize is in progress or the table cannot grow.
    fn begin_unzip_locked(&self, held: &WriterGuard<'_, K, V>) -> bool {
        if held.borrow().is_some() {
            return false;
        }
        // Chaos hook, inside the writer-lock critical section but before
        // any mutation: an injected panic here unwinds while holding the
        // writer lock, exercising the poisoned-lock recovery semantics
        // without corrupting the table.
        let _ = rp_fault::point("hash.resize.begin");
        let old_table = self.table_locked(held);
        let old_buckets = old_table.len();
        let new_buckets = match old_buckets.checked_mul(2) {
            Some(n) if n <= self.policy().max_buckets => n,
            _ => return false,
        };

        // Phase 1: one walk per old bucket. Old bucket `o` splits into new
        // buckets `o` and `o + old_buckets`, and its sorted chain holds the
        // low side's nodes, then the high side's: walk the low prefix and
        // point each new bucket at its side's first node. A chain with both
        // sides runs on from its last low node into the high chain, a link
        // the cut removes once no reader can be walking the old array; the
        // walk ends on that node, so it is remembered for the cut.
        let new_table: Box<BucketArray<K, V>> = BucketArray::new(new_buckets);
        let new_mask = new_buckets - 1;
        let mut to_cut = vec![0_u64; old_buckets.div_ceil(64)];
        let mut ranks = Vec::with_capacity(to_cut.len());
        // At most one entry per pair; only the entries pushed are touched.
        let mut last_low = Vec::with_capacity(old_buckets);
        for low in 0..old_buckets {
            if low % 64 == 0 {
                ranks.push(last_low.len());
            }
            old_table.hint_head(low + HINT_AHEAD);
            let (mut low_head, mut last) = (None, None);
            let mut first_high = old_table.head(low);
            while let Some(node) = first_high.take_if(|node| (node.hash as usize) & new_mask == low)
            {
                first_high = node.next();
                match low_head {
                    None => low_head = Some(node),
                    Some(_) => last = Some(node),
                }
            }
            new_table.set_head(low, low_head.as_ref());
            new_table.set_head(low + old_buckets, first_high.as_ref());
            if let (Some(last), Some(_)) = (last.as_ref().or(low_head.as_ref()), &first_high) {
                to_cut[low / 64] |= 1 << (low % 64);
                last_low.push(Remembered::new(last));
            }
        }

        // Phase 2: publish the new table. After one grace period every
        // reader starts from the new (imprecise) buckets, the old array can
        // be freed and the chains cut; that wait is the op's pending step.
        let op = ResizeOp {
            id: self.resize_ids.add(1, held),
            old_table: Some(old_table.publish(new_table)),
            unzip: Some(Unzip {
                old_buckets,
                to_cut,
                ranks,
                last_low,
            }),
            marker: None,
        };
        *held.borrow_mut() = Some(op);
        self.resize_active.store(true, Ordering::Release);
        observe_resize_begin(true);
        true
    }

    /// `begin` for shrinking, under `held`, this map's writer lock; returns
    /// `false` if a resize is in progress or the table cannot shrink.
    fn begin_zip_locked(&self, held: &WriterGuard<'_, K, V>) -> bool {
        if held.borrow().is_some() {
            return false;
        }
        let old_table = self.table_locked(held);
        let old_buckets = old_table.len();
        if old_buckets <= self.policy().min_buckets.max(1) || old_buckets == 1 {
            return false;
        }
        let new_buckets = old_buckets / 2;

        // Phase 1: one pass over the old heads. New bucket `b` collects old
        // buckets `b` and `b + new_buckets`: point it at whichever old chain
        // comes first (preferring old bucket `b`) and, where both exist,
        // append the "high" chain to the tail of the "low" one, which keeps
        // the chain sorted. That makes the low old bucket imprecise (its
        // readers see extra elements — harmless) while readers of the high
        // old bucket are untouched.
        let new_table: Box<BucketArray<K, V>> = BucketArray::new(new_buckets);
        for new_index in 0..new_buckets {
            // Only the low chain is walked; the high one is linked as is.
            old_table.hint_head(new_index + HINT_AHEAD);
            let low = old_table.head(new_index);
            let high = old_table.head(new_index + new_buckets);
            new_table.set_head(new_index, low.as_ref().or(high.as_ref()));
            let (Some(mut tail), Some(high)) = (low, high) else {
                continue;
            };
            while let Some(next) = tail.next() {
                tail = next;
            }
            tail.link(Some(&high));
        }

        // Phase 2: publish the new table; the grace period that lets the
        // old array be freed is the op's one pending step.
        let op = ResizeOp {
            id: self.resize_ids.add(1, held),
            old_table: Some(old_table.publish(new_table)),
            unzip: None,
            marker: None,
        };
        *held.borrow_mut() = Some(op);
        self.resize_active.store(true, Ordering::Release);
        observe_resize_begin(false);
        true
    }

    /// Marks op `id`'s grace period as elapsed and frees the array it
    /// superseded, if the op is still waiting on it (a concurrent advancer
    /// may have resolved it, or the op may have finished and been replaced).
    fn resolve_grace_locked(&self, held: &WriterGuard<'_, K, V>, id: u64) {
        if let Some(op) = held.borrow_mut().as_mut() {
            if op.grace_pending() == Some(id) {
                drop(op.old_table.take());
                self.stats.resize_grace_periods.add(1, held);
            }
        }
    }

    /// Finishes the resize in flight: cuts an expand's recorded pairs, then
    /// tears the op down. Must only be called when no grace period is
    /// pending.
    fn resize_work_step_locked(&self, held: &WriterGuard<'_, K, V>) -> ResizeStep {
        // Out of the lock's cell before the cut: the cut's stores go through
        // `LockedTable::link_after`, which looks in the cell for an unzip to
        // forget them in.
        let Some(op) = held.borrow_mut().take() else {
            return ResizeStep::Idle;
        };
        debug_assert!(op.grace_pending().is_none(), "grace period still pending");
        match &op.unzip {
            Some(unzip) => {
                let cuts = cut_pairs(&self.table_locked(held), unzip);
                self.stats.unzip_splices.add(cuts, held);
                self.stats.unzip_rounds.add(u64::from(cuts > 0), held);
                self.stats.expands.add(1, held);
            }
            None => {
                self.stats.shrinks.add(1, held);
            }
        }
        self.resize_active.store(false, Ordering::Release);
        ResizeStep::Finished
    }

    /// Verifies the reader-visible invariant: every entry is reachable from
    /// the bucket its hash maps to in the current table, and every chain is
    /// sorted by `hash.reverse_bits()`.
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
        let held = self.lock_at_rest();
        let table = self.table_locked(&held);
        let mut reachable = 0_usize;
        for bucket in 0..table.len() {
            let mut cur = table.head(bucket);
            let mut steps = 0_usize;
            let mut order = 0_u64;
            while let Some(node) = cur {
                let home = table.bucket_of(node.hash);
                if home == bucket {
                    reachable += 1;
                } else {
                    return Err(format!(
                        "bucket {bucket} contains a node whose home bucket is {home} \
                         while no resize is in progress"
                    ));
                }
                if node.hash.reverse_bits() < order {
                    return Err(format!(
                        "bucket {bucket}'s chain decreases in reversed hash at hash {:#x}",
                        node.hash
                    ));
                }
                order = node.hash.reverse_bits();
                steps += 1;
                if steps > self.len() + 1 {
                    return Err(format!("cycle detected in bucket {bucket}"));
                }
                cur = node.next();
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

/// The unzip's cut, under the writer lock `table` borrows, a grace period
/// after `begin` published `table`: ends each recorded pair's low chain
/// where its high run begins (at the head, if removals left a high node
/// there). A pair no writer stored to since `begin` is cut at the node
/// `begin` remembered, hinted for writing [`HINT_AHEAD`] pairs ahead: a
/// reader has usually read it, and the store would otherwise wait for that
/// copy to be invalidated. Only the others are walked again. Returns how
/// many links it cut, for `stats.unzip_splices`.
fn cut_pairs<K, V>(table: &LockedTable<'_, K, V>, unzip: &Unzip<K, V>) -> u64 {
    let mut cuts = 0;
    let mut entries = unzip.last_low.iter();
    for (at, &word) in unzip.to_cut.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let low = at * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Some(ahead) = entries.as_slice().get(HINT_AHEAD) {
                ahead.hint();
            }
            let entry = entries.next().expect("one entry per recorded pair");
            let (last_low, first_high) = table.remembered_high_run(low, entry);
            if first_high.is_some() {
                table.link_after(low, last_low.as_ref(), None);
                cuts += 1;
            }
        }
    }
    cuts
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
        assert_eq!(
            after_expand - after_shrink,
            1,
            "expand must wait exactly one grace period"
        );
    }

    #[test]
    fn an_expand_waits_one_grace_period_whatever_its_chains() {
        for per_bucket in [1, 2, 8] {
            let map = filled(1024, 1024 * per_bucket);
            let before = map.stats();
            map.expand();
            let after = map.stats();
            let waits = after.resize_grace_periods - before.resize_grace_periods;
            assert_eq!(waits, 1, "{per_bucket} entries per bucket");
            assert_eq!(after.unzip_rounds - before.unzip_rounds, 1);
            assert_all_present(&map, 1024 * per_bucket);
            map.check_invariants().unwrap();
        }
    }

    #[test]
    fn check_invariants_detects_length_mismatch() {
        let map = filled(4, 10);
        assert!(map.check_invariants().is_ok());
    }

    // ---- incremental state-machine tests ----

    /// A map that doubles past load factor 1 on its own, from 4 buckets.
    fn auto_expanding() -> Map {
        let policy = ResizePolicy {
            auto_expand: true,
            max_load_factor: 1.0,
            ..ResizePolicy::default()
        };
        RpHashMap::with_buckets_hasher_and_policy(4, FnvBuildHasher, policy)
    }

    #[test]
    fn writers_that_read_resize_without_waiting() {
        // A QSBR-online writer, and one that holds an EBR guard: no grace
        // period ends while either writes, and neither may wait for one.
        // Threads of their own keep the QSBR online state out of other tests.
        for qsbr in [true, false] {
            std::thread::spawn(move || {
                let (map, waits) = (auto_expanding(), rp_rcu::thread_synchronize_count());
                let mut handle = qsbr.then(crate::QsbrReadHandle::register);
                let guard = (!qsbr).then(rp_rcu::pin);
                for i in 0..64 {
                    map.insert(i, i * 2);
                }
                // The fifth insert began and published a doubling, whose
                // grace period waits for this thread.
                assert_eq!((map.num_buckets(), map.resize_in_progress()), (8, true));
                drop(guard);
                // Once the marker is set, one more write finishes the
                // resize in flight and begins the next one.
                let marked = || {
                    map.writer_lock()
                        .borrow()
                        .as_ref()
                        .is_some_and(super::ResizeOp::marked)
                };
                let mut rounds = 0;
                while map.resize_in_progress() {
                    while !marked() {
                        handle.as_mut().map(crate::QsbrReadHandle::quiescent_state);
                        std::thread::yield_now();
                    }
                    assert!(map.insert(64 + rounds, 0));
                    rounds += 1;
                }
                assert_eq!(rp_rcu::thread_synchronize_count(), waits, "a write waited");
                assert_eq!(
                    (rounds, map.num_buckets(), map.stats().expands),
                    (5, 128, 5)
                );
                drop(handle);
                assert_all_present(&map, 64);
                map.check_invariants().unwrap();
            })
            .join()
            .unwrap();
        }
    }

    #[test]
    fn qsbr_online_writers_race_through_begin_and_cut() {
        // Two event-loop workers, QSBR-online until each batch ends, insert
        // into one map, each beginning the resizes its inserts make due and
        // finishing those whose marker is set. A marker's grace period ends
        // only when both have ended a batch, so a writer that waited for it
        // would stop both.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let map = auto_expanding();
            std::thread::scope(|scope| {
                for worker in 0..2 {
                    let map = &map;
                    scope.spawn(move || {
                        let mut handle = crate::QsbrReadHandle::register();
                        let waits = rp_rcu::thread_synchronize_count();
                        for key in (worker..).step_by(2) {
                            map.insert(key, key);
                            if key % 32 < 2 {
                                handle.quiescent_state();
                                if map.stats().expands >= 12 {
                                    break;
                                }
                            }
                        }
                        assert_eq!(rp_rcu::thread_synchronize_count(), waits);
                    });
                }
            });
            map.check_invariants().unwrap();
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("QSBR-online writers deadlocked on a resize");
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
        assert_eq!(steps, [ResizeStep::Grace], "one grace period, then the cut");
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
    fn an_expand_cuts_every_pair_in_one_step() {
        // A shrink leaves every chain as one low run followed by one high
        // run; the step after the grace period cuts all 32 pairs and
        // finishes.
        let map = filled(64, 640);
        map.shrink();
        let before = map.stats();
        assert!(map.begin_expand());
        assert_eq!(map.advance_resize(), ResizeStep::Grace);
        assert_eq!(map.advance_resize(), ResizeStep::Finished);
        let after = map.stats();
        assert_eq!(after.unzip_rounds - before.unzip_rounds, 1);
        assert_eq!(after.unzip_splices - before.unzip_splices, 32);
        assert_eq!(after.resize_grace_periods - before.resize_grace_periods, 1);
        assert_all_present(&map, 640);
        map.check_invariants().unwrap();
    }

    #[test]
    fn unzips_cut_each_pair_with_both_sides_once() {
        // One cut per old bucket whose chain holds keys of both new
        // buckets, one round per expand that cuts anything: counted here
        // from the hashes alone.
        fn both_sides(map: &Map, keys: u64, old_buckets: usize) -> u64 {
            let mut sides = vec![[false; 2]; old_buckets];
            for key in 0..keys {
                let hash = map.hash_one(&key) as usize;
                sides[hash & (old_buckets - 1)][usize::from(hash & old_buckets != 0)] = true;
            }
            sides.iter().filter(|[low, high]| *low && *high).count() as u64
        }
        for (buckets, keys, expands) in [(1, 64, 4), (8, 500, 1), (1024, 4096, 2)] {
            let map = filled(buckets, keys);
            let (mut cuts, mut rounds) = (0, 0);
            for doubling in 0..expands {
                let pairs = both_sides(&map, keys, buckets << doubling);
                cuts += pairs;
                rounds += u64::from(pairs > 0);
                map.expand();
            }
            let stats = map.stats();
            assert_eq!((stats.unzip_splices, stats.unzip_rounds), (cuts, rounds));
            assert_all_present(&map, keys);
        }
    }

    #[test]
    fn writers_between_begin_and_the_cut_keep_both_chains_whole() {
        // Pair 0 of a 2 -> 4 expand, keyed by hash: low bucket 0 holds
        // hashes 4 and 12, high bucket 2 holds 6 and 14. In reversed-hash
        // order the old chain is 4, 12, 6, 14.
        let map: Map = RpHashMap::with_buckets_and_hasher(2, FnvBuildHasher);
        let present = |map: &Map, keys: &[u64]| {
            let guard = map.pin();
            for &key in keys {
                let value = map.get_prehashed(key, &key, &guard);
                assert_eq!(value, Some(&(key * 10)), "key {key}");
            }
        };
        for key in [4, 12, 6, 14] {
            map.insert_prehashed(key, key, key * 10);
        }
        assert!(map.begin_expand());
        assert_eq!(map.advance_resize(), ResizeStep::Grace);
        // A high node before the pair's first high node: a new high head.
        map.insert_prehashed(2, 2, 20);
        // A low node after the last low node, linked to 6.
        map.insert_prehashed(28, 28, 280);
        present(&map, &[2, 4, 6, 12, 14, 28]);
        // 6 is the node with two predecessors: 2, and 28 in the low chain.
        // Each time one goes, its slot is freed and taken by the next
        // insert, of a low node sorted after the low chain's last: a low
        // chain still linked to the slot would lead that insert's walk to
        // the very node it is inserting.
        assert!(!map.insert_prehashed(6, 6, 60));
        map.flush_retired();
        assert!(map.insert_prehashed(60, 60, 600));
        present(&map, &[2, 4, 6, 12, 14, 28, 60]);
        assert!(map.remove_prehashed(6, &6));
        map.flush_retired();
        assert!(map.insert_prehashed(124, 124, 1240));
        present(&map, &[2, 4, 12, 14, 28, 60, 124]);
        // Every low node goes: the low head is then 14, a high node.
        for key in [4, 12, 28, 60, 124] {
            assert!(map.remove_prehashed(key, &key));
        }
        present(&map, &[2, 14]);
        let before = map.stats().unzip_splices;
        assert_eq!(map.advance_resize(), ResizeStep::Finished);
        assert_eq!(map.stats().unzip_splices - before, 1, "the head is cut");
        map.check_invariants().unwrap();
        present(&map, &[2, 14]);
        let guard = map.pin();
        for key in [4, 6, 12, 28, 60, 124] {
            assert_eq!(map.get_prehashed(key, &key, &guard), None, "key {key}");
        }
        drop(guard);
        assert_eq!(map.len(), 2);
        map.flush_retired();
    }

    /// Hashes a `u64` key to itself, so a test places its keys by hand.
    #[derive(Default)]
    struct Identity(u64);

    impl std::hash::Hasher for Identity {
        fn finish(&self) -> u64 {
            self.0
        }

        fn write(&mut self, _: &[u8]) {
            unreachable!("only u64 keys are hashed");
        }

        fn write_u64(&mut self, key: u64) {
            self.0 = key;
        }
    }

    type ByHash = RpHashMap<u64, u64, std::hash::BuildHasherDefault<Identity>>;

    /// A 2 -> 4 expand keyed by hash, with `write` run between its grace
    /// period and its cut. In reversed-hash order pair 0's old chain is
    /// 4, 12 (low) then 6, 14 (high), and pair 1's is 1, 9, 5 then 3, 7;
    /// `begin` remembers 12 and 5. `write` changes where pair 0's low run
    /// ends, so the cut must walk that pair again and may use only pair 1's
    /// entry. Afterwards the map must hold exactly `after`'s entries.
    fn cut_after(write: impl FnOnce(&ByHash), after: &[(u64, u64)]) {
        let map = ByHash::with_buckets_and_hasher(2, Default::default());
        for key in [4, 12, 6, 14, 1, 9, 5, 3, 7] {
            map.insert(key, key * 10);
        }
        assert!(map.begin_expand());
        assert_eq!(map.advance_resize(), ResizeStep::Grace);
        write(&map);
        let before = map.stats().unzip_splices;
        assert_eq!(map.advance_resize(), ResizeStep::Finished);
        assert_eq!(map.stats().unzip_splices - before, 2, "one cut per pair");
        map.check_invariants().unwrap();
        assert_eq!(map.len(), after.len());
        for &(key, value) in after {
            assert_eq!(map.get_cloned(&key), Some(value), "key {key}");
        }
        map.flush_retired();
    }

    /// The nine entries `cut_after` starts with, less `gone`.
    fn entries_but(gone: u64) -> Vec<(u64, u64)> {
        [4, 12, 6, 14, 1, 9, 5, 3, 7]
            .into_iter()
            .filter(|&key| key != gone)
            .map(|key| (key, key * 10))
            .collect()
    }

    #[test]
    fn an_insert_after_the_last_low_node_moves_the_cut() {
        // 28 is low and sorts after 12: `12 -> 28 -> 6`.
        let mut after = entries_but(0);
        after.push((28, 280));
        cut_after(|map| assert!(map.insert(28, 280)), &after);
    }

    #[test]
    fn removing_the_last_low_node_moves_the_cut() {
        cut_after(|map| assert!(map.remove(&12)), &entries_but(12));
    }

    #[test]
    fn replacing_the_last_low_node_moves_the_cut() {
        let mut after = entries_but(12);
        after.push((12, 121));
        cut_after(
            |map| assert_eq!(map.insert_replacing(12, 121), Some(120)),
            &after,
        );
    }

    #[test]
    fn a_retain_that_drops_the_last_low_node_moves_the_cut() {
        cut_after(
            |map| assert_eq!(map.retain(|&key, _| key != 12), 1),
            &entries_but(12),
        );
    }

    #[test]
    fn renaming_the_last_low_node_away_moves_the_cut() {
        // 30 belongs to pair 0's high bucket, after 14.
        let mut after = entries_but(12);
        after.push((30, 120));
        cut_after(|map| assert!(map.rename(&12, 30)), &after);
    }

    #[test]
    fn an_iterator_over_the_old_array_outlasts_an_expand() {
        // The iterator loads the 4-bucket array before the expand begins;
        // its guard holds the cut back until it has walked every old chain
        // to its end.
        let map = filled(4, 128);
        let (begun_tx, begun_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let guard = map.pin();
            let mut iter = map.iter(&guard);
            assert!(iter.next().is_some());
            let expander = scope.spawn(|| {
                assert!(map.begin_expand());
                begun_tx.send(()).unwrap();
                while map.advance_resize() != ResizeStep::Finished {}
            });
            begun_rx.recv().unwrap();
            assert_eq!(map.num_buckets(), 8);
            assert_eq!(1 + iter.count(), 128);
            assert!(map.resize_in_progress(), "the cut waits for the guard");
            drop(guard);
            expander.join().unwrap();
        });
        assert_all_present(&map, 128);
        map.check_invariants().unwrap();
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
        // The heart of an automatic resize: inserts and removes interleave
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
            // Drop with the unzip mid-flight: a node reachable from both
            // buckets of its pair is dropped from its home bucket only.
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
        // The barrier itself: `flush_retired` takes the writer lock first.
        rp_rcu::GraceSync::global().synchronize_and_reclaim();
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
