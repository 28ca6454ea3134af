//! The resizable relativistic hash map.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::{Mutex, MutexGuard};

use rp_rcu::{GraceSync, NoGraceWait, RcuGuard};

use crate::fold::FoldBuildHasher;
use crate::iter::Iter;
use crate::node::{Locked, Node};
use crate::policy::ResizePolicy;
use crate::qsbr::ReadProtect;
use crate::resize::ResizeOp;
use crate::slab::NodeSlab;
use crate::stats::{AtomicMapStats, LockedCount, MapStats};
use crate::table::{BucketArray, LockedTable, Place, TablePtr};

/// Asks the CPU to start bringing the cache line that holds `ptr` into every
/// cache level (`PREFETCHT0`), without waiting for it. Purely a hint — no
/// architectural effect, never a fault, whatever `ptr` is — and a no-op off
/// `x86_64`. What [`RpHashMap::prefetch_prehashed`] issues, exported for
/// callers that go on to hint what a returned value points at. Writers issue
/// it too: an insert hints its bucket slot before it allocates its node, and
/// a resize hints the head node of the bucket it reaches a fixed distance
/// ahead, so those misses overlap work the writer has to do anyway.
#[inline]
pub fn prefetch_line(ptr: *const u8) {
    prefetch::<false>(ptr);
}

/// [`prefetch_line`] for a line the caller is about to store to
/// (`PREFETCHW`): the line arrives exclusive, so the store does not wait for
/// another CPU's copy to be invalidated. The cut of an expand stores to
/// nodes a reader on another CPU has usually just read; hinted for reading
/// only, each store still paid that round trip.
#[inline]
pub(crate) fn prefetch_line_for_write(ptr: *const u8) {
    prefetch::<true>(ptr);
}

#[inline(always)]
fn prefetch<const FOR_WRITE: bool>(ptr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` needs SSE, which every x86_64 target has, and
    // neither it nor `PREFETCHW` places a requirement on the address: a
    // prefetch of an unmapped, dangling or null address is dropped by the
    // hardware, not faulted. `PREFETCHW` writes nothing, and x86_64
    // processors without it execute its opcode (0F 0D /1) as a `NOP`.
    unsafe {
        if FOR_WRITE {
            std::arch::asm!(
                "prefetchw [{0}]",
                in(reg) ptr,
                options(nostack, preserves_flags, readonly)
            );
        } else {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(ptr.cast());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// The writer lock. Besides the chains it guards the resize in flight,
/// which it holds; a `RefCell`, so that resize code can step the op while it
/// holds [`Locked`] handles, which borrow the guard.
pub(crate) type WriterLock<K, V> = Mutex<RefCell<Option<ResizeOp<K, V>>>>;

/// The writer lock's guard: what every load of a [`Locked`] handle, every
/// store to a chain and every counter bump takes. QSBR-online threads take
/// this lock as writers and announce quiescence only afterwards, so no grace
/// period is ever waited for under it — [`NoGraceWait`] makes that a debug
/// assertion.
pub(crate) type WriterGuard<'a, K, V> =
    NoGraceWait<MutexGuard<'a, RefCell<Option<ResizeOp<K, V>>>>>;

/// A concurrent hash map with wait-free relativistic readers and
/// reader-transparent resizing.
///
/// * **Lookups** ([`RpHashMap::get`] and friends) run under an [`RcuGuard`]
///   and never block, never retry and never execute atomic
///   read-modify-write instructions, regardless of concurrent insertions,
///   removals or resizes. They scale linearly with reader threads.
/// * **Updates** (insert/remove/rename/resize) serialise on an internal
///   mutex and publish their changes with release stores; unlinked nodes are
///   retired into the global deferred-free queue ([`GraceSync`]) and dropped
///   only after a grace period of every read-side flavor. Nodes live in the
///   map's own slab of 2 MiB chunks ([`MapStats::slab_chunks`]), not on the
///   process heap; the map keeps its chunks until it is dropped.
/// * **Resizing** uses the paper's zip (shrink) and unzip (expand)
///   algorithms: the table stays *consistent for readers at every instant* —
///   a reader traversing a bucket always observes every element that belongs
///   to that bucket (possibly plus a few that don't, which the key
///   comparison filters out).
///
/// The map's EBR readers pin the process-wide domain
/// ([`rp_rcu::RcuDomain::global`]), so guards obtained from
/// [`RpHashMap::pin`] or [`rp_rcu::pin`] are interchangeable; retired nodes
/// go to [`GraceSync::global`], whose passes wait for QSBR readers as well.
///
/// The default hasher is [`FoldBuildHasher`]: a `u64` key is two folded
/// multiplies, under a seed each map draws afresh, so a lookup pays for its
/// memory accesses and little else, and independent lookups overlap their
/// cache misses. It is not flood-resistant the way SipHash is: a caller who
/// hashes keys an attacker chooses passes std's `RandomState` instead.
///
/// ```
/// use std::collections::hash_map::RandomState;
/// use rp_hash::RpHashMap;
///
/// let map: RpHashMap<String, u64, RandomState> =
///     RpHashMap::with_buckets_and_hasher(16, RandomState::new());
/// map.insert("from the network".to_string(), 1);
/// assert!(map.contains_key("from the network"));
/// ```
pub struct RpHashMap<K, V, S = FoldBuildHasher> {
    /// What every lookup loads, on lines no update stores to. Dropped
    /// first: it drops the live entries, whose memory `slab` holds.
    read: ReadMostly<K, V, S>,
    /// Serialises writers (updates and resizes), and holds the in-progress
    /// incremental resize, if any. Readers never touch it.
    writer: WriterLock<K, V>,
    len: LockedCount,
    policy: ResizePolicy,
    /// Lock-free mirror of "a resize op is held" for
    /// [`RpHashMap::resize_in_progress`].
    pub(crate) resize_active: AtomicBool,
    pub(crate) stats: AtomicMapStats,
    /// Where every node comes from and goes back to. Guarded by `writer`.
    slab: NodeSlab<K, V>,
}

/// The map header's reader side: the two things every lookup loads, on
/// 128-byte lines of their own (an x86_64 core prefetches lines in pairs).
/// Every update stores to `writer`, `len` and `stats`; sharing a line with
/// them would have each update take the line a lookup starts from away from
/// every reading core, whatever key it updates. Only a resize stores here.
#[repr(align(128))]
struct ReadMostly<K, V, S> {
    /// Published pointer to the current bucket array, and its length.
    table: TablePtr<K, V>,
    hasher: S,
}

// SAFETY: the map shares `&K`/`&V` with concurrent reader threads and drops
// keys/values on whichever thread runs reclamation, so `K` and `V` must be
// `Send + Sync`. The hasher is used from `&self` by any thread. The raw
// pointers — including those inside the resize op and the slab's free
// lists, which are only touched under the writer lock — are managed by the
// publication/retire protocol (DESIGN.md, *What protects a node*); the
// slab's `returned` stack is atomic.
unsafe impl<K: Send + Sync, V: Send + Sync, S: Send> Send for RpHashMap<K, V, S> {}
// SAFETY: see above.
unsafe impl<K: Send + Sync, V: Send + Sync, S: Sync> Sync for RpHashMap<K, V, S> {}

impl<K, V> RpHashMap<K, V, FoldBuildHasher> {
    /// Creates an empty map with a small default bucket count.
    pub fn new() -> Self {
        Self::with_buckets(16)
    }

    /// Creates an empty map with `buckets` buckets (rounded up to a power of
    /// two).
    pub fn with_buckets(buckets: usize) -> Self {
        Self::with_buckets_and_hasher(buckets, FoldBuildHasher::default())
    }
}

impl<K, V> Default for RpHashMap<K, V, FoldBuildHasher> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S> RpHashMap<K, V, S> {
    /// Creates an empty map with `buckets` buckets and the given hasher.
    pub fn with_buckets_and_hasher(buckets: usize, hasher: S) -> Self {
        Self::with_buckets_hasher_and_policy(buckets, hasher, ResizePolicy::default())
    }

    /// Creates an empty map with the given bucket count, hasher and resize
    /// policy.
    pub fn with_buckets_hasher_and_policy(buckets: usize, hasher: S, policy: ResizePolicy) -> Self {
        let buckets = policy.clamp_buckets(buckets.max(1));
        RpHashMap {
            read: ReadMostly {
                table: TablePtr::new(BucketArray::new(buckets)),
                hasher,
            },
            writer: WriterLock::default(),
            len: LockedCount::default(),
            policy,
            resize_active: AtomicBool::new(false),
            stats: AtomicMapStats::default(),
            slab: NodeSlab::new(),
        }
    }

    /// Enters a read-side critical section of the global RCU domain.
    ///
    /// Equivalent to [`rp_rcu::pin`]; provided here for convenience.
    pub fn pin(&self) -> RcuGuard<'static> {
        rp_rcu::pin()
    }

    /// Number of key/value pairs in the map (a racy snapshot under
    /// concurrent updates).
    pub fn len(&self) -> usize {
        self.len.get() as usize
    }

    /// Returns `true` if the map contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current number of hash buckets (a snapshot: a resize may publish
    /// another count at any time). Takes no pin: the count is stored when a
    /// table is published, so nothing is read through the table pointer.
    pub fn num_buckets(&self) -> usize {
        self.read.table.buckets()
    }

    /// Current load factor (`len / num_buckets`).
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.num_buckets() as f64
    }

    /// The map's resize policy.
    pub fn policy(&self) -> &ResizePolicy {
        &self.policy
    }

    /// A snapshot of the map's operation and resize counters.
    pub fn stats(&self) -> MapStats {
        MapStats {
            slab_chunks: self.slab.chunks.get(),
            slab_huge_chunks: self.slab.huge_chunks.get(),
            ..self.stats.snapshot()
        }
    }

    /// The current bucket array, for the holder of `held`, this map's
    /// writer lock.
    pub(crate) fn table_locked<'w>(
        &'w self,
        held: &'w WriterGuard<'_, K, V>,
    ) -> LockedTable<'w, K, V> {
        self.read.table.locked(&self.slab, held)
    }

    pub(crate) fn writer_lock(&self) -> WriterGuard<'_, K, V> {
        NoGraceWait::holding(self.writer.lock())
    }
}

impl<K, V, S> RpHashMap<K, V, S>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Send + Sync + 'static,
    S: BuildHasher,
{
    /// Hashes a key with this map's hasher.
    pub(crate) fn hash_of<Q>(&self, key: &Q) -> u64
    where
        Q: Hash + ?Sized,
    {
        self.read.hasher.hash_one(key)
    }

    /// The hash this map's hasher produces for `key` — the value the
    /// `*_prehashed` and `*_matching_prehashed` entry points expect.
    pub fn hash_one<Q>(&self, key: &Q) -> u64
    where
        Q: Hash + ?Sized,
    {
        self.hash_of(key)
    }

    /// Looks up `key`, returning a reference valid for the protection
    /// borrow.
    ///
    /// This is the paper's wait-free lookup: a bucket-head load, a short
    /// chain traversal and per-node key comparisons. Concurrent resizes may
    /// make the traversed chain *imprecise* (contain foreign elements), but
    /// never make it miss an element that is present throughout the lookup.
    ///
    /// The lookup core is generic over the read-side flavor: pass an EBR
    /// guard ([`RpHashMap::pin`]) or an online [`crate::QsbrReadHandle`]. The
    /// latter makes the lookup entirely barrier-free — no lock, no fence, no
    /// atomic read-modify-write, the zero-overhead lookup the paper's
    /// read-side cost model assumes — and the returned reference borrows the
    /// handle, so the owning thread cannot announce a quiescent state (or go
    /// offline) while it is alive; see [`crate::QsbrReadHandle`] for the full
    /// contract.
    ///
    /// # Examples
    ///
    /// ```
    /// use rp_hash::{QsbrReadHandle, RpHashMap};
    ///
    /// let map: RpHashMap<&str, u32> = RpHashMap::new();
    /// map.insert("answer", 42);
    ///
    /// // Lookups borrow a reference valid while the guard is alive.
    /// let guard = map.pin();
    /// assert_eq!(map.get(&"answer", &guard), Some(&42));
    /// assert_eq!(map.get(&"question", &guard), None);
    /// drop(guard);
    ///
    /// // The same lookup under the QSBR flavor.
    /// let mut handle = QsbrReadHandle::register();
    /// assert_eq!(map.get(&"answer", &handle), Some(&42));
    /// // Between batches of lookups, announce a quiescent state so resizes
    /// // and the reclaim thread's frees can make progress.
    /// handle.quiescent_state();
    /// ```
    pub fn get<'g, Q, P>(&'g self, key: &Q, protect: &'g P) -> Option<&'g V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        P: ReadProtect,
    {
        self.get_key_value(key, protect).map(|(_, v)| v)
    }

    /// Looks up `key`, returning references to the stored key and value.
    pub fn get_key_value<'g, Q, P>(&'g self, key: &Q, protect: &'g P) -> Option<(&'g K, &'g V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        P: ReadProtect,
    {
        self.get_key_value_prehashed(self.hash_of(key), key, protect)
    }

    /// Looks up `key` using a caller-supplied `hash`, skipping the map's own
    /// hashing pass.
    ///
    /// `hash` must be the value this map's hasher produces for `key`
    /// (callers like `rp-shard` compute it once with an identical hasher and
    /// reuse it for both shard selection and the per-shard lookup).
    pub fn get_prehashed<'g, Q, P>(&'g self, hash: u64, key: &Q, protect: &'g P) -> Option<&'g V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        P: ReadProtect,
    {
        self.get_key_value_prehashed(hash, key, protect)
            .map(|(_, v)| v)
    }

    /// [`RpHashMap::get_key_value`] with a caller-supplied hash (see
    /// [`RpHashMap::get_prehashed`] for the contract on `hash`).
    pub fn get_key_value_prehashed<'g, Q, P>(
        &'g self,
        hash: u64,
        key: &Q,
        protect: &'g P,
    ) -> Option<(&'g K, &'g V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        P: ReadProtect,
    {
        self.get_key_value_matching_prehashed(hash, |k| k.borrow() == key, protect)
    }

    /// The "raw entry" lookup: finds the entry with `hash` whose key
    /// satisfies `matches`, without requiring a probe key type that `K` can
    /// [`Borrow`].
    ///
    /// This is what lets the cache server probe a `String`-keyed map with a
    /// `&[u8]` slice borrowed straight out of a connection's read buffer —
    /// hash once, compare bytes, allocate nothing. The contract mirrors
    /// [`RpHashMap::get_prehashed`]: `hash` must be exactly what this map's
    /// hasher produces for any key `matches` accepts, and `matches` must be
    /// consistent with `K`'s `Eq`.
    pub fn get_key_value_matching_prehashed<'g, P, F>(
        &'g self,
        hash: u64,
        mut matches: F,
        protect: &'g P,
    ) -> Option<(&'g K, &'g V)>
    where
        P: ReadProtect,
        F: FnMut(&K) -> bool,
    {
        let table = self.read.table.read(protect);
        let mut cur = table.head(table.bucket_of(hash));
        while let Some(node) = cur {
            if node.hash == hash && matches(&node.key) {
                let node = node.get();
                return Some((&node.key, &node.value));
            }
            cur = node.next();
        }
        None
    }

    /// [`RpHashMap::get_key_value_matching_prehashed`], returning only the
    /// value.
    pub fn get_matching_prehashed<'g, P, F>(
        &'g self,
        hash: u64,
        matches: F,
        protect: &'g P,
    ) -> Option<&'g V>
    where
        P: ReadProtect,
        F: FnMut(&K) -> bool,
    {
        self.get_key_value_matching_prehashed(hash, matches, protect)
            .map(|(_, v)| v)
    }

    /// A read-side **hint**: starts the cache misses a later lookup of
    /// `hash` will take, one chain step per `depth`, so a caller with
    /// several independent lookups ahead of it can overlap their misses
    /// instead of paying them one after another (group prefetching). Call
    /// it for every hash of the group at depth 0, then for every hash at
    /// depth 1, and so on; each pass finds the lines the previous pass
    /// asked for already on their way.
    ///
    /// * depth 0 hints the bucket slot and reads nothing of the chain;
    /// * depth `d ≥ 1` loads the slot, walks the first `d − 1` nodes, and
    ///   either returns the value of the first one whose cached hash is
    ///   `hash` — so the caller can hint whatever the value points at — or
    ///   hints the `d`-th node and returns `None`.
    ///
    /// Keys are never compared, so a returned value is only *probably* the
    /// one a lookup will find; the chain may also be imprecise mid-resize.
    /// Nothing is stored and nothing is waited for: like
    /// [`RpHashMap::get`] this holds a [`ReadProtect`] witness, takes no
    /// lock and announces nothing, which is why a relativistic reader may
    /// run ahead of itself like this at all. The lookup proper still goes
    /// through [`RpHashMap::get`] and friends.
    pub fn prefetch_prehashed<'g, P>(
        &'g self,
        hash: u64,
        depth: usize,
        protect: &'g P,
    ) -> Option<&'g V>
    where
        P: ReadProtect,
    {
        let table = self.read.table.read(protect);
        let bucket = table.bucket_of(hash);
        if depth == 0 {
            table.hint_slot(bucket);
            return None;
        }
        let mut cur = table.head(bucket);
        for _ in 1..depth {
            let node = cur?;
            if node.hash == hash {
                return Some(&node.get().value);
            }
            cur = node.next();
        }
        // The node is only hinted: a hint may name any address (null
        // included). Its first and last bytes' lines cover all of it unless
        // it straddles three.
        let first = cur.map_or(std::ptr::null(), |node| {
            std::ptr::from_ref(node.get()).cast::<u8>()
        });
        prefetch_line(first);
        prefetch_line(first.wrapping_add(std::mem::size_of::<Node<K, V>>() - 1));
        None
    }

    /// Returns `true` if the map contains `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let guard = rp_rcu::pin();
        self.get(key, &guard).is_some()
    }

    /// Looks up `key` and clones the value.
    pub fn get_cloned<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        let guard = rp_rcu::pin();
        self.get(key, &guard).cloned()
    }

    /// Looks up `key` and applies `f` to the value under the read-side
    /// critical section (the relativistic "copy out what you need" pattern).
    pub fn get_with<Q, F, R>(&self, key: &Q, f: F) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        F: FnOnce(&V) -> R,
    {
        let guard = rp_rcu::pin();
        self.get(key, &guard).map(f)
    }

    /// Inserts `key → value`. Returns `true` if the key was newly inserted,
    /// `false` if an existing value was replaced.
    ///
    /// Replacement is atomic from a reader's perspective: a concurrent
    /// lookup observes either the old or the new value, never neither.
    ///
    /// # Examples
    ///
    /// ```
    /// use rp_hash::RpHashMap;
    ///
    /// let map: RpHashMap<u64, &str> = RpHashMap::new();
    /// assert!(map.insert(1, "one"));
    /// assert!(!map.insert(1, "uno"), "second insert replaces");
    /// assert_eq!(map.len(), 1);
    /// assert_eq!(map.get_cloned(&1), Some("uno"));
    /// ```
    pub fn insert(&self, key: K, value: V) -> bool {
        self.insert_prehashed(self.hash_of(&key), key, value)
    }

    /// [`RpHashMap::insert`] with a caller-supplied hash (see
    /// [`RpHashMap::get_prehashed`] for the contract on `hash`).
    pub fn insert_prehashed(&self, hash: u64, key: K, value: V) -> bool {
        let mut crossed = false;
        let guard = self.writer_lock();
        let replaced = self.insert_one_locked(&guard, hash, key, value, |_| (), &mut crossed);
        self.after_write(&guard, crossed);
        replaced.is_none()
    }

    /// One insert-or-replace step under `held`, this map's writer lock. If
    /// `key` was present, returns what `on_replace` made of the value it
    /// replaced, called while that value is still alive; `None` means a new
    /// entry. Sets `crossed` if the insert took the table over its policy's
    /// expand trigger; resizing is the caller's business, before it unlocks
    /// ([`RpHashMap::after_write`]).
    fn insert_one_locked<R>(
        &self,
        held: &WriterGuard<'_, K, V>,
        hash: u64,
        key: K,
        value: V,
        on_replace: impl FnOnce(&V) -> R,
        crossed: &mut bool,
    ) -> Option<R> {
        let table = self.table_locked(held);
        // Start the slot's miss before the allocator's, so the two overlap:
        // `find_locked` loads the slot only once the node is allocated.
        table.hint_slot(table.bucket_of(hash));
        let new = Node::alloc(&self.slab, held, hash, key, value);
        match Self::place_locked(&table, &new, on_replace) {
            Some(replaced) => {
                self.stats.replaces.add(1, held);
                Some(replaced)
            }
            None => {
                let len = self.len.add(1, held) as usize;
                self.stats.inserts.add(1, held);
                *crossed |= self.policy.should_expand(len, table.len());
                None
            }
        }
    }

    /// Links `new` into its sorted chain in `table`: in place of the node
    /// with its key, if there is one — returning what `on_replace` made of
    /// that node's value, called while the value is still alive — or at its
    /// place in the order.
    fn place_locked<'w, R>(
        table: &LockedTable<'w, K, V>,
        new: &Locked<'w, K, V>,
        on_replace: impl FnOnce(&V) -> R,
    ) -> Option<R> {
        match Self::find_locked(table, new.hash, &new.key) {
            Ok((prev, old)) => {
                let replaced = on_replace(&old.value);
                // Initialise the replacement's successor before publishing.
                new.init_next(old.next().as_ref());
                table.swap_out(prev.as_ref(), old, Some(new));
                Some(replaced)
            }
            Err((prev, next)) => {
                new.init_next(next.as_ref());
                table.link_after(table.bucket_of(new.hash), prev.as_ref(), Some(new));
                None
            }
        }
    }

    /// Inserts `key → value`, returning a clone of the previous value if the
    /// key was already present.
    ///
    /// Atomic with respect to other writers: the lookup, the clone and the
    /// replacement are one walk of the chain under the writer lock, with no
    /// read-side pin, so the value returned is the one this call replaced.
    /// Of concurrent overwrites of one key, each returns a different value.
    pub fn insert_replacing(&self, key: K, value: V) -> Option<V>
    where
        V: Clone,
    {
        self.insert_with(key, value, V::clone)
    }

    /// Inserts `key → value`, handing the value it replaces, if any, to
    /// `on_replace` and returning what that made of it; `None` means a new
    /// entry. One walk of the chain under the writer lock, like
    /// [`RpHashMap::insert_replacing`]: `on_replace` sees the value this
    /// call replaced, before its node is retired. It runs with the writer
    /// lock held and must not call back into this map.
    pub fn insert_with<R>(&self, key: K, value: V, on_replace: impl FnOnce(&V) -> R) -> Option<R> {
        let hash = self.hash_of(&key);
        let mut crossed = false;
        let guard = self.writer_lock();
        let previous = self.insert_one_locked(&guard, hash, key, value, on_replace, &mut crossed);
        self.after_write(&guard, crossed);
        previous
    }

    /// Removes `key`. Returns `true` if it was present.
    ///
    /// The removed entry is retired through the RCU domain and freed only
    /// after a grace period, so concurrent readers that still hold a
    /// reference to it remain safe.
    ///
    /// # Examples
    ///
    /// ```
    /// use rp_hash::RpHashMap;
    ///
    /// let map: RpHashMap<u64, String> = RpHashMap::new();
    /// map.insert(7, "seven".to_string());
    /// assert!(map.remove(&7));
    /// assert!(!map.remove(&7), "already gone");
    /// assert!(map.is_empty());
    /// ```
    pub fn remove<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.remove_prehashed(self.hash_of(key), key)
    }

    /// [`RpHashMap::remove`] with a caller-supplied hash (see
    /// [`RpHashMap::get_prehashed`] for the contract on `hash`).
    pub fn remove_prehashed<Q>(&self, hash: u64, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.remove_if_prehashed(hash, key, |_| true)
    }

    /// Removes `key` only if `condemn` accepts the value stored under it
    /// *now*: the lookup, the verdict and the unlink all happen under the
    /// writer lock, so an entry a concurrent writer has just replaced is
    /// judged as its replacement. Returns `true` if an entry was removed.
    ///
    /// This is the safe way to act on what a read-side probe saw (an
    /// expired cache item, say) after leaving the read-side section.
    /// `condemn` runs with the writer lock held and must not call back into
    /// this map. See [`RpHashMap::get_prehashed`] for the contract on
    /// `hash`.
    pub fn remove_if_prehashed<Q>(
        &self,
        hash: u64,
        key: &Q,
        condemn: impl FnOnce(&V) -> bool,
    ) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut crossed = false;
        let guard = self.writer_lock();
        let removed = self.remove_one_locked(&guard, hash, key, condemn, &mut crossed);
        self.after_write(&guard, crossed);
        removed
    }

    /// One remove step under `held`, this map's writer lock: unlinks
    /// `key`'s entry if it exists and `condemn` accepts its value. Sets
    /// `crossed` if the removal took the table under its policy's shrink
    /// trigger (see [`RpHashMap::insert_one_locked`]).
    fn remove_one_locked<Q>(
        &self,
        held: &WriterGuard<'_, K, V>,
        hash: u64,
        key: &Q,
        condemn: impl FnOnce(&V) -> bool,
        crossed: &mut bool,
    ) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let table = self.table_locked(held);
        let Ok((prev, node)) = Self::find_locked(&table, hash, key) else {
            return false;
        };
        if !condemn(&node.value) {
            return false;
        }
        let next = node.next();
        table.swap_out(prev.as_ref(), node, next.as_ref());
        let len = self.len.sub(1, held) as usize;
        self.stats.removes.add(1, held);
        *crossed |= self.policy.should_shrink(len, table.len());
        true
    }

    /// Removes `key`, returning a clone of its value if it was present.
    ///
    /// Atomic with respect to other writers, like
    /// [`RpHashMap::insert_replacing`]: one walk under the writer lock, no
    /// read-side pin, and the value returned is the one this call removed.
    pub fn remove_cloned<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        let mut removed = None;
        // `condemn` runs under the writer lock before the node is retired,
        // so the clone reads a value nothing can free yet.
        self.remove_if_prehashed(self.hash_of(key), key, |value| {
            removed = Some(value.clone());
            true
        });
        removed
    }

    /// Atomically renames `old_key` to `new_key`, keeping the value (the
    /// relativistic *move* operation from the authors' earlier work).
    ///
    /// A concurrent lookup for the entry observes the old key, the new key,
    /// or briefly both — but never neither. Returns `false` (and does
    /// nothing) if `old_key` is absent. If `new_key` already exists its
    /// value is replaced.
    pub fn rename<Q>(&self, old_key: &Q, new_key: K) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        let old_hash = self.hash_of(old_key);
        let new_hash = self.hash_of(&new_key);
        if old_hash == new_hash && new_key.borrow() == old_key {
            // Renaming a key to itself: nothing to move.
            return self.contains_key(old_key);
        }
        let guard = self.writer_lock();
        let table = self.table_locked(&guard);

        let Ok(value) =
            Self::find_locked(&table, old_hash, old_key).map(|(_, node)| node.value.clone())
        else {
            return false;
        };

        // 1. Publish the entry under the new key, in place of any entry the
        //    new key displaces, so readers of the new key already find it.
        let new_node = Node::alloc(&self.slab, &guard, new_hash, new_key, value);
        if Self::place_locked(&table, &new_node, |_| ()).is_some() {
            self.len.sub(1, &guard);
        }

        // 2. Unlink the old entry. Readers searching for the old key during
        //    this window still find it; readers searching for the new key
        //    already find the new node.
        if let Ok((prev, node)) = Self::find_locked(&table, old_hash, old_key) {
            let next = node.next();
            table.swap_out(prev.as_ref(), node, next.as_ref());
        }
        self.stats.replaces.add(1, &guard);
        self.after_write(&guard, false);
        true
    }

    /// Removes every entry for which `f` returns `false`; returns how many
    /// it removed.
    ///
    /// Each entry is visited exactly once, even while an incremental resize
    /// is in progress (entries temporarily reachable from a bucket they do
    /// not belong to are visited from their home bucket only).
    pub fn retain<F>(&self, mut f: F) -> usize
    where
        F: FnMut(&K, &V) -> bool,
    {
        let mut removed = 0;
        let guard = self.writer_lock();
        let table = self.table_locked(&guard);
        for bucket in 0..table.len() {
            let mut prev: Option<Locked<'_, K, V>> = None;
            let mut cur = table.head(bucket);
            while let Some(node) = cur {
                cur = node.next();
                // Mid-unzip a chain can hold foreign nodes; those are
                // judged from their home bucket (they remain valid
                // predecessors in this chain either way).
                let foreign = table.bucket_of(node.hash) != bucket;
                if foreign || f(&node.key, &node.value) {
                    prev = Some(node);
                } else {
                    table.swap_out(prev.as_ref(), node, cur.as_ref());
                    self.len.sub(1, &guard);
                    self.stats.removes.add(1, &guard);
                    removed += 1;
                }
            }
        }
        // Bulk removal can take the table any number of halvings under its
        // shrink trigger.
        let crossed = self.policy.should_shrink(self.len(), table.len());
        self.after_write(&guard, crossed);
        removed
    }

    /// Removes all entries.
    pub fn clear(&self) {
        self.retain(|_, _| false);
    }

    /// Iterates over all key/value pairs under a read-side protection
    /// witness (an EBR guard or an online QSBR handle).
    ///
    /// Entries present for the whole iteration are yielded exactly once;
    /// entries inserted or removed concurrently may or may not be observed.
    pub fn iter<'g, P: ReadProtect>(&'g self, protect: &'g P) -> Iter<'g, K, V> {
        Iter::new(self.read.table.read(protect))
    }

    /// Collects all entries into a `Vec` (cloning), a convenience for tests
    /// and examples.
    pub fn to_vec(&self) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let guard = rp_rcu::pin();
        self.iter(&guard)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// A barrier: returns once everything retired before the call has been
    /// freed, after a grace period of every read-side flavor with
    /// registered readers ([`GraceSync::synchronize_and_reclaim`]). Writers
    /// never need it; the global funnel's reclaim thread frees on its own.
    ///
    /// The map gathers what it retires in an open batch of up to 63 nodes
    /// and queues it on the global funnel when the 64th arrives, so a map
    /// that stops writing holds up to 63 retired nodes until its next
    /// write, this call or its drop. This call takes the writer lock,
    /// queues the open batch, and releases the lock before the barrier.
    /// A bare [`GraceSync::synchronize_and_reclaim`] frees only what has
    /// been queued.
    pub fn flush_retired(&self) {
        self.slab.queue_retired(&self.writer_lock());
        GraceSync::global().synchronize_and_reclaim();
    }

    /// Walks `hash`'s chain in `table` as far as `hash`'s place in its
    /// order (chains are sorted by `hash.reverse_bits()`): `Ok((predecessor,
    /// node))` if `key` is there, else `Err((predecessor, successor))`, the
    /// place a node for it is linked at. A `None` predecessor is the bucket
    /// head.
    #[allow(clippy::type_complexity)]
    fn find_locked<'w, Q>(
        table: &LockedTable<'w, K, V>,
        hash: u64,
        key: &Q,
    ) -> Result<(Option<Locked<'w, K, V>>, Locked<'w, K, V>), Place<'w, K, V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let order = hash.reverse_bits();
        let mut prev = None;
        let mut cur = table.head(table.bucket_of(hash));
        while let Some(node) = cur.take_if(|node| node.hash.reverse_bits() <= order) {
            if node.hash == hash && node.key.borrow() == key {
                return Ok((prev, node));
            }
            cur = node.next();
            prev = Some(node);
        }
        Err((prev, cur))
    }

    /// What every write entry point ends in, under `held`, the writer lock
    /// it took: the automatic resize step, if `crossed` says the write took
    /// the table over a load-factor trigger or a resize is in flight (one
    /// load while neither). It waits for no reader, and frees nothing: the
    /// global funnel's reclaim thread does that.
    fn after_write(&self, held: &WriterGuard<'_, K, V>, crossed: bool) {
        if crossed || self.resize_active.load(Ordering::Relaxed) {
            self.step_to_policy_locked(held);
        }
    }
}

impl<K, V, S> std::fmt::Debug for RpHashMap<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpHashMap")
            .field("len", &self.len())
            .field("buckets", &self.num_buckets())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnvBuildHasher;

    type Map = RpHashMap<u64, u64, FnvBuildHasher>;

    fn fnv_map(buckets: usize) -> Map {
        RpHashMap::with_buckets_and_hasher(buckets, FnvBuildHasher)
    }

    /// Runs automatic resizing to rest: a grace period covers the cookie of
    /// the resize in flight, and the next write (here, of nothing) finishes
    /// it and begins the next one the policy asks for.
    fn settle(map: &Map) {
        while map.resize_in_progress() {
            GraceSync::global().synchronize();
            assert!(!map.remove(&u64::MAX));
        }
    }

    #[test]
    fn new_map_is_empty() {
        let map: RpHashMap<u32, u32> = RpHashMap::new();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert_eq!(map.num_buckets(), 16);
        assert!(!map.contains_key(&1));
    }

    #[test]
    fn what_a_lookup_loads_shares_no_line_with_what_an_update_stores() {
        use std::mem::{align_of, offset_of, size_of};
        fn check<S>() {
            type M<S> = RpHashMap<u64, u64, S>;
            assert!(align_of::<M<S>>() >= 128);
            // `table` and the hasher live in `read`, which is whole lines.
            let read = offset_of!(M<S>, read);
            let lines = read / 128..(read + size_of::<ReadMostly<u64, u64, S>>()).div_ceil(128);
            for (stored, size) in [
                (offset_of!(M<S>, writer), size_of::<Mutex<()>>()),
                (offset_of!(M<S>, len), size_of::<LockedCount>()),
                (offset_of!(M<S>, stats), size_of::<AtomicMapStats>()),
                (offset_of!(M<S>, slab), size_of::<NodeSlab<u64, u64>>()),
            ] {
                assert!(!lines.contains(&(stored / 128)), "{stored} in {lines:?}");
                assert!(!lines.contains(&((stored + size - 1) / 128)));
            }
        }
        check::<std::collections::hash_map::RandomState>();
        check::<FnvBuildHasher>();
        check::<FoldBuildHasher>();
    }

    #[test]
    fn matching_prehashed_probes_without_a_borrowable_key() {
        // A String-keyed map probed by a byte slice: no Borrow<[u8]> for
        // String exists, so the matching lookup is the only alloc-free way.
        let map: RpHashMap<String, u64, FnvBuildHasher> =
            RpHashMap::with_buckets_and_hasher(16, FnvBuildHasher);
        map.insert("alpha".to_string(), 1);
        map.insert("beta".to_string(), 2);

        let probe: &[u8] = b"beta";
        let hash = map.hash_one("beta"); // hash once, as a str
        let guard = map.pin();
        assert_eq!(
            map.get_matching_prehashed(hash, |k| k.as_bytes() == probe, &guard),
            Some(&2)
        );
        assert_eq!(
            map.get_key_value_matching_prehashed(hash, |k| k.as_bytes() == probe, &guard)
                .map(|(k, _)| k.as_str()),
            Some("beta")
        );
        // A wrong hash misses even when the predicate would match.
        assert_eq!(
            map.get_matching_prehashed(hash ^ 1, |k| k.as_bytes() == probe, &guard),
            None
        );
        // The QSBR witness drives the same core.
        drop(guard);
        std::thread::spawn(move || {
            let handle = crate::QsbrReadHandle::register();
            assert_eq!(
                map.get_matching_prehashed(hash, |k| k.as_bytes() == probe, &handle),
                Some(&2)
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        let map: RpHashMap<u32, u32> = RpHashMap::with_buckets(20);
        assert_eq!(map.num_buckets(), 32);
        let map: RpHashMap<u32, u32> = RpHashMap::with_buckets(0);
        assert_eq!(map.num_buckets(), 1);
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let map = fnv_map(8);
        assert!(map.insert(1, 100));
        assert!(map.insert(2, 200));
        assert_eq!(map.len(), 2);

        let guard = map.pin();
        assert_eq!(map.get(&1, &guard), Some(&100));
        assert_eq!(map.get(&2, &guard), Some(&200));
        assert_eq!(map.get(&3, &guard), None);
        drop(guard);

        assert!(map.remove(&1));
        assert!(!map.remove(&1));
        assert_eq!(map.len(), 1);
        assert!(!map.contains_key(&1));
        assert!(map.contains_key(&2));
    }

    #[test]
    fn a_hint_returns_the_value_iff_the_walked_prefix_holds_the_hash() {
        let map = fnv_map(16);
        // Bucket 1 stays empty, bucket 2 holds one node, bucket 3 a chain
        // of three, in reversed-hash order: 3, 35, 19.
        map.insert_prehashed(2, 20, 200);
        for (hash, key) in [(3, 30), (19, 31), (35, 32)] {
            map.insert_prehashed(hash, key, key * 10);
        }
        // (hash, position in its chain, value); 51 shares bucket 3 and is
        // in nobody's chain.
        let cases = [
            (1, None, 0),
            (2, Some(1), 200),
            (3, Some(1), 300),
            (35, Some(2), 320),
            (19, Some(3), 310),
            (51, None, 0),
        ];
        let guard = map.pin();
        let handle = crate::QsbrReadHandle::register();
        for depth in 0..=4 {
            for (hash, position, value) in cases {
                // Depth d dereferences the first d - 1 nodes.
                let expected = position.filter(|p| *p < depth).map(|_| value);
                let hinted = map.prefetch_prehashed(hash, depth, &guard).copied();
                assert_eq!(hinted, expected, "hash {hash} at depth {depth}");
                let hinted = map.prefetch_prehashed(hash, depth, &handle).copied();
                assert_eq!(hinted, expected, "hash {hash} at depth {depth} (qsbr)");
            }
        }
        drop((guard, handle));
        map.check_invariants().unwrap();
    }

    #[test]
    fn a_hint_walks_an_unzipping_chain() {
        // Mid-unzip the chains are imprecise (a bucket still runs on into
        // its sibling's nodes): a hint may meet foreign nodes, never a
        // dangling one, and what it returns is what a lookup returns.
        let map = fnv_map(4);
        for key in 0..64_u64 {
            map.insert(key, key + 1000);
        }
        assert!(map.begin_expand());
        assert!(map.resize_in_progress());
        let guard = map.pin();
        for key in 0..64_u64 {
            let hash = map.hash_one(&key);
            for depth in 0..=4 {
                if let Some(value) = map.prefetch_prehashed(hash, depth, &guard) {
                    assert_eq!(Some(value), map.get(&key, &guard), "key {key}");
                }
            }
            // Deep enough, the walk reaches every node of the chain.
            assert_eq!(
                map.prefetch_prehashed(hash, 128, &guard),
                Some(&(key + 1000))
            );
            assert_eq!(map.prefetch_prehashed(!hash, 128, &guard), None);
        }
        drop(guard);
        while map.finish_resize() {}
        map.check_invariants().unwrap();
        assert_eq!(map.len(), 64);
    }

    #[test]
    fn remove_if_judges_the_value_stored_now() {
        let map = fnv_map(4);
        map.insert(7, 1);
        let hash = map.hash_one(&7_u64);
        assert!(!map.remove_if_prehashed(hash, &7, |v| *v == 0));
        // A verdict formed on value 1 must not take its replacement.
        map.insert(7, 2);
        assert!(!map.remove_if_prehashed(hash, &7, |v| *v == 1));
        assert_eq!(map.get_cloned(&7), Some(2));
        assert!(map.remove_if_prehashed(hash, &7, |v| *v == 2));
        assert!(!map.remove_if_prehashed(hash, &7, |_| true), "already gone");
        assert_eq!(map.len(), 0);
        assert_eq!(map.stats().removes, 1);
    }

    #[test]
    fn insert_replaces_existing_value() {
        let map = fnv_map(4);
        assert!(map.insert(7, 1));
        assert!(!map.insert(7, 2));
        assert_eq!(map.len(), 1);
        assert_eq!(map.get_cloned(&7), Some(2));
        assert_eq!(map.stats().replaces, 1);
    }

    #[test]
    fn insert_replacing_returns_previous_value() {
        let map = fnv_map(4);
        assert_eq!(map.insert_replacing(1, 10), None);
        assert_eq!(map.insert_replacing(1, 20), Some(10));
        assert_eq!(map.get_cloned(&1), Some(20));
    }

    #[test]
    fn remove_cloned_returns_value() {
        let map = fnv_map(4);
        map.insert(5, 50);
        assert_eq!(map.remove_cloned(&5), Some(50));
        assert_eq!(map.remove_cloned(&5), None);
    }

    #[test]
    fn get_key_value_returns_stored_key() {
        let map: RpHashMap<String, u32> = RpHashMap::with_buckets(8);
        map.insert("alpha".to_string(), 1);
        let guard = map.pin();
        let (k, v) = map.get_key_value("alpha", &guard).unwrap();
        assert_eq!(k, "alpha");
        assert_eq!(*v, 1);
    }

    #[test]
    fn borrowed_key_lookup_works() {
        let map: RpHashMap<String, u32> = RpHashMap::new();
        map.insert("hello".to_string(), 5);
        let guard = map.pin();
        // Look up with &str against String keys.
        assert_eq!(map.get("hello", &guard), Some(&5));
        assert!(map.remove("hello"));
    }

    #[test]
    fn many_keys_collide_into_few_buckets() {
        // A 2-bucket table forces long chains; correctness must not depend
        // on distribution.
        let map = fnv_map(2);
        for i in 0..200 {
            assert!(map.insert(i, i * 10));
        }
        assert_eq!(map.len(), 200);
        let guard = map.pin();
        for i in 0..200 {
            assert_eq!(map.get(&i, &guard), Some(&(i * 10)));
        }
    }

    #[test]
    fn get_with_copies_under_guard() {
        let map: RpHashMap<u32, String> = RpHashMap::new();
        map.insert(1, "value".to_string());
        let len = map.get_with(&1, |v| v.len());
        assert_eq!(len, Some(5));
        assert_eq!(map.get_with(&2, |v| v.len()), None);
    }

    #[test]
    fn rename_moves_value_to_new_key() {
        let map: RpHashMap<String, u64> = RpHashMap::with_buckets(8);
        map.insert("old".to_string(), 7);
        assert!(map.rename("old", "new".to_string()));
        assert!(!map.contains_key("old"));
        assert_eq!(map.get_cloned("new"), Some(7));
        assert_eq!(map.len(), 1);
        // Renaming a missing key is a no-op.
        assert!(!map.rename("missing", "other".to_string()));
    }

    #[test]
    fn rename_onto_existing_key_replaces_it() {
        let map: RpHashMap<String, u64> = RpHashMap::with_buckets(8);
        map.insert("a".to_string(), 1);
        map.insert("b".to_string(), 2);
        assert!(map.rename("a", "b".to_string()));
        assert_eq!(map.len(), 1);
        assert_eq!(map.get_cloned("b"), Some(1));
        assert!(!map.contains_key("a"));
    }

    #[test]
    fn retain_keeps_matching_entries() {
        let map = fnv_map(8);
        for i in 0..20 {
            map.insert(i, i);
        }
        assert_eq!(map.retain(|k, _| k % 2 == 0), 10);
        assert_eq!(map.len(), 10);
        for i in 0..20 {
            assert_eq!(map.contains_key(&i), i % 2 == 0);
        }
    }

    #[test]
    fn bulk_removal_shrinks_the_table() {
        // The kvcache index policy: a `purge_expired` that empties the cache
        // begins a halving at once, and the writes after it halve the table
        // down to its bounds, one halving per grace period.
        let policy = ResizePolicy {
            auto_expand: true,
            auto_shrink: true,
            min_load_factor: 0.125,
            min_buckets: 16,
            ..ResizePolicy::default()
        };
        let map: Map = RpHashMap::with_buckets_hasher_and_policy(16, FnvBuildHasher, policy);
        for i in 0..10_000 {
            map.insert(i, i);
        }
        settle(&map);
        assert_eq!(map.num_buckets(), 8192);
        assert_eq!(map.retain(|k, _| *k < 4), 9_996);
        assert_eq!(map.num_buckets(), 4096, "the halving is published at once");
        settle(&map);
        assert_eq!((map.len(), map.num_buckets()), (4, 32));
        for i in 0..10_000 {
            map.insert(i, i);
        }
        map.clear();
        settle(&map);
        assert_eq!((map.len(), map.num_buckets()), (0, 16));
        map.check_invariants().unwrap();
    }

    #[test]
    fn clear_removes_everything() {
        let map = fnv_map(8);
        for i in 0..50 {
            map.insert(i, i);
        }
        map.clear();
        assert!(map.is_empty());
        assert!(!map.contains_key(&10));
        map.flush_retired();
    }

    #[test]
    fn len_and_load_factor_track_inserts() {
        let map = fnv_map(8);
        for i in 0..16 {
            map.insert(i, i);
        }
        assert_eq!(map.len(), 16);
        assert!((map.load_factor() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn reader_reference_survives_removal_until_guard_drop() {
        let map: RpHashMap<u32, String> = RpHashMap::new();
        map.insert(1, "payload".to_string());
        let guard = map.pin();
        let v = map.get(&1, &guard).unwrap();
        assert!(map.remove(&1));
        // The node is retired but cannot be freed while `guard` is alive.
        assert_eq!(v, "payload");
        drop(guard);
        map.flush_retired();
    }

    #[test]
    fn stats_count_operations() {
        let map = fnv_map(8);
        map.insert(1, 1);
        map.insert(1, 2);
        map.insert(2, 2);
        map.remove(&2);
        let stats = map.stats();
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.replaces, 1);
        assert_eq!(stats.removes, 1);
    }

    #[test]
    fn writers_never_wait_to_free() {
        // Thousands of retired nodes, no load-factor trigger crossed: the
        // reclaim thread frees them, the writer never waits for readers.
        let map = fnv_map(64);
        let waits = rp_rcu::thread_synchronize_count();
        for round in 0..8 {
            for i in 0..1024 {
                map.insert(i, round);
            }
            for i in 0..512 {
                map.remove(&i);
            }
        }
        assert_eq!(rp_rcu::thread_synchronize_count(), waits);
        assert_eq!(map.num_buckets(), 64);
        map.flush_retired();
    }

    #[test]
    fn drop_frees_all_nodes_without_reclaim() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        #[derive(Clone)]
        struct CountsDrop(Arc<AtomicUsize>);
        impl Drop for CountsDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let drops = Arc::new(AtomicUsize::new(0));
        {
            let map: RpHashMap<u32, CountsDrop> = RpHashMap::with_buckets(4);
            for i in 0..10 {
                map.insert(i, CountsDrop(Arc::clone(&drops)));
            }
        }
        // All ten values dropped by the map's Drop (no removals happened, so
        // nothing is sitting in the deferred queue).
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn auto_expand_policy_grows_table() {
        let map: RpHashMap<u64, u64, FnvBuildHasher> = RpHashMap::with_buckets_hasher_and_policy(
            4,
            FnvBuildHasher,
            ResizePolicy {
                auto_expand: true,
                max_load_factor: 1.0,
                ..ResizePolicy::default()
            },
        );
        for i in 0..64 {
            map.insert(i, i);
        }
        settle(&map);
        assert!(
            map.num_buckets() >= 64,
            "expected auto-expansion, got {} buckets",
            map.num_buckets()
        );
        let guard = map.pin();
        for i in 0..64 {
            assert_eq!(map.get(&i, &guard), Some(&i));
        }
        assert!(map.stats().expands >= 4);
    }

    #[test]
    fn auto_shrink_policy_shrinks_table() {
        let map: RpHashMap<u64, u64, FnvBuildHasher> = RpHashMap::with_buckets_hasher_and_policy(
            64,
            FnvBuildHasher,
            ResizePolicy {
                auto_shrink: true,
                min_load_factor: 0.5,
                min_buckets: 4,
                ..ResizePolicy::default()
            },
        );
        for i in 0..64 {
            map.insert(i, i);
        }
        assert_eq!(map.num_buckets(), 64);
        for i in 0..64 {
            map.remove(&i);
        }
        settle(&map);
        assert!(
            map.num_buckets() <= 8,
            "expected auto-shrink, got {} buckets",
            map.num_buckets()
        );
        assert!(map.stats().shrinks >= 3);
    }
}
