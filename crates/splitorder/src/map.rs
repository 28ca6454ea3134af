//! The split-ordered map: one lock-free ordered list + a growable array of
//! dummy-node shortcuts. See the crate docs for the design overview.

use std::borrow::Borrow;
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use rp_hash::{FnvBuildHasher, ReadProtect};
use rp_rcu::{GraceSync, RcuGuard};

/// Mark bit carried in the low bit of a node's `next` pointer: set means
/// the node is logically deleted (Michael's lock-free list). Node boxes are
/// at least word-aligned, so the bit is always free.
const MARK: usize = 1;

/// Default initial bucket count.
const DEFAULT_BUCKETS: usize = 8;

/// Hard ceiling on the shortcut-array size (2^24 buckets ≈ 128 MiB of
/// pointers — far beyond anything the workloads reach).
const MAX_BUCKETS: usize = 1 << 24;

/// Grow when `len > num_buckets * MAX_LOAD` (matches the other tables'
/// default load-factor ceiling of 2.0).
const MAX_LOAD: usize = 2;

#[inline]
fn ptr_of<K, V>(tag: usize) -> *mut Node<K, V> {
    (tag & !MARK) as *mut Node<K, V>
}

#[inline]
fn is_marked(tag: usize) -> bool {
    tag & MARK == MARK
}

/// The split-order key of a data node: the bit-reversed hash with the low
/// bit set, so data keys are odd and sort *after* their bucket's dummy.
#[inline]
fn data_so_key(hash: u64) -> u64 {
    hash.reverse_bits() | 1
}

/// The split-order key of bucket `b`'s dummy node: the bit-reversed index.
/// Bucket indexes are far below 2^63, so dummy keys are always even.
#[inline]
fn dummy_so_key(bucket: usize) -> u64 {
    (bucket as u64).reverse_bits()
}

/// The parent a bucket splits from: the index with its highest set bit
/// cleared. Only meaningful for `bucket > 0`; bucket 0 is the list head.
#[inline]
fn parent_of(bucket: usize) -> usize {
    debug_assert!(bucket > 0);
    bucket & !(1usize << (usize::BITS - 1 - bucket.leading_zeros()))
}

/// A list node: either a permanent per-bucket *dummy* (shortcut target) or
/// a data node. The `next` field carries the [`MARK`] bit.
struct Node<K, V> {
    so_key: u64,
    next: AtomicUsize,
    kind: NodeKind<K, V>,
}

enum NodeKind<K, V> {
    /// A bucket's dummy node. Stays unmarked while its bucket is inside
    /// the shortcut array; a shrink's compaction pass marks and unlinks
    /// the dummies of buckets that no longer exist.
    Bucket,
    /// A data entry. The value lives behind a pointer cell so updates can
    /// replace it in place (publish new, retire old) without touching the
    /// list structure.
    Data { key: K, value: AtomicPtr<V> },
}

impl<K, V> Node<K, V> {
    fn dummy(so_key: u64) -> Box<Node<K, V>> {
        Box::new(Node {
            so_key,
            next: AtomicUsize::new(0),
            kind: NodeKind::Bucket,
        })
    }

    fn data(so_key: u64, key: K, value: *mut V) -> Box<Node<K, V>> {
        Box::new(Node {
            so_key,
            next: AtomicUsize::new(0),
            kind: NodeKind::Data {
                key,
                value: AtomicPtr::new(value),
            },
        })
    }
}

impl<K, V> NodeKind<K, V> {
    /// A data node's key and the value its cell holds now; `None` for a
    /// dummy.
    fn entry(&self) -> Option<(&K, &V)> {
        match self {
            NodeKind::Bucket => None,
            NodeKind::Data { key, value } => {
                // SAFETY: a value is retired only after it was swapped out
                // of its cell and freed only after a grace period, and every
                // `&Node` is confined to the read-side section it was made
                // in, so what the cell holds now outlives this borrow. The
                // cell is null only in a never-linked node whose value was
                // moved out by a replacing insert.
                unsafe { value.load(Ordering::Acquire).as_ref() }.map(|value| (key, value))
            }
        }
    }
}

impl<K, V> Drop for Node<K, V> {
    fn drop(&mut self) {
        if let NodeKind::Data { value, .. } = &mut self.kind {
            let ptr = *value.get_mut();
            if !ptr.is_null() {
                // SAFETY: a data node owns its current value box; replaced
                // values were retired separately with the cell updated.
                unsafe { drop(Box::from_raw(ptr)) };
            }
        }
    }
}

/// The growable shortcut array: slot `b` points at bucket `b`'s dummy node
/// (or null before the bucket's first write — readers fall back to the
/// parent chain). Published as a whole via one `compare_exchange`; retired
/// arrays go through the deferred queue, never a blocking grace wait.
struct BucketArray<K, V> {
    mask: u64,
    slots: Box<[AtomicPtr<Node<K, V>>]>,
}

impl<K, V> BucketArray<K, V> {
    fn new(size: usize) -> Box<BucketArray<K, V>> {
        debug_assert!(size.is_power_of_two());
        let slots: Vec<AtomicPtr<Node<K, V>>> =
            (0..size).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        Box::new(BucketArray {
            mask: (size - 1) as u64,
            slots: slots.into_boxed_slice(),
        })
    }

    /// A resized copy: shared prefix of shortcuts carried over, the rest
    /// null (initialized lazily on first write — dummies are *not* created
    /// eagerly, which is what makes resizing O(buckets) pointer copies).
    fn resized_copy(&self, size: usize) -> Box<BucketArray<K, V>> {
        let new = BucketArray::new(size);
        for i in 0..self.slots.len().min(size) {
            new.slots[i].store(self.slots[i].load(Ordering::Acquire), Ordering::Relaxed);
        }
        new
    }

    fn size(&self) -> usize {
        self.slots.len()
    }
}

/// Outcome of a writer-side list search (Michael's `find`): either the
/// matching live node, or the insertion point for the target key.
enum FindResult<'g, K, V> {
    Found {
        prev: &'g AtomicUsize,
        node: &'g Node<K, V>,
        succ_tag: usize,
    },
    Missing {
        prev: &'g AtomicUsize,
        succ: *mut Node<K, V>,
    },
    /// The dummy the walk started from was itself marked dead (a shrink's
    /// compaction caught it between the caller resolving the bucket head
    /// and the walk). The caller must re-resolve the head — writer-side
    /// callers repair the stale shortcut via `init_bucket`.
    HeadDead,
}

/// A lock-free split-ordered hash map (Shalev & Shavit).
///
/// * **Lookups** are wait-free-in-practice list walks, generic over the
///   workspace's [`ReadProtect`] witness — an EBR guard ([`Self::pin`]) or
///   a QSBR handle — and never write to shared memory.
/// * **Inserts / removes** are CAS loops on the single ordered list
///   (logical deletion via a mark bit, physical unlinking by whichever
///   writer passes next). No locks anywhere on the write side.
/// * **Resizing** publishes a larger or smaller shortcut array with one
///   `compare_exchange` and retires the old one through the deferred
///   queue: **no data moves, no writer lock, no grace-period wait**. New
///   buckets splice their dummy node in lazily on first write.
///
/// Unlinked nodes and retired arrays are reclaimed through
/// [`GraceSync`], which covers both the EBR and QSBR reader populations —
/// the same funnel the relativistic tables use — and frees them on its own
/// thread: no operation here ever waits for a grace period.
pub struct SplitOrderMap<K, V, S = FnvBuildHasher> {
    hasher: S,
    buckets: AtomicPtr<BucketArray<K, V>>,
    /// Bucket 0's dummy: split-order key 0, the global list head. Created
    /// at construction, freed only on drop.
    head: *mut Node<K, V>,
    count: AtomicUsize,
}

// SAFETY: all shared mutation goes through atomics; `head` is written only
// during construction and drop. K/V cross threads (stored, retired, and
// dropped on arbitrary threads), hence the Send + Sync bounds on both.
unsafe impl<K: Send + Sync, V: Send + Sync, S: Send + Sync> Send for SplitOrderMap<K, V, S> {}
unsafe impl<K: Send + Sync, V: Send + Sync, S: Send + Sync> Sync for SplitOrderMap<K, V, S> {}

impl<K, V, S> SplitOrderMap<K, V, S>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Send + Sync + 'static,
    S: BuildHasher,
{
    /// Creates a map with `buckets` initial buckets (rounded up to a power
    /// of two) and the given hasher.
    pub fn with_buckets_and_hasher(buckets: usize, hasher: S) -> SplitOrderMap<K, V, S> {
        let size = buckets.clamp(1, MAX_BUCKETS).next_power_of_two();
        let head = Box::into_raw(Node::dummy(0));
        let array = BucketArray::new(size);
        array.slots[0].store(head, Ordering::Relaxed);
        SplitOrderMap {
            hasher,
            buckets: AtomicPtr::new(Box::into_raw(array)),
            head,
            count: AtomicUsize::new(0),
        }
    }

    /// Pins the calling thread into the global domain — the guard is a
    /// lookup witness for [`Self::get`] and friends.
    pub fn pin(&self) -> RcuGuard<'static> {
        rp_rcu::pin()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Returns `true` when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current shortcut-array size (the bucket count).
    pub fn num_buckets(&self) -> usize {
        let _guard = self.pin();
        // SAFETY: the array cannot be retired and freed while this thread
        // is pinned.
        unsafe { &*self.buckets.load(Ordering::Acquire) }.size()
    }

    /// Hashes a key exactly as the map's own operations do.
    pub fn hash_one<Q>(&self, key: &Q) -> u64
    where
        Q: Hash + ?Sized,
    {
        self.hasher.hash_one(key)
    }

    /// Looks up `key` under the given read-side witness. Never writes to
    /// shared memory — marked nodes are skipped, not unlinked.
    pub fn get<'g, Q, P>(&'g self, key: &Q, protect: &'g P) -> Option<&'g V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        P: ReadProtect,
    {
        let hash = self.hash_one(key);
        self.get_matching_prehashed(hash, |k| k.borrow() == key, protect)
    }

    /// Raw lookup by precomputed hash and key predicate — the byte-keyed
    /// hot path used by the cache engine (`hash` must come from a hasher
    /// equivalent to this map's).
    pub fn get_matching_prehashed<'g, P, F>(
        &'g self,
        hash: u64,
        mut matches: F,
        protect: &'g P,
    ) -> Option<&'g V>
    where
        P: ReadProtect,
        F: FnMut(&K) -> bool,
    {
        protect.assert_protecting();
        let so_key = data_so_key(hash);
        // SAFETY: the witness keeps the current array and every reachable
        // node alive for 'g.
        let array = unsafe { &*self.buckets.load(Ordering::Acquire) };
        let mut curr = self.bucket_head(array, (hash & array.mask) as usize);
        while !curr.is_null() {
            // SAFETY: reachable node under the witness (see above).
            let node = unsafe { &*curr };
            if node.so_key > so_key {
                return None;
            }
            let next_tag = node.next.load(Ordering::Acquire);
            if node.so_key == so_key && !is_marked(next_tag) {
                if let Some((_, value)) = node.kind.entry().filter(|(key, _)| matches(key)) {
                    return Some(value);
                }
            }
            curr = ptr_of(next_tag);
        }
        None
    }

    /// Returns `true` if `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let guard = self.pin();
        self.get(key, &guard).is_some()
    }

    /// Looks up `key` and clones the value out (pins internally).
    pub fn get_cloned<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        let guard = self.pin();
        self.get(key, &guard).cloned()
    }

    /// Inserts `key → value`. Returns `true` if the key was newly
    /// inserted, `false` if an existing entry's value was replaced (the
    /// old value is retired through the deferred queue).
    ///
    /// Lock-free: a CAS loop over the ordered list. A *fresh* insert never
    /// queues or waits for reclamation, so insert-driven growth performs
    /// zero `synchronize` calls.
    pub fn insert(&self, key: K, value: V) -> bool {
        let hash = self.hash_one(&key);
        self.insert_prehashed(hash, key, value)
    }

    /// [`Self::insert`] with a precomputed hash.
    pub fn insert_prehashed(&self, hash: u64, key: K, value: V) -> bool {
        let so_key = data_so_key(hash);
        let new_node = Box::into_raw(Node::data(so_key, key, Box::into_raw(Box::new(value))));
        let mut replaced = false;
        {
            let _guard = rp_rcu::pin();
            // SAFETY: `new_node` is ours until linked; its key lives as
            // long as the node.
            let new_key: &K = match unsafe { &(*new_node).kind } {
                NodeKind::Data { key, .. } => key,
                NodeKind::Bucket => unreachable!("fresh node is data"),
            };
            loop {
                // SAFETY: pinned above.
                let array = unsafe { &*self.buckets.load(Ordering::Acquire) };
                let head = self.init_bucket(array, (hash & array.mask) as usize);
                match self.find(head, so_key, &mut |kind| match kind {
                    NodeKind::Data { key, .. } => key == new_key,
                    NodeKind::Bucket => false,
                }) {
                    FindResult::HeadDead => {
                        // The bucket head died to a shrink compaction
                        // mid-walk; loop to re-resolve (and repair) it.
                    }
                    FindResult::Found { node, .. } => {
                        let NodeKind::Data { value, .. } = &node.kind else {
                            unreachable!("found node matched the data predicate");
                        };
                        // Replace the value in place: move our fresh box
                        // into the live node, retire the old one. If a
                        // concurrent remove marks this node, the update
                        // linearizes immediately *before* that removal.
                        let fresh = match unsafe { &(*new_node).kind } {
                            NodeKind::Data { value, .. } => {
                                value.swap(ptr::null_mut(), Ordering::Relaxed)
                            }
                            NodeKind::Bucket => unreachable!(),
                        };
                        let old = value.swap(fresh, Ordering::AcqRel);
                        // SAFETY: `old` is unreachable from the node now;
                        // readers may still hold references, so defer.
                        unsafe { GraceSync::global().defer_free(old) };
                        // SAFETY: never linked; its value cell is null.
                        unsafe { drop(Box::from_raw(new_node)) };
                        replaced = true;
                        break;
                    }
                    FindResult::Missing { prev, succ } => {
                        // SAFETY: unlinked node, we are the only writer.
                        unsafe { (*new_node).next.store(succ as usize, Ordering::Relaxed) };
                        if prev
                            .compare_exchange(
                                succ as usize,
                                new_node as usize,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            break;
                        }
                    }
                }
            }
        }
        if replaced {
            false
        } else {
            let len = self.count.fetch_add(1, Ordering::Relaxed) + 1;
            self.maybe_grow(len);
            true
        }
    }

    /// Removes `key`. Returns `true` if it was present. Lock-free: the
    /// node's next pointer is marked (logical delete), then unlinked and
    /// retired through the deferred queue.
    pub fn remove<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = self.hash_one(key);
        self.remove_prehashed(hash, key)
    }

    /// [`Self::remove`] with a precomputed hash.
    pub fn remove_prehashed<Q>(&self, hash: u64, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        self.remove_if_prehashed(hash, key, |_| true)
    }

    /// Removes `key` only if `condemn` accepts the value stored under it
    /// (see [`Self::remove_matching_prehashed`] for when it is judged).
    pub fn remove_if_prehashed<Q>(
        &self,
        hash: u64,
        key: &Q,
        mut condemn: impl FnMut(&V) -> bool,
    ) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        self.remove_matching_prehashed(hash, |k, v| k.borrow() == key && condemn(v))
    }

    /// Removes the entry whose key and current value satisfy `matches`
    /// within the hash's split-order run. Returns `true` if an entry was
    /// removed.
    ///
    /// The value is judged during the walk that finds the node, so a
    /// verdict formed earlier (an expired cache item seen by a reader, say)
    /// never takes a replacement that was stored before the walk. There is
    /// no writer lock to hold the verdict and the logical delete together:
    /// an update that lands between the two is ordered before the removal,
    /// as it is for [`Self::remove`].
    pub fn remove_matching_prehashed<F>(&self, hash: u64, mut matches: F) -> bool
    where
        F: FnMut(&K, &V) -> bool,
    {
        let so_key = data_so_key(hash);
        let _guard = rp_rcu::pin();
        loop {
            // SAFETY: pinned above.
            let array = unsafe { &*self.buckets.load(Ordering::Acquire) };
            let bucket = (hash & array.mask) as usize;
            let head = self.bucket_head(array, bucket);
            match self.find(head, so_key, &mut |kind| {
                kind.entry().is_some_and(|(key, value)| matches(key, value))
            }) {
                FindResult::HeadDead => {
                    // Stale shortcut to a dummy a shrink compaction
                    // killed — repair it like a writer and retry.
                    self.init_bucket(array, bucket);
                }
                FindResult::Missing { .. } => break false,
                FindResult::Found {
                    prev,
                    node,
                    succ_tag,
                } => {
                    // Logical delete first; on failure the node was
                    // concurrently marked or its successor changed.
                    if node
                        .next
                        .compare_exchange(
                            succ_tag,
                            succ_tag | MARK,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_err()
                    {
                        continue;
                    }
                    self.count.fetch_sub(1, Ordering::Relaxed);
                    let node_ptr = node as *const Node<K, V> as *mut Node<K, V>;
                    if prev
                        .compare_exchange(
                            node_ptr as usize,
                            succ_tag,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        // SAFETY: we unlinked it; exactly one thread
                        // wins this CAS, so exactly one retire.
                        unsafe { GraceSync::global().defer_free(node_ptr) };
                    } else {
                        // Let a fresh traversal unlink and retire it.
                        let _ = self.find(head, so_key, &mut |_| false);
                    }
                    break true;
                }
            }
        }
    }

    /// Grows or shrinks the shortcut array to `buckets` (rounded to a
    /// power of two). One `compare_exchange` publishes the new array; the
    /// old one is retired without any grace-period wait, and data never
    /// moves either way. A shrink additionally runs a compaction pass that
    /// marks, unlinks, and retires the dummies of the buckets that no
    /// longer exist — without it every grow→shrink cycle would leak its
    /// dummy nodes into the list as permanent hops.
    ///
    /// An explicit grow also initializes every new bucket's dummy shortcut
    /// eagerly (re-adopting passive dummies a racing shrink has not yet
    /// compacted). The auto-grow on insert stays lazy — a single pointer
    /// publication — but an administrative resize is a writer that can
    /// afford the walk, and leaving thousands of slots null would send
    /// readers down long parent-chain fallbacks until ordinary writers
    /// happen to warm them.
    pub fn resize_to(&self, buckets: usize) {
        let target = buckets.clamp(1, MAX_BUCKETS).next_power_of_two();
        let shrank = {
            let _guard = rp_rcu::pin();
            // SAFETY: pinned above.
            let before = unsafe { &*self.buckets.load(Ordering::Acquire) }.size();
            self.publish_size(target, true);
            // SAFETY: pinned above.
            let array = unsafe { &*self.buckets.load(Ordering::Acquire) };
            // A concurrent resize may have published a different size; only
            // warm what is actually visible.
            for bucket in 0..array.size().min(target) {
                if array.slots[bucket].load(Ordering::Acquire).is_null() {
                    self.init_bucket(array, bucket);
                }
            }
            before > target
        };
        if shrank {
            self.compact();
        }
    }

    /// Unlinks and retires the passive dummies a shrink leaves behind:
    /// every bucket dummy whose index falls outside the current shortcut
    /// array is marked dead (the same logical-delete bit data nodes use),
    /// physically removed by a sweep, and reclaimed through the deferred
    /// queue like any other node.
    ///
    /// A grow racing this pass may republish a shortcut to a dummy just
    /// before it is marked. Writers recover via [`FindResult::HeadDead`]
    /// (repairing the slot in `init_bucket`); readers are protected
    /// because `find` scrubs the stale shortcut *before* retiring a dying
    /// dummy and `publish_size` re-validates freshly copied slots.
    fn compact(&self) {
        let _guard = rp_rcu::pin();
        // SAFETY: pinned — the array and every linked node stay alive.
        let array = unsafe { &*self.buckets.load(Ordering::Acquire) };
        let size = array.size();
        let mut curr = self.head;
        while !curr.is_null() {
            // SAFETY: reachable node under the pin.
            let node = unsafe { &*curr };
            let next_tag = node.next.load(Ordering::Acquire);
            if !is_marked(next_tag)
                && matches!(node.kind, NodeKind::Bucket)
                && node.so_key != 0
                && node.so_key.reverse_bits() as usize >= size
            {
                // Logical delete. A CAS failure means the successor just
                // changed under us — the next shrink's pass gets it.
                let _ = node.next.compare_exchange(
                    next_tag,
                    next_tag | MARK,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
            curr = ptr_of(node.next.load(Ordering::Acquire));
        }
        // Sweep: one full walk physically unlinks everything marked.
        let _ = self.find(self.head, u64::MAX, &mut |_| false);
    }

    /// Clears the current array's shortcut to a dying dummy, if one still
    /// points at it. Must run before the dummy is retired, so that no
    /// reader pinning *after* its grace period can reach the freed node
    /// through a stale slot (readers that already loaded the slot hold a
    /// pin, which blocks the free).
    fn scrub_shortcut(&self, dummy: *mut Node<K, V>) {
        // SAFETY: the caller is pinned and has not retired `dummy` yet.
        let bucket = unsafe { &*dummy }.so_key.reverse_bits() as usize;
        let array = unsafe { &*self.buckets.load(Ordering::Acquire) };
        if bucket < array.size() {
            let _ = array.slots[bucket].compare_exchange(
                dummy,
                ptr::null_mut(),
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
    }

    /// Total nodes currently linked into the list — bucket dummies and
    /// data nodes, marked ones included. A structural diagnostic (the
    /// shrink-compaction tests assert the leak stays fixed with it);
    /// meaningful when quiesced.
    pub fn node_count(&self) -> usize {
        let _guard = self.pin();
        let mut nodes = 0;
        let mut curr = self.head;
        while !curr.is_null() {
            nodes += 1;
            // SAFETY: reachable node under the pin.
            curr = ptr_of(unsafe { &*curr }.next.load(Ordering::Acquire));
        }
        nodes
    }

    /// A barrier: returns once everything retired before the call has been
    /// freed, after a grace period covering both reader flavors
    /// ([`GraceSync::synchronize_and_reclaim`]; test/teardown helper).
    pub fn flush_retired(&self) {
        GraceSync::global().synchronize_and_reclaim();
    }

    /// Iterates over live entries under the witness. Dummy and marked
    /// nodes are skipped. Concurrent writers may or may not be observed —
    /// the usual relativistic iteration semantics.
    pub fn iter<'g, P: ReadProtect>(&'g self, protect: &'g P) -> SplitIter<'g, K, V> {
        protect.assert_protecting();
        SplitIter {
            curr: self.head,
            _protect: PhantomData,
        }
    }

    /// Collects the live entries into a vector (pins internally).
    pub fn to_vec(&self) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let guard = self.pin();
        self.iter(&guard)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Removes every entry whose key/value fails the predicate; returns
    /// how many it removed. A scan under a pin collects the condemned keys;
    /// each is then judged again by the walk that removes it, so a value
    /// stored under the key since the scan is kept (see
    /// [`Self::remove_matching_prehashed`]) — and the predicate runs twice
    /// for an entry that goes.
    pub fn retain<F>(&self, mut f: F) -> usize
    where
        F: FnMut(&K, &V) -> bool,
        K: Clone,
    {
        let doomed: Vec<(u64, K)> = {
            let guard = self.pin();
            self.iter(&guard)
                .filter(|(k, v)| !f(k, v))
                .map(|(k, _)| (self.hash_one(k), k.clone()))
                .collect()
        };
        doomed
            .into_iter()
            .filter(|(hash, key)| {
                self.remove_matching_prehashed(*hash, |k, v| k == key && !f(k, v))
            })
            .count()
    }

    /// Structural self-check (meaningful when quiesced): split-order keys
    /// nondecreasing along the list, dummies correctly keyed and unmarked
    /// (except dead buckets' dummies awaiting a compaction sweep), every
    /// shortcut pointing at a reachable dummy for its index, and the
    /// length counter matching the live data nodes.
    pub fn check_invariants(&self) -> Result<(), String> {
        let _guard = self.pin();
        // SAFETY: pinned above.
        let array = unsafe { &*self.buckets.load(Ordering::Acquire) };
        let mut last_so: Option<u64> = None;
        let mut live = 0usize;
        let mut dummies: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut curr = self.head;
        while !curr.is_null() {
            // SAFETY: reachable node under the pin.
            let node = unsafe { &*curr };
            let next_tag = node.next.load(Ordering::Acquire);
            if let Some(prev_so) = last_so {
                if node.so_key < prev_so {
                    return Err(format!(
                        "split-order keys decreased: {prev_so:#x} -> {:#x}",
                        node.so_key
                    ));
                }
            }
            match &node.kind {
                NodeKind::Bucket => {
                    if node.so_key & 1 != 0 {
                        return Err(format!("dummy with odd so_key {:#x}", node.so_key));
                    }
                    if is_marked(next_tag) {
                        // A dying passive dummy (marked by a shrink's
                        // compaction, not yet swept) is legal only while
                        // its bucket sits outside the current array. It is
                        // not canonical, so it stays out of the dummy map.
                        let bucket = node.so_key.reverse_bits() as usize;
                        if bucket < array.size() {
                            return Err(format!("marked dummy for live bucket {bucket}"));
                        }
                    } else if dummies.insert(node.so_key, curr as usize).is_some() {
                        return Err(format!("duplicate dummy for so_key {:#x}", node.so_key));
                    }
                }
                NodeKind::Data { .. } => {
                    if node.so_key & 1 != 1 {
                        return Err(format!("data node with even so_key {:#x}", node.so_key));
                    }
                    if !is_marked(next_tag) {
                        live += 1;
                    }
                }
            }
            last_so = Some(node.so_key);
            curr = ptr_of(next_tag);
        }
        for (bucket, slot) in array.slots.iter().enumerate() {
            let ptr = slot.load(Ordering::Acquire);
            if ptr.is_null() {
                if bucket == 0 {
                    return Err("bucket 0 shortcut is null".to_string());
                }
                continue;
            }
            let expected = dummy_so_key(bucket);
            match dummies.get(&expected) {
                Some(&seen) if seen == ptr as usize => {}
                Some(_) => {
                    return Err(format!(
                        "bucket {bucket} shortcut does not point at the list's dummy"
                    ))
                }
                None => {
                    return Err(format!(
                        "bucket {bucket} shortcut points at an unreachable dummy"
                    ))
                }
            }
        }
        let counted = self.len();
        if live != counted {
            return Err(format!(
                "length counter {counted} != {live} live data nodes"
            ));
        }
        Ok(())
    }

    /// Read-side bucket-head resolution: follow the parent chain until a
    /// published shortcut is found. Bucket 0 is always published, so this
    /// terminates without ever writing.
    fn bucket_head(&self, array: &BucketArray<K, V>, mut bucket: usize) -> *mut Node<K, V> {
        loop {
            let ptr = array.slots[bucket].load(Ordering::Acquire);
            if !ptr.is_null() {
                return ptr;
            }
            bucket = parent_of(bucket);
        }
    }

    /// Writer-side bucket initialization: recursively ensure the parent is
    /// initialized, splice this bucket's dummy into the list (adopting a
    /// concurrently-spliced one), and publish the shortcut. Idempotent and
    /// lock-free; recursion depth is at most `log2(MAX_BUCKETS)`.
    ///
    /// Doubles as the repair path for shortcuts left pointing at a dummy a
    /// shrink compaction killed: the loop returns only once the slot holds
    /// an unmarked dummy, clearing and re-splicing anything marked. That
    /// post-publish validation (under the caller's pin, which also blocks
    /// the dummy's free) is what keeps a stale publish from outliving the
    /// retire-time scrub.
    ///
    /// Caller must be pinned.
    fn init_bucket(&self, array: &BucketArray<K, V>, bucket: usize) -> *mut Node<K, V> {
        let slot = &array.slots[bucket];
        loop {
            let existing = slot.load(Ordering::Acquire);
            if !existing.is_null() {
                // SAFETY: protected by the caller's pin.
                if !is_marked(unsafe { &*existing }.next.load(Ordering::Acquire)) {
                    return existing;
                }
                // The dummy died to a compaction after this shortcut was
                // published (its bucket came back via a grow racing the
                // shrink). Clear the slot and splice a fresh dummy.
                let _ = slot.compare_exchange(
                    existing,
                    ptr::null_mut(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                continue;
            }
            debug_assert!(bucket > 0, "bucket 0's dummy is never null or marked");
            let dummy = self.insert_dummy(array, bucket);
            // Losing this race is fine: the winner published the same dummy
            // (there is exactly one unmarked dummy per split-order key) —
            // and the next turn of the loop validates whatever is there.
            let _ =
                slot.compare_exchange(ptr::null_mut(), dummy, Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// Finds bucket `bucket`'s dummy in the list, or splices a new one in
    /// under its parent. Returns the canonical (live at find time) dummy.
    /// Caller must be pinned.
    fn insert_dummy(&self, array: &BucketArray<K, V>, bucket: usize) -> *mut Node<K, V> {
        let so_key = dummy_so_key(bucket);
        let mut spare: *mut Node<K, V> = ptr::null_mut();
        let found = loop {
            let head = self.init_bucket(array, parent_of(bucket));
            match self.find(head, so_key, &mut |kind| matches!(kind, NodeKind::Bucket)) {
                FindResult::HeadDead => {
                    // The parent died to a compaction mid-walk; re-resolve
                    // (and repair) it.
                    continue;
                }
                FindResult::Found { node, .. } => {
                    break node as *const Node<K, V> as *mut Node<K, V>;
                }
                FindResult::Missing { prev, succ } => {
                    if spare.is_null() {
                        spare = Box::into_raw(Node::dummy(so_key));
                    }
                    // SAFETY: `spare` is unlinked and ours.
                    unsafe { (*spare).next.store(succ as usize, Ordering::Relaxed) };
                    if prev
                        .compare_exchange(
                            succ as usize,
                            spare as usize,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        let won = spare;
                        spare = ptr::null_mut();
                        break won;
                    }
                }
            }
        };
        if !spare.is_null() {
            // SAFETY: never linked.
            unsafe { drop(Box::from_raw(spare)) };
        }
        found
    }

    /// Michael's lock-free `find`: walk from `head` to the first live node
    /// with `node.so_key >= so_key` that satisfies `matches` (scanning the
    /// whole equal-key run), physically unlinking any marked node passed —
    /// unlinked nodes are retired through the deferred queue. Caller must
    /// be pinned.
    fn find<'g, F>(
        &'g self,
        head: *mut Node<K, V>,
        so_key: u64,
        matches: &mut F,
    ) -> FindResult<'g, K, V>
    where
        F: FnMut(&NodeKind<K, V>) -> bool,
    {
        'retry: loop {
            // SAFETY: `head` is a dummy node, alive while the caller is
            // pinned (a shrink's compaction may mark it dead, but cannot
            // free it before the pin drops).
            let head_ref: &'g Node<K, V> = unsafe { &*head };
            let mut prev: &'g AtomicUsize = &head_ref.next;
            let first_tag = prev.load(Ordering::Acquire);
            if is_marked(first_tag) {
                // The start dummy was killed by a compaction; any CAS
                // through `prev` would spin forever against the mark bit.
                return FindResult::HeadDead;
            }
            let mut curr = ptr_of::<K, V>(first_tag);
            loop {
                if curr.is_null() {
                    return FindResult::Missing { prev, succ: curr };
                }
                // SAFETY: reachable node under the caller's pin; even if
                // concurrently unlinked it cannot be freed before the pin
                // drops, which also makes the prev-CAS ABA-safe.
                let node: &'g Node<K, V> = unsafe { &*curr };
                let next_tag = node.next.load(Ordering::Acquire);
                if is_marked(next_tag) {
                    let succ = ptr_of::<K, V>(next_tag);
                    if prev
                        .compare_exchange(
                            curr as usize,
                            succ as usize,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_err()
                    {
                        continue 'retry;
                    }
                    // A dying dummy's stale shortcut (if any) must be
                    // scrubbed *before* the retire — see `scrub_shortcut`.
                    if matches!(node.kind, NodeKind::Bucket) {
                        self.scrub_shortcut(curr);
                    }
                    // SAFETY: we won the unlink CAS — sole retirer.
                    unsafe { GraceSync::global().defer_free(curr) };
                    curr = succ;
                    continue;
                }
                if node.so_key > so_key {
                    return FindResult::Missing { prev, succ: curr };
                }
                if node.so_key == so_key && matches(&node.kind) {
                    return FindResult::Found {
                        prev,
                        node,
                        succ_tag: next_tag,
                    };
                }
                prev = &node.next;
                curr = ptr_of(next_tag);
            }
        }
    }

    /// Doubles the shortcut array when the load factor crosses the
    /// ceiling. Non-blocking; called after a fresh insert.
    fn maybe_grow(&self, len: usize) {
        let _guard = rp_rcu::pin();
        // SAFETY: pinned above.
        let array = unsafe { &*self.buckets.load(Ordering::Acquire) };
        let size = array.size();
        if len > size * MAX_LOAD && size < MAX_BUCKETS {
            self.publish_size(size * 2, false);
        }
    }

    /// Publishes a shortcut array of exactly `target` slots (a copy of the
    /// current one, truncated or null-extended). `allow_shrink` guards the
    /// auto-grow path against racing an explicit shrink backwards. The old
    /// array is retired via the deferred queue — **never** a blocking
    /// grace-period wait, which is the whole point of this resize design.
    ///
    /// Caller must be pinned.
    fn publish_size(&self, target: usize, allow_shrink: bool) {
        loop {
            let old_ptr = self.buckets.load(Ordering::Acquire);
            // SAFETY: caller is pinned.
            let old = unsafe { &*old_ptr };
            if old.size() == target || (!allow_shrink && old.size() > target) {
                return;
            }
            let new_ptr = Box::into_raw(old.resized_copy(target));
            match self.buckets.compare_exchange(
                old_ptr,
                new_ptr,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    // A copied shortcut may point at a dummy a concurrent
                    // compaction marked *after* the copy — re-validate the
                    // published slots under this same pin (which blocks
                    // the dummy's free), so no stale pointer survives the
                    // retire-time scrub into a fresh array.
                    // SAFETY: pinned; a marked dummy cannot be freed
                    // before this pin drops.
                    let new = unsafe { &*new_ptr };
                    for slot in new.slots.iter() {
                        let ptr = slot.load(Ordering::Acquire);
                        if !ptr.is_null()
                            && is_marked(unsafe { &*ptr }.next.load(Ordering::Acquire))
                        {
                            let _ = slot.compare_exchange(
                                ptr,
                                ptr::null_mut(),
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            );
                        }
                    }
                    // SAFETY: unpublished now; readers still inside it are
                    // covered by the grace period the deferred queue waits
                    // out before freeing.
                    unsafe { GraceSync::global().defer_free(old_ptr) };
                    return;
                }
                Err(_) => {
                    // Lost to a concurrent resize; ours was never
                    // published.
                    // SAFETY: ours alone, never shared.
                    unsafe { drop(Box::from_raw(new_ptr)) };
                }
            }
        }
    }
}

impl<K, V, S> SplitOrderMap<K, V, S>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Send + Sync + 'static,
    S: BuildHasher + Default,
{
    /// Creates an empty map with the default hasher and bucket count.
    pub fn new() -> SplitOrderMap<K, V, S> {
        SplitOrderMap::with_buckets_and_hasher(DEFAULT_BUCKETS, S::default())
    }

    /// Creates an empty map with `buckets` initial buckets.
    pub fn with_buckets(buckets: usize) -> SplitOrderMap<K, V, S> {
        SplitOrderMap::with_buckets_and_hasher(buckets, S::default())
    }
}

impl<K, V, S> Default for SplitOrderMap<K, V, S>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Send + Sync + 'static,
    S: BuildHasher + Default,
{
    fn default() -> Self {
        SplitOrderMap::new()
    }
}

impl<K, V, S> Drop for SplitOrderMap<K, V, S> {
    fn drop(&mut self) {
        // Exclusive access: free every node still linked (marked ones that
        // were never physically unlinked included — those were never
        // retired, so there is no double free) and the published array.
        // Nodes already unlinked live in the deferred queue and are freed
        // by its reclamation passes.
        let mut curr = self.head;
        while !curr.is_null() {
            // SAFETY: &mut self — no readers, no writers.
            let node = unsafe { Box::from_raw(curr) };
            curr = ptr_of(node.next.load(Ordering::Relaxed));
            drop(node);
        }
        let array = *self.buckets.get_mut();
        // SAFETY: the published array is owned by the map.
        unsafe { drop(Box::from_raw(array)) };
    }
}

/// Iterator over a [`SplitOrderMap`]'s live entries under a read witness.
pub struct SplitIter<'g, K, V> {
    curr: *mut Node<K, V>,
    _protect: PhantomData<&'g Node<K, V>>,
}

impl<'g, K, V> Iterator for SplitIter<'g, K, V> {
    type Item = (&'g K, &'g V);

    fn next(&mut self) -> Option<(&'g K, &'g V)> {
        while !self.curr.is_null() {
            // SAFETY: the iterator borrows the witness for 'g; every
            // reachable node stays alive that long.
            let node = unsafe { &*self.curr };
            let next_tag = node.next.load(Ordering::Acquire);
            self.curr = ptr_of(next_tag);
            if is_marked(next_tag) {
                continue;
            }
            if let Some(entry) = node.kind.entry() {
                return Some(entry);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_order_keys_sort_buckets_correctly() {
        // Dummies are even, data odd; bucket b's dummy precedes all data
        // hashed to b and the dummy of its future split b + size.
        assert_eq!(dummy_so_key(0), 0);
        assert!(dummy_so_key(1) > dummy_so_key(0));
        for hash in [0u64, 1, 2, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(data_so_key(hash) & 1, 1);
        }
        // hash 2 lands in bucket 2 (size 4): its so_key sits between
        // dummy(2) and dummy(3)'s ranges... concretely above dummy(2).
        assert!(data_so_key(2) > dummy_so_key(2));
        assert_eq!(parent_of(1), 0);
        assert_eq!(parent_of(2), 0);
        assert_eq!(parent_of(3), 1);
        assert_eq!(parent_of(6), 2);
        assert_eq!(parent_of(12), 4);
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let map: SplitOrderMap<u64, u64> = SplitOrderMap::new();
        assert!(map.is_empty());
        assert!(map.insert(1, 10));
        assert!(!map.insert(1, 11), "second insert replaces");
        assert!(map.insert(2, 20));
        {
            let guard = map.pin();
            assert_eq!(map.get(&1, &guard), Some(&11));
            assert_eq!(map.get(&2, &guard), Some(&20));
            assert_eq!(map.get(&3, &guard), None);
        }
        assert_eq!(map.len(), 2);
        assert!(map.remove(&1));
        assert!(!map.remove(&1));
        assert_eq!(map.len(), 1);
        assert!(map.contains_key(&2));
        map.check_invariants().unwrap();
    }

    #[test]
    fn remove_if_judges_the_value_stored_now() {
        let map: SplitOrderMap<u64, u64> = SplitOrderMap::new();
        map.insert(7, 1);
        let hash = map.hash_one(&7_u64);
        assert!(!map.remove_if_prehashed(hash, &7, |v| *v == 0));
        // A verdict formed on value 1 must not take its replacement.
        map.insert(7, 2);
        assert!(!map.remove_if_prehashed(hash, &7, |v| *v == 1));
        assert_eq!(map.get_cloned(&7), Some(2));
        assert!(map.remove_if_prehashed(hash, &7, |v| *v == 2));
        assert!(map.is_empty());
        map.check_invariants().unwrap();
    }

    #[test]
    fn qsbr_handle_serves_as_lookup_witness() {
        std::thread::spawn(|| {
            let map: SplitOrderMap<u64, String> = SplitOrderMap::new();
            map.insert(7, "seven".to_string());
            let mut handle = rp_hash::QsbrReadHandle::register();
            let copied = map.get(&7, &handle).cloned();
            handle.quiescent_state();
            assert_eq!(copied.as_deref(), Some("seven"));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn growth_is_automatic_and_never_synchronizes() {
        let map: SplitOrderMap<u64, u64> = SplitOrderMap::with_buckets(2);
        let before_buckets = map.num_buckets();
        let waits_before = rp_rcu::thread_synchronize_count();
        for i in 0..10_000 {
            assert!(map.insert(i, i));
        }
        assert_eq!(
            rp_rcu::thread_synchronize_count() - waits_before,
            0,
            "the grow path must never wait for a grace period"
        );
        assert!(
            map.num_buckets() > before_buckets,
            "load factor {} should have grown the table ({} buckets)",
            map.len() as f64 / map.num_buckets() as f64,
            map.num_buckets()
        );
        assert_eq!(map.len(), 10_000);
        let guard = map.pin();
        for i in (0..10_000).step_by(97) {
            assert_eq!(map.get(&i, &guard), Some(&i));
        }
        drop(guard);
        map.check_invariants().unwrap();
    }

    #[test]
    fn replacing_and_removing_writers_never_synchronize() {
        let map: SplitOrderMap<u64, u64> = SplitOrderMap::with_buckets(64);
        let waits = rp_rcu::thread_synchronize_count();
        for round in 0..8 {
            for i in 0..1024 {
                map.insert(i, round);
            }
            for i in 0..512 {
                assert!(map.remove(&i));
            }
        }
        assert_eq!(
            rp_rcu::thread_synchronize_count(),
            waits,
            "retiring must never wait for a grace period"
        );
        map.flush_retired();
    }

    #[test]
    fn shrink_keeps_entries_and_regrow_rebuilds_dummies() {
        let map: SplitOrderMap<u64, u64> = SplitOrderMap::with_buckets(64);
        for i in 0..100 {
            map.insert(i, i * 2);
        }
        map.check_invariants().unwrap();
        map.resize_to(4);
        assert_eq!(map.num_buckets(), 4);
        map.check_invariants().unwrap();
        let guard = map.pin();
        for i in 0..100 {
            assert_eq!(map.get(&i, &guard), Some(&(i * 2)));
        }
        drop(guard);
        map.resize_to(256);
        assert_eq!(map.num_buckets(), 256);
        // Touch every key; lazy bucket init rebuilds the dummies the
        // shrink's compaction reclaimed.
        for i in 0..100 {
            assert!(!map.insert(i, i * 3));
        }
        let guard = map.pin();
        for i in 0..100 {
            assert_eq!(map.get(&i, &guard), Some(&(i * 3)));
        }
        drop(guard);
        map.check_invariants().unwrap();
        map.flush_retired();
    }

    #[test]
    fn shrink_compaction_reclaims_dead_dummies() {
        let map: SplitOrderMap<u64, u64> = SplitOrderMap::with_buckets(4);
        for i in 0..100 {
            map.insert(i, i);
        }
        // Establish the baseline shape at 4 buckets (the inserts auto-grew
        // the array, so this first shrink already compacts).
        map.resize_to(4);
        map.flush_retired();
        let baseline = map.node_count();
        map.check_invariants().unwrap();

        map.resize_to(256); // eager warm links ~252 extra dummies
        assert!(map.node_count() > baseline, "grow must add dummies");
        map.resize_to(4); // shrink marks + sweeps them
        map.flush_retired();
        assert_eq!(
            map.node_count(),
            baseline,
            "a grow→shrink cycle must not leak dummy nodes into the list"
        );
        map.check_invariants().unwrap();

        // Entries survived and a later regrow rebuilds fresh dummies.
        let guard = map.pin();
        for i in 0..100 {
            assert_eq!(map.get(&i, &guard), Some(&i));
        }
        drop(guard);
        map.resize_to(64);
        for i in 0..100 {
            assert!(!map.insert(i, i + 1), "keys persist across compaction");
        }
        let guard = map.pin();
        for i in 0..100 {
            assert_eq!(map.get(&i, &guard), Some(&(i + 1)));
        }
        drop(guard);
        map.check_invariants().unwrap();
        map.flush_retired();
    }

    #[test]
    fn iter_skips_dummies_and_sees_every_entry() {
        let map: SplitOrderMap<u64, u64> = SplitOrderMap::with_buckets(2);
        for i in 0..500 {
            map.insert(i, i + 1);
        }
        map.resize_to(64); // force plenty of dummies into the list
        for i in 500..600 {
            map.insert(i, i + 1);
        }
        let mut entries = map.to_vec();
        entries.sort_unstable();
        assert_eq!(entries.len(), 600);
        for (i, (k, v)) in entries.into_iter().enumerate() {
            assert_eq!(k, i as u64);
            assert_eq!(v, k + 1);
        }
    }

    #[test]
    fn retain_removes_matching_entries() {
        let map: SplitOrderMap<u64, u64> = SplitOrderMap::new();
        for i in 0..64 {
            map.insert(i, i);
        }
        assert_eq!(map.retain(|_, v| v % 2 == 0), 32);
        assert_eq!(map.len(), 32);
        let guard = map.pin();
        assert!(map.get(&2, &guard).is_some());
        assert!(map.get(&3, &guard).is_none());
        drop(guard);
        map.check_invariants().unwrap();
    }

    #[test]
    fn retain_spares_a_value_stored_after_its_verdict() {
        // The map is lock-free, so an insert may land between the scan
        // that condemns an entry and the pass that removes it — here from
        // inside the scan itself, as a SET racing `purge_expired` would.
        let map: SplitOrderMap<u64, &str> = SplitOrderMap::new();
        for k in 0..8 {
            map.insert(k, "stale");
        }
        let removed = map.retain(|k, v| {
            if *k == 3 && *v == "stale" {
                map.insert(3, "fresh");
            }
            *v != "stale"
        });
        assert_eq!(removed, 7);
        assert_eq!(map.to_vec(), vec![(3, "fresh")]);
        map.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_writers_and_readers_storm() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let map: Arc<SplitOrderMap<u64, u64>> = Arc::new(SplitOrderMap::with_buckets(2));
        for k in 0..256u64 {
            map.insert(k, k);
        }
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for seed in 0..2u64 {
                let map = Arc::clone(&map);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut x = 0x9E37 + seed;
                    while !stop.load(Ordering::Relaxed) {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = x % 256;
                        let guard = map.pin();
                        assert_eq!(map.get(&k, &guard).copied(), Some(k), "stable key lost");
                    }
                });
            }
            for w in 0..2u64 {
                let map = Arc::clone(&map);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let base = 1_000 + w * 10_000;
                    while !stop.load(Ordering::Relaxed) {
                        for i in 0..512 {
                            map.insert(base + i, i);
                        }
                        for i in 0..512 {
                            map.remove(&(base + i));
                        }
                    }
                });
            }
            {
                let map = Arc::clone(&map);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut round = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        map.resize_to(if round.is_multiple_of(2) { 128 } else { 4 });
                        round += 1;
                        std::thread::yield_now();
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(200));
            stop.store(true, Ordering::SeqCst);
        });
        assert_eq!(map.len(), 256);
        map.check_invariants().unwrap();
        map.flush_retired();
    }
}
