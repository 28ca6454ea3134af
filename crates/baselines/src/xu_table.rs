//! Herbert Xu's dual-chain resizable hash table (related-work baseline).
//!
//! In Xu's design every node carries **two** sets of chain pointers, so two
//! bucket arrays can link the same nodes simultaneously. A resize builds the
//! new table's linkage through the spare pointer set while readers keep
//! following the active one, publishes the new table, flips which pointer
//! set is active, and waits for a single grace period. The cost the paper
//! calls out is memory: twice the per-node pointer overhead, all the time —
//! the relativistic unzip algorithm achieves resizing with a single pointer
//! per node.

use std::hash::{BuildHasher, Hash};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use parking_lot::Mutex;

use rp_hash::FnvBuildHasher;
use rp_rcu::GraceSync;

struct XNode<K, V> {
    /// Two independent chain linkages; `active` selects which one readers
    /// follow.
    next: [AtomicPtr<XNode<K, V>>; 2],
    hash: u64,
    key: K,
    value: V,
}

struct XBuckets<K, V> {
    mask: usize,
    heads: Box<[AtomicPtr<XNode<K, V>>]>,
}

impl<K, V> XBuckets<K, V> {
    fn new(n: usize) -> Box<Self> {
        let n = n.max(1).next_power_of_two();
        Box::new(XBuckets {
            mask: n - 1,
            heads: (0..n)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        })
    }
}

/// A resizable concurrent hash table with per-node dual chain pointers.
pub struct XuTable<K, V, S = FnvBuildHasher> {
    /// Which linkage (0 or 1) readers currently follow.
    active: AtomicUsize,
    /// Bucket arrays per linkage; the inactive slot is null outside resizes.
    tables: [AtomicPtr<XBuckets<K, V>>; 2],
    writer: Mutex<()>,
    len: AtomicUsize,
    hasher: S,
}

// SAFETY: same sharing pattern as the other tables in this crate: `&K`/`&V`
// are handed to reader threads and nodes are reclaimed on arbitrary threads.
unsafe impl<K: Send + Sync, V: Send + Sync, S: Send> Send for XuTable<K, V, S> {}
// SAFETY: see above.
unsafe impl<K: Send + Sync, V: Send + Sync, S: Sync> Sync for XuTable<K, V, S> {}

impl<K, V> XuTable<K, V, FnvBuildHasher> {
    /// Creates an empty table with `buckets` buckets.
    pub fn with_buckets(buckets: usize) -> Self {
        Self::with_buckets_and_hasher(buckets, FnvBuildHasher)
    }
}

impl<K, V, S> XuTable<K, V, S> {
    /// Creates an empty table with `buckets` buckets and the given hasher.
    pub fn with_buckets_and_hasher(buckets: usize, hasher: S) -> Self {
        XuTable {
            active: AtomicUsize::new(0),
            tables: [
                AtomicPtr::new(Box::into_raw(XBuckets::new(buckets))),
                AtomicPtr::new(std::ptr::null_mut()),
            ],
            writer: Mutex::new(()),
            len: AtomicUsize::new(0),
            hasher,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current number of buckets.
    pub fn num_buckets(&self) -> usize {
        let _guard = rp_rcu::pin();
        let active = self.active.load(Ordering::Acquire);
        // SAFETY: the active slot held a live bucket array when it was
        // loaded; a flip frees it only after a grace period, which the pin
        // holds off until the read is done.
        unsafe { &*self.tables[active].load(Ordering::Acquire) }.mask + 1
    }

    /// Per-node chain-pointer overhead in units of `usize` (for the memory
    /// ablation bench): this design pays two words per node where the
    /// relativistic table pays one.
    pub const fn next_pointers_per_node() -> usize {
        2
    }
}

impl<K, V, S> XuTable<K, V, S>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: BuildHasher,
{
    fn hash_of(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Looks up `key`, cloning the value out.
    pub fn get_cloned(&self, key: &K) -> Option<V> {
        let hash = self.hash_of(key);
        let _guard = rp_rcu::pin();
        let active = self.active.load(Ordering::Acquire);
        // SAFETY: the active bucket array and the nodes reachable from it
        // are retired only after a grace period; the guard keeps them alive.
        let table = unsafe { &*self.tables[active].load(Ordering::Acquire) };
        let mut cur = table.heads[(hash as usize) & table.mask].load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: as above.
            let node = unsafe { &*cur };
            if node.hash == hash && &node.key == key {
                return Some(node.value.clone());
            }
            cur = node.next[active].load(Ordering::Acquire);
        }
        None
    }

    /// Inserts `key → value`; returns `true` if the key was newly inserted.
    pub fn insert_kv(&self, key: K, value: V) -> bool {
        let hash = self.hash_of(&key);
        let _w = self.writer.lock();
        let active = self.active.load(Ordering::Acquire);
        let existed = self.remove_locked(active, hash, &key);
        // SAFETY: writer lock held; the active array cannot be retired.
        let table = unsafe { &*self.tables[active].load(Ordering::Acquire) };
        let bucket = (hash as usize) & table.mask;
        let node = Box::into_raw(Box::new(XNode {
            next: [
                AtomicPtr::new(std::ptr::null_mut()),
                AtomicPtr::new(std::ptr::null_mut()),
            ],
            hash,
            key,
            value,
        }));
        // SAFETY: freshly allocated, unpublished.
        unsafe { &*node }.next[active].store(
            table.heads[bucket].load(Ordering::Acquire),
            Ordering::Relaxed,
        );
        table.heads[bucket].store(node, Ordering::Release);
        if !existed {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        !existed
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove_key(&self, key: &K) -> bool {
        let hash = self.hash_of(key);
        let _w = self.writer.lock();
        let active = self.active.load(Ordering::Acquire);
        let removed = self.remove_locked(active, hash, key);
        if removed {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Unlinks `key` from the active linkage. Writer lock must be held.
    fn remove_locked(&self, active: usize, hash: u64, key: &K) -> bool {
        // SAFETY: writer lock held.
        let table = unsafe { &*self.tables[active].load(Ordering::Acquire) };
        let bucket = (hash as usize) & table.mask;
        let mut prev: Option<NonNull<XNode<K, V>>> = None;
        let mut cur = table.heads[bucket].load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: reachable node protected by the writer lock.
            let node = unsafe { &*cur };
            let next = node.next[active].load(Ordering::Acquire);
            if node.hash == hash && &node.key == key {
                match prev {
                    // SAFETY: predecessor node, alive under the lock.
                    Some(p) => unsafe { p.as_ref() }.next[active].store(next, Ordering::Release),
                    None => table.heads[bucket].store(next, Ordering::Release),
                }
                // SAFETY: unlinked, allocated by `Box::into_raw`, readers
                // pin the global domain.
                unsafe { GraceSync::global().defer_free(cur) };
                return true;
            }
            prev = NonNull::new(cur);
            cur = next;
        }
        false
    }

    /// Resizes the table to `buckets` buckets by building the spare linkage
    /// and flipping the active index (one grace period, no per-node copies).
    pub fn resize(&self, buckets: usize) {
        let _w = self.writer.lock();
        let active = self.active.load(Ordering::Acquire);
        let inactive = 1 - active;
        // SAFETY: writer lock held.
        let old_table = unsafe { &*self.tables[active].load(Ordering::Acquire) };
        let new_table = XBuckets::<K, V>::new(buckets);

        // Build the new linkage through the spare pointer set. Readers keep
        // traversing the active linkage, which we never touch.
        for head in old_table.heads.iter() {
            let mut cur = head.load(Ordering::Acquire);
            while !cur.is_null() {
                // SAFETY: reachable node under the writer lock.
                let node = unsafe { &*cur };
                let bucket = (node.hash as usize) & new_table.mask;
                node.next[inactive].store(
                    new_table.heads[bucket].load(Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                new_table.heads[bucket].store(cur, Ordering::Relaxed);
                cur = node.next[active].load(Ordering::Acquire);
            }
        }

        // Publish the new bucket array, flip the active index, and wait for
        // readers still traversing the old linkage.
        self.tables[inactive].store(Box::into_raw(new_table), Ordering::Release);
        self.active.store(inactive, Ordering::Release);
        GraceSync::global().synchronize();

        // The old bucket array is no longer referenced; the nodes live on.
        let old_ptr = self.tables[active].swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: unpublished after a grace period, uniquely owned.
        drop(unsafe { Box::from_raw(old_ptr) });
    }
}

impl<K, V, S> Drop for XuTable<K, V, S> {
    fn drop(&mut self) {
        let active = self.active.load(Ordering::Relaxed);
        // Free the nodes through the active linkage, then both arrays.
        let active_ptr = self.tables[active].load(Ordering::Relaxed);
        if !active_ptr.is_null() {
            // SAFETY: exclusive access; every live node is reachable from
            // the active linkage exactly once.
            let table = unsafe { &*active_ptr };
            for head in table.heads.iter() {
                let mut cur = head.load(Ordering::Relaxed);
                while !cur.is_null() {
                    // SAFETY: as above.
                    let node = unsafe { Box::from_raw(cur) };
                    cur = node.next[active].load(Ordering::Relaxed);
                }
            }
        }
        for slot in &self.tables {
            let ptr = slot.load(Ordering::Relaxed);
            if !ptr.is_null() {
                // SAFETY: exclusive access; arrays are freed exactly once.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn basic_operations() {
        let t: XuTable<u64, u64> = XuTable::with_buckets(8);
        assert!(t.insert_kv(1, 10));
        assert!(!t.insert_kv(1, 11));
        assert_eq!(t.get_cloned(&1), Some(11));
        assert_eq!(t.get_cloned(&2), None);
        assert!(t.remove_key(&1));
        assert!(t.is_empty());
    }

    #[test]
    fn resize_preserves_entries_without_copying() {
        let t: XuTable<u64, u64> = XuTable::with_buckets(4);
        for i in 0..100 {
            t.insert_kv(i, i + 1);
        }
        t.resize(64);
        assert_eq!(t.num_buckets(), 64);
        for i in 0..100 {
            assert_eq!(t.get_cloned(&i), Some(i + 1));
        }
        t.resize(8);
        assert_eq!(t.num_buckets(), 8);
        for i in 0..100 {
            assert_eq!(t.get_cloned(&i), Some(i + 1));
        }
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn lookups_survive_continuous_resizing() {
        let t: Arc<XuTable<u64, u64>> = Arc::new(XuTable::with_buckets(16));
        for i in 0..256 {
            t.insert_kv(i, i);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|seed| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut key = seed as u64;
                    while !stop.load(Ordering::Relaxed) {
                        key = (key * 17 + 3) % 256;
                        assert_eq!(t.get_cloned(&key), Some(key));
                    }
                })
            })
            .collect();
        for round in 0..20 {
            t.resize(if round % 2 == 0 { 64 } else { 16 });
        }
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        GraceSync::global().synchronize_and_reclaim();
    }

    #[test]
    fn updates_after_resize_work() {
        let t: XuTable<u64, u64> = XuTable::with_buckets(4);
        for i in 0..32 {
            t.insert_kv(i, i);
        }
        t.resize(32);
        for i in 0..16 {
            assert!(t.remove_key(&i));
        }
        for i in 32..40 {
            assert!(t.insert_kv(i, i));
        }
        assert_eq!(t.len(), 24);
        for i in 16..40 {
            assert_eq!(t.get_cloned(&i), Some(i));
        }
    }

    #[test]
    fn overhead_constant_reports_two_pointers() {
        assert_eq!(XuTable::<u64, u64>::next_pointers_per_node(), 2);
    }
}
