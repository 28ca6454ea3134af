//! The DDDS ("Dynamic Dynamic Data Structures") resizable-table baseline.
//!
//! The paper characterises DDDS as follows: during a resize, readers must
//! check **both** the old and the new table, and must retry (wait) when a
//! resize transition races with their two-table check. The common case (no
//! resize in progress) is fast, but lookups slow down significantly while a
//! resize runs — which is exactly the behaviour the paper's
//! continuous-resize figure shows.
//!
//! This implementation follows that description:
//!
//! * A resize **copies** every entry from the old bucket array into a new
//!   one (fresh nodes), in contrast to the relativistic algorithm which
//!   relinks the existing nodes in place.
//! * While the copy is in progress (`seq` is odd), lookups search the new
//!   table first and fall back to the old one.
//! * A sequence counter detects the resize transitions; a lookup that
//!   straddles one retries.
//! * Node reclamation reuses the workspace's deferred-free queue and its
//!   all-flavor grace periods, [`rp_rcu::GraceSync`] (the original DDDS
//!   sits on equivalent kernel lifetime machinery), so readers can traverse
//!   chains without per-bucket locks; the *algorithmic* differences under
//!   study — two-table lookups, retries and full-copy resizes — are
//!   preserved.

use std::hash::{BuildHasher, Hash};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use parking_lot::Mutex;

use rp_hash::FnvBuildHasher;
use rp_rcu::{GraceSync, RcuGuard};

struct DNode<K, V> {
    next: AtomicPtr<DNode<K, V>>,
    hash: u64,
    key: K,
    value: V,
}

struct DBuckets<K, V> {
    mask: usize,
    heads: Box<[AtomicPtr<DNode<K, V>>]>,
}

impl<K, V> DBuckets<K, V> {
    fn new(n: usize) -> Box<Self> {
        let n = n.max(1).next_power_of_two();
        Box::new(DBuckets {
            mask: n - 1,
            heads: (0..n)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        })
    }
}

/// A resizable concurrent hash table in the DDDS style (see module docs).
pub struct DddsTable<K, V, S = FnvBuildHasher> {
    /// Resize sequence counter: odd while a resize is in progress.
    seq: AtomicUsize,
    /// The table new entries go into (and the only table outside resizes).
    current: AtomicPtr<DBuckets<K, V>>,
    /// The table being drained; null outside resizes.
    old: AtomicPtr<DBuckets<K, V>>,
    writer: Mutex<()>,
    len: AtomicUsize,
    hasher: S,
}

// SAFETY: same reasoning as for `RpHashMap` — `&K`/`&V` are shared with
// reader threads and nodes are dropped on whichever thread reclaims them, so
// both must be `Send + Sync`; the hasher is shared by reference.
unsafe impl<K: Send + Sync, V: Send + Sync, S: Send> Send for DddsTable<K, V, S> {}
// SAFETY: see above.
unsafe impl<K: Send + Sync, V: Send + Sync, S: Sync> Sync for DddsTable<K, V, S> {}

impl<K, V> DddsTable<K, V, FnvBuildHasher> {
    /// Creates an empty table with `buckets` buckets.
    pub fn with_buckets(buckets: usize) -> Self {
        Self::with_buckets_and_hasher(buckets, FnvBuildHasher)
    }
}

impl<K, V, S> DddsTable<K, V, S> {
    /// Creates an empty table with `buckets` buckets and the given hasher.
    pub fn with_buckets_and_hasher(buckets: usize, hasher: S) -> Self {
        DddsTable {
            seq: AtomicUsize::new(0),
            current: AtomicPtr::new(Box::into_raw(DBuckets::new(buckets))),
            old: AtomicPtr::new(std::ptr::null_mut()),
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
        // SAFETY: `current` always points to a live bucket array, and one
        // retired by a resize is freed only after a grace period, which the
        // pin holds off until the read is done.
        unsafe { &*self.current.load(Ordering::Acquire) }.mask + 1
    }

    /// Returns `true` while a resize is in progress.
    pub fn resize_in_progress(&self) -> bool {
        self.seq.load(Ordering::Acquire) % 2 == 1
    }
}

impl<K, V, S> DddsTable<K, V, S>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: BuildHasher,
{
    fn hash_of<Q>(&self, key: &Q) -> u64
    where
        Q: Hash + ?Sized,
    {
        self.hasher.hash_one(key)
    }

    fn search<'g>(
        buckets: &'g DBuckets<K, V>,
        hash: u64,
        key: &K,
        _guard: &'g RcuGuard<'_>,
    ) -> Option<&'g V> {
        let mut cur = buckets.heads[(hash as usize) & buckets.mask].load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: nodes and bucket arrays are retired through the global
            // RCU domain only after being unpublished, and the guard keeps
            // the grace period open, so the node is alive and immutable
            // (except for `next`, which we load atomically).
            let node = unsafe { &*cur };
            if node.hash == hash && &node.key == key {
                return Some(&node.value);
            }
            cur = node.next.load(Ordering::Acquire);
        }
        None
    }

    /// Looks up `key`, cloning the value out.
    ///
    /// Outside a resize this is a single-table search plus two sequence
    /// loads. During a resize it searches both tables; if the resize
    /// transitions underneath it, it retries.
    pub fn get_cloned(&self, key: &K) -> Option<V> {
        let hash = self.hash_of(key);
        let guard = rp_rcu::pin();
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            // SAFETY: published bucket array, protected by the guard (see
            // `search`).
            let current = unsafe { &*self.current.load(Ordering::Acquire) };
            let mut found = Self::search(current, hash, key, &guard).cloned();
            if found.is_none() {
                let old = self.old.load(Ordering::Acquire);
                if !old.is_null() {
                    // SAFETY: as above; the old array is retired only after
                    // a grace period following its unpublication.
                    found = Self::search(unsafe { &*old }, hash, key, &guard).cloned();
                }
            }
            let s2 = self.seq.load(Ordering::Acquire);
            if s1 == s2 {
                return found;
            }
            // A resize started or finished between our two observations; the
            // entry may have moved between tables — retry.
        }
    }

    /// Inserts `key → value`; returns `true` if the key was newly inserted.
    pub fn insert_kv(&self, key: K, value: V) -> bool {
        let hash = self.hash_of(&key);
        let _w = self.writer.lock();
        // Remove any existing occurrence (in either table) first, then push
        // a fresh node to the current table's bucket head.
        let existed = self.remove_locked(hash, &key);
        // SAFETY: writer lock held; `current` cannot be retired concurrently.
        let current = unsafe { &*self.current.load(Ordering::Acquire) };
        let bucket = (hash as usize) & current.mask;
        let node = Box::into_raw(Box::new(DNode {
            next: AtomicPtr::new(current.heads[bucket].load(Ordering::Acquire)),
            hash,
            key,
            value,
        }));
        current.heads[bucket].store(node, Ordering::Release);
        if !existed {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        !existed
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove_key(&self, key: &K) -> bool {
        let hash = self.hash_of(key);
        let _w = self.writer.lock();
        let removed = self.remove_locked(hash, key);
        if removed {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Unlinks `key` from whichever table currently holds it. Writer lock
    /// must be held. Does not adjust `len`.
    fn remove_locked(&self, hash: u64, key: &K) -> bool {
        let mut removed = false;
        for table_ptr in [
            self.current.load(Ordering::Acquire),
            self.old.load(Ordering::Acquire),
        ] {
            if table_ptr.is_null() {
                continue;
            }
            // SAFETY: writer lock held; tables are only retired by `resize`,
            // which also requires the writer lock.
            let table = unsafe { &*table_ptr };
            let bucket = (hash as usize) & table.mask;
            let mut prev: Option<NonNull<DNode<K, V>>> = None;
            let mut cur = table.heads[bucket].load(Ordering::Acquire);
            while !cur.is_null() {
                // SAFETY: reachable node, protected by the writer lock.
                let node = unsafe { &*cur };
                let next = node.next.load(Ordering::Acquire);
                if node.hash == hash && &node.key == key {
                    match prev {
                        // SAFETY: predecessor node, alive under the lock.
                        Some(p) => unsafe { p.as_ref() }.next.store(next, Ordering::Release),
                        None => table.heads[bucket].store(next, Ordering::Release),
                    }
                    // SAFETY: unlinked, allocated by `Box::into_raw`,
                    // readers pin the global domain.
                    unsafe { GraceSync::global().defer_free(cur) };
                    removed = true;
                    break;
                }
                prev = NonNull::new(cur);
                cur = next;
            }
        }
        removed
    }

    /// Resizes the table to `buckets` buckets by copying every entry into a
    /// fresh bucket array.
    ///
    /// Lookups issued while this runs pay the two-table search and possible
    /// retries; the copy itself allocates a new node per entry.
    pub fn resize(&self, buckets: usize) {
        let _w = self.writer.lock();
        let new = Box::into_raw(DBuckets::<K, V>::new(buckets));
        let old = self.current.load(Ordering::Acquire);

        // Enter the resize window: readers now check both tables.
        self.old.store(old, Ordering::Release);
        self.current.store(new, Ordering::Release);
        self.seq.fetch_add(1, Ordering::AcqRel); // odd: resize in progress

        // SAFETY: writer lock held; `old` and `new` stay valid for the whole
        // copy (they are only retired below / by a later resize).
        let (old_ref, new_ref) = unsafe { (&*old, &*new) };
        for head in old_ref.heads.iter() {
            let mut cur = head.load(Ordering::Acquire);
            while !cur.is_null() {
                // SAFETY: reachable node under the writer lock.
                let node = unsafe { &*cur };
                let bucket = (node.hash as usize) & new_ref.mask;
                let copy = Box::into_raw(Box::new(DNode {
                    next: AtomicPtr::new(new_ref.heads[bucket].load(Ordering::Acquire)),
                    hash: node.hash,
                    key: node.key.clone(),
                    value: node.value.clone(),
                }));
                new_ref.heads[bucket].store(copy, Ordering::Release);
                cur = node.next.load(Ordering::Acquire);
            }
        }

        // Leave the resize window and retire the old table (array + nodes)
        // after a grace period.
        self.old.store(std::ptr::null_mut(), Ordering::Release);
        self.seq.fetch_add(1, Ordering::AcqRel); // even again

        let retired = GraceSync::global();
        for head in old_ref.heads.iter() {
            let mut cur = head.load(Ordering::Acquire);
            while !cur.is_null() {
                // SAFETY: the old table is unpublished (readers that still
                // see it are covered by the grace period); every node in it
                // has been copied, so these originals are garbage.
                let next = unsafe { &*cur }.next.load(Ordering::Acquire);
                // SAFETY: allocated by `Box::into_raw`, unreachable to new
                // readers, freed after a grace period.
                unsafe { retired.defer_free(cur) };
                cur = next;
            }
        }
        // SAFETY: `old` is unpublished and unique; freeing it is deferred
        // until after a grace period.
        unsafe { retired.defer_free(old) };
    }
}

impl<K, V, S> Drop for DddsTable<K, V, S> {
    fn drop(&mut self) {
        // Exclusive access; free whatever the two table slots still own.
        for slot in [&self.current, &self.old] {
            let table_ptr = slot.load(Ordering::Relaxed);
            if table_ptr.is_null() {
                continue;
            }
            // SAFETY: exclusive access; the array and its nodes are owned by
            // the table and freed exactly once (retired nodes were unlinked
            // and are owned by the RCU domain instead).
            let table = unsafe { Box::from_raw(table_ptr) };
            for head in table.heads.iter() {
                let mut cur = head.load(Ordering::Relaxed);
                while !cur.is_null() {
                    // SAFETY: as above.
                    let node = unsafe { Box::from_raw(cur) };
                    cur = node.next.load(Ordering::Relaxed);
                }
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
        let t: DddsTable<u64, u64> = DddsTable::with_buckets(8);
        assert!(t.insert_kv(1, 10));
        assert!(!t.insert_kv(1, 11));
        assert_eq!(t.get_cloned(&1), Some(11));
        assert_eq!(t.get_cloned(&2), None);
        assert!(t.remove_key(&1));
        assert!(!t.remove_key(&1));
        assert!(t.is_empty());
    }

    #[test]
    fn resize_preserves_entries() {
        let t: DddsTable<u64, u64> = DddsTable::with_buckets(8);
        for i in 0..200 {
            t.insert_kv(i, i * 7);
        }
        t.resize(64);
        assert_eq!(t.num_buckets(), 64);
        assert_eq!(t.len(), 200);
        for i in 0..200 {
            assert_eq!(t.get_cloned(&i), Some(i * 7));
        }
        t.resize(4);
        assert_eq!(t.num_buckets(), 4);
        for i in 0..200 {
            assert_eq!(t.get_cloned(&i), Some(i * 7));
        }
        GraceSync::global().synchronize_and_reclaim();
    }

    #[test]
    fn lookups_survive_continuous_resizing() {
        let t: Arc<DddsTable<u64, u64>> = Arc::new(DddsTable::with_buckets(16));
        for i in 0..512 {
            t.insert_kv(i, i);
        }
        let stop = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..3)
            .map(|seed| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut key = seed as u64;
                    while !stop.load(Ordering::Relaxed) {
                        key = (key * 31 + 7) % 512;
                        assert_eq!(t.get_cloned(&key), Some(key), "reader missed key {key}");
                    }
                })
            })
            .collect();

        let resizer = {
            let t = Arc::clone(&t);
            thread::spawn(move || {
                for round in 0..30 {
                    t.resize(if round % 2 == 0 { 64 } else { 16 });
                }
            })
        };

        resizer.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        GraceSync::global().synchronize_and_reclaim();
    }

    /// `resize` never waits to free the table it copied from, so a caller
    /// that is itself a reader (its QSBR handle online) resizes freely, and
    /// nothing is freed until it is quiescent.
    #[test]
    fn an_online_qsbr_thread_resizes_without_reclaiming() {
        use std::sync::atomic::AtomicUsize;

        #[derive(Clone)]
        struct CountsDrop(Arc<AtomicUsize>);
        impl Drop for CountsDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        // On a thread of its own: the online state is thread-local.
        thread::spawn(|| {
            let drops = Arc::new(AtomicUsize::new(0));
            let t: DddsTable<u64, CountsDrop> = DddsTable::with_buckets(64);
            for i in 0..5_000 {
                t.insert_kv(i, CountsDrop(Arc::clone(&drops)));
            }
            let mut handle = rp_hash::QsbrReadHandle::register();
            let waits = rp_rcu::thread_synchronize_count();
            // 5 001 frees queued: the reclaim thread's pass takes them and
            // waits for this thread.
            t.resize(128);
            assert_eq!(rp_rcu::thread_synchronize_count(), waits, "waited");
            // No pass anywhere can complete while this thread is online.
            assert_eq!(drops.load(Ordering::SeqCst), 0, "frees stay queued");
            assert_eq!(t.len(), 5_000);

            handle.offline();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while drops.load(Ordering::SeqCst) < 5_000 && std::time::Instant::now() < deadline {
                // Another test's pass may hold the batch; ours runs after it.
                GraceSync::global().synchronize_and_reclaim();
            }
            assert_eq!(drops.load(Ordering::SeqCst), 5_000, "the copied-from nodes");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn writers_and_resizes_never_synchronize() {
        let t: DddsTable<u64, u64> = DddsTable::with_buckets(16);
        let waits = rp_rcu::thread_synchronize_count();
        for round in 0..4 {
            for i in 0..2048 {
                t.insert_kv(i, round);
            }
            t.resize(if round % 2 == 0 { 1024 } else { 64 });
            for i in 0..1024 {
                assert!(t.remove_key(&i));
            }
        }
        assert_eq!(rp_rcu::thread_synchronize_count(), waits);
        GraceSync::global().synchronize_and_reclaim();
    }

    #[test]
    fn resize_in_progress_flag_settles() {
        let t: DddsTable<u64, u64> = DddsTable::with_buckets(4);
        assert!(!t.resize_in_progress());
        t.resize(16);
        assert!(!t.resize_in_progress());
    }
}
