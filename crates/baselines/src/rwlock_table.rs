//! A global reader-writer-locked hash table (the paper's `rwlock` baseline).

use std::hash::{BuildHasher, Hash};

use parking_lot::RwLock;

use rp_hash::FnvBuildHasher;

/// A hash table protected by one process-wide reader-writer lock.
///
/// Lookups take the lock in shared mode, so they never block each other
/// logically — but every acquisition performs an atomic read-modify-write on
/// the lock word, which serialises readers on a single cache line. This is
/// the design whose lookup throughput the paper shows staying flat (or
/// degrading) as reader threads are added.
pub struct RwLockTable<K, V, S = FnvBuildHasher> {
    inner: RwLock<Inner<K, V>>,
    hasher: S,
}

struct Inner<K, V> {
    mask: usize,
    len: usize,
    buckets: Vec<Vec<(K, V)>>,
}

impl<K, V> Inner<K, V> {
    fn new(buckets: usize) -> Self {
        let buckets = buckets.max(1).next_power_of_two();
        Inner {
            mask: buckets - 1,
            len: 0,
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
        }
    }
}

impl<K, V> RwLockTable<K, V, FnvBuildHasher> {
    /// Creates an empty table with `buckets` buckets.
    pub fn with_buckets(buckets: usize) -> Self {
        Self::with_buckets_and_hasher(buckets, FnvBuildHasher)
    }
}

impl<K, V, S> RwLockTable<K, V, S> {
    /// Creates an empty table with `buckets` buckets and the given hasher.
    pub fn with_buckets_and_hasher(buckets: usize, hasher: S) -> Self {
        RwLockTable {
            inner: RwLock::new(Inner::new(buckets)),
            hasher,
        }
    }
}

impl<K, V, S> RwLockTable<K, V, S>
where
    K: Hash + Eq,
    S: BuildHasher,
{
    fn bucket_of(&self, inner: &Inner<K, V>, key: &K) -> usize {
        (self.hasher.hash_one(key) as usize) & inner.mask
    }

    /// Looks up `key` under the read lock.
    pub fn get_cloned(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let inner = self.inner.read();
        let b = self.bucket_of(&inner, key);
        inner.buckets[b]
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    /// Inserts `key → value` under the write lock.
    pub fn insert_kv(&self, key: K, value: V) -> bool {
        let mut inner = self.inner.write();
        let b = self.bucket_of(&inner, &key);
        if let Some(slot) = inner.buckets[b].iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
            false
        } else {
            inner.buckets[b].push((key, value));
            inner.len += 1;
            true
        }
    }

    /// Removes `key` under the write lock.
    pub fn remove_key(&self, key: &K) -> bool {
        let mut inner = self.inner.write();
        let b = self.bucket_of(&inner, key);
        if let Some(pos) = inner.buckets[b].iter().position(|(k, _)| k == key) {
            inner.buckets[b].swap_remove(pos);
            inner.len -= 1;
            true
        } else {
            false
        }
    }

    /// Rebuilds the table with `buckets` buckets under the write lock.
    ///
    /// Readers are blocked for the full duration of the rebuild, in contrast
    /// to the relativistic table.
    pub fn rebuild(&self, buckets: usize) {
        let mut inner = self.inner.write();
        let mut next = Inner::new(buckets);
        next.len = inner.len;
        for bucket in inner.buckets.drain(..) {
            for (k, v) in bucket {
                let b = (self.hasher.hash_one(&k) as usize) & next.mask;
                next.buckets[b].push((k, v));
            }
        }
        *inner = next;
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.read().len
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.inner.read().buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_operations() {
        let t: RwLockTable<u64, u64> = RwLockTable::with_buckets(8);
        assert!(t.insert_kv(1, 10));
        assert!(!t.insert_kv(1, 11));
        assert_eq!(t.get_cloned(&1), Some(11));
        assert_eq!(t.get_cloned(&2), None);
        assert!(t.remove_key(&1));
        assert!(!t.remove_key(&1));
        assert!(t.is_empty());
    }

    #[test]
    fn rebuild_preserves_entries() {
        let t: RwLockTable<u64, u64> = RwLockTable::with_buckets(4);
        for i in 0..100 {
            t.insert_kv(i, i * 3);
        }
        t.rebuild(64);
        assert_eq!(t.num_buckets(), 64);
        assert_eq!(t.len(), 100);
        for i in 0..100 {
            assert_eq!(t.get_cloned(&i), Some(i * 3));
        }
        t.rebuild(2);
        assert_eq!(t.num_buckets(), 2);
        for i in 0..100 {
            assert_eq!(t.get_cloned(&i), Some(i * 3));
        }
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let t: Arc<RwLockTable<u64, u64>> = Arc::new(RwLockTable::with_buckets(64));
        for i in 0..1000 {
            t.insert_kv(i, i);
        }
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        assert_eq!(t.get_cloned(&(i % 1000)), Some(i % 1000));
                    }
                })
            })
            .collect();
        for h in readers {
            h.join().unwrap();
        }
    }
}
