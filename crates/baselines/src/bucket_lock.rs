//! A per-bucket-locked hash table (fine-grained locking baseline).

use std::hash::{BuildHasher, Hash};

use parking_lot::RwLock;

use rp_hash::FnvBuildHasher;

/// A fixed-size hash table with one reader-writer lock per bucket.
///
/// Fine-grained locking restores disjoint-access parallelism (readers of
/// different buckets do not contend), but every lookup still performs an
/// atomic read-modify-write on its bucket's lock word, and the table cannot
/// be resized without stopping the world — the two shortcomings the paper's
/// design removes.
pub struct BucketLockTable<K, V, S = FnvBuildHasher> {
    mask: usize,
    #[allow(clippy::type_complexity)]
    buckets: Box<[RwLock<Vec<(K, V)>>]>,
    len: std::sync::atomic::AtomicUsize,
    hasher: S,
}

impl<K, V> BucketLockTable<K, V, FnvBuildHasher> {
    /// Creates an empty table with `buckets` buckets.
    pub fn with_buckets(buckets: usize) -> Self {
        Self::with_buckets_and_hasher(buckets, FnvBuildHasher)
    }
}

impl<K, V, S> BucketLockTable<K, V, S> {
    /// Creates an empty table with `buckets` buckets and the given hasher.
    pub fn with_buckets_and_hasher(buckets: usize, hasher: S) -> Self {
        let buckets = buckets.max(1).next_power_of_two();
        BucketLockTable {
            mask: buckets - 1,
            buckets: (0..buckets).map(|_| RwLock::new(Vec::new())).collect(),
            len: std::sync::atomic::AtomicUsize::new(0),
            hasher,
        }
    }
}

impl<K, V, S> BucketLockTable<K, V, S>
where
    K: Hash + Eq,
    S: BuildHasher,
{
    fn bucket_of(&self, key: &K) -> usize {
        (self.hasher.hash_one(key) as usize) & self.mask
    }

    /// Looks up `key` under its bucket's read lock.
    pub fn get_cloned(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let bucket = self.buckets[self.bucket_of(key)].read();
        bucket
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    /// Inserts `key → value` under its bucket's write lock.
    pub fn insert_kv(&self, key: K, value: V) -> bool {
        let mut bucket = self.buckets[self.bucket_of(&key)].write();
        if let Some(slot) = bucket.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
            false
        } else {
            bucket.push((key, value));
            self.len.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            true
        }
    }

    /// Removes `key` under its bucket's write lock.
    pub fn remove_key(&self, key: &K) -> bool {
        let mut bucket = self.buckets[self.bucket_of(key)].write();
        if let Some(pos) = bucket.iter().position(|(k, _)| k == key) {
            bucket.swap_remove(pos);
            self.len.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of buckets (fixed at construction time).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_operations() {
        let t: BucketLockTable<u64, u64> = BucketLockTable::with_buckets(8);
        assert!(t.insert_kv(1, 10));
        assert!(!t.insert_kv(1, 11));
        assert_eq!(t.get_cloned(&1), Some(11));
        assert!(t.remove_key(&1));
        assert!(t.is_empty());
        assert_eq!(t.num_buckets(), 8);
    }

    #[test]
    fn concurrent_mixed_workload() {
        let t: Arc<BucketLockTable<u64, u64>> = Arc::new(BucketLockTable::with_buckets(64));
        let threads: Vec<_> = (0..4)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let base = tid * 1000;
                    for i in 0..500_u64 {
                        t.insert_kv(base + i, i);
                    }
                    for i in 0..500_u64 {
                        assert_eq!(t.get_cloned(&(base + i)), Some(i));
                    }
                    for i in 0..250_u64 {
                        assert!(t.remove_key(&(base + i)));
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 4 * 250);
    }
}
