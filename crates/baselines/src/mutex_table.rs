//! A global mutex-protected hash table (memcached's `cache_lock` shape).

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

use parking_lot::Mutex;

use rp_hash::FnvBuildHasher;

/// A hash table protected by a single global mutex.
///
/// Every operation — including lookups — acquires the mutex, exactly like
/// stock memcached 1.4's `cache_lock`-protected item hash table that the
/// paper's memcached experiment contrasts with the relativistic GET fast
/// path.
pub struct MutexTable<K, V, S = FnvBuildHasher> {
    inner: Mutex<HashMap<K, V, S>>,
    buckets_hint: usize,
}

impl<K, V> MutexTable<K, V, FnvBuildHasher>
where
    K: Hash + Eq,
{
    /// Creates an empty table sized for roughly `buckets` entries.
    pub fn with_buckets(buckets: usize) -> Self {
        Self::with_buckets_and_hasher(buckets, FnvBuildHasher)
    }
}

impl<K, V, S> MutexTable<K, V, S>
where
    K: Hash + Eq,
    S: BuildHasher,
{
    /// Creates an empty table with the given capacity hint and hasher.
    pub fn with_buckets_and_hasher(buckets: usize, hasher: S) -> Self {
        MutexTable {
            inner: Mutex::new(HashMap::with_capacity_and_hasher(buckets, hasher)),
            buckets_hint: buckets.max(1).next_power_of_two(),
        }
    }

    /// Looks up `key` under the mutex.
    pub fn get_cloned(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.inner.lock().get(key).cloned()
    }

    /// Inserts `key → value` under the mutex.
    pub fn insert_kv(&self, key: K, value: V) -> bool {
        self.inner.lock().insert(key, value).is_none()
    }

    /// Removes `key` under the mutex.
    pub fn remove_key(&self, key: &K) -> bool {
        self.inner.lock().remove(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bucket count it was sized for (`HashMap` resizes itself; there
    /// is no bucket array to report).
    pub fn num_buckets(&self) -> usize {
        self.buckets_hint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_operations() {
        let t: MutexTable<u64, String> = MutexTable::with_buckets(16);
        assert!(t.insert_kv(1, "one".into()));
        assert!(!t.insert_kv(1, "uno".into()));
        assert_eq!(t.get_cloned(&1).as_deref(), Some("uno"));
        assert!(t.remove_key(&1));
        assert!(t.is_empty());
    }
}
