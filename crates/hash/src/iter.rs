//! Guard-scoped iterators.

use crate::node::NodeRef;
use crate::resize::HINT_AHEAD;
use crate::table::ReadTable;

/// An iterator over the key/value pairs of an [`crate::RpHashMap`].
///
/// The iterator is valid for the lifetime of the guard borrow it was created
/// with. Each entry that is present for the entire iteration is yielded
/// exactly once, even if a resize is in progress: nodes reachable from a
/// bucket they do not belong to (imprecise buckets) are skipped and yielded
/// from their home bucket instead.
pub struct Iter<'g, K, V> {
    table: ReadTable<'g, K, V>,
    bucket: usize,
    cur: Option<NodeRef<'g, K, V>>,
}

impl<'g, K, V> Iter<'g, K, V> {
    pub(crate) fn new(table: ReadTable<'g, K, V>) -> Self {
        Iter {
            cur: table.head(0),
            table,
            bucket: 0,
        }
    }
}

impl<'g, K: 'g, V: 'g> Iterator for Iter<'g, K, V> {
    type Item = (&'g K, &'g V);

    fn next(&mut self) -> Option<(&'g K, &'g V)> {
        loop {
            let Some(node) = self.cur else {
                // Advance to the next non-empty bucket.
                if self.bucket + 1 >= self.table.len() {
                    return None;
                }
                self.bucket += 1;
                // The head nodes are scattered over the slab: ask for one
                // a fixed distance ahead, so a walk over every entry (an
                // eviction scan) has its misses in flight together.
                self.table.hint_head(self.bucket + HINT_AHEAD);
                self.cur = self.table.head(self.bucket);
                continue;
            };
            self.cur = node.next();
            // Skip entries that belong to a different bucket (possible only
            // while a concurrent resize leaves this bucket imprecise); they
            // are yielded from their home bucket.
            if self.table.bucket_of(node.hash) == self.bucket {
                let node = node.get();
                return Some((&node.key, &node.value));
            }
        }
    }
}

impl<K, V> std::fmt::Debug for Iter<'_, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Iter")
            .field("bucket", &self.bucket)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{FnvBuildHasher, RpHashMap};
    use std::collections::BTreeSet;

    #[test]
    fn iter_visits_every_entry_exactly_once() {
        let map: RpHashMap<u64, u64, FnvBuildHasher> =
            RpHashMap::with_buckets_and_hasher(8, FnvBuildHasher);
        for i in 0..100 {
            map.insert(i, i + 1);
        }
        let guard = map.pin();
        let mut seen = BTreeSet::new();
        for (k, v) in map.iter(&guard) {
            assert_eq!(*v, *k + 1);
            assert!(seen.insert(*k), "key {k} yielded twice");
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn iter_yields_every_key_and_value() {
        let map: RpHashMap<u64, u64, FnvBuildHasher> =
            RpHashMap::with_buckets_and_hasher(4, FnvBuildHasher);
        for i in 0..20 {
            map.insert(i, 100 + i);
        }
        let guard = map.pin();
        let keys: BTreeSet<u64> = map.iter(&guard).map(|(k, _)| *k).collect();
        let values: BTreeSet<u64> = map.iter(&guard).map(|(_, v)| *v).collect();
        assert_eq!(keys, (0..20).collect());
        assert_eq!(values, (100..120).collect());
    }

    #[test]
    fn empty_map_iterates_nothing() {
        let map: RpHashMap<u64, u64> = RpHashMap::with_buckets(8);
        let guard = map.pin();
        assert_eq!(map.iter(&guard).count(), 0);
    }

    #[test]
    fn iteration_is_stable_across_resizes() {
        let map: RpHashMap<u64, u64, FnvBuildHasher> =
            RpHashMap::with_buckets_and_hasher(4, FnvBuildHasher);
        for i in 0..64 {
            map.insert(i, i);
        }
        map.expand();
        map.expand();
        map.shrink();
        let guard = map.pin();
        let seen: BTreeSet<u64> = map.iter(&guard).map(|(k, _)| *k).collect();
        assert_eq!(seen.len(), 64);
    }
}
