//! The sharded relativistic hash map.

use std::borrow::Borrow;
use std::hash::{BuildHasher, Hash};

use rp_hash::{FnvBuildHasher, ReadProtect, RpHashMap};
use rp_rcu::RcuGuard;

use crate::policy::ShardPolicy;
use crate::stats::ShardStats;

/// A power-of-two array of independent [`RpHashMap`] shards.
///
/// Lookups are the paper's wait-free relativistic lookups, unchanged; a
/// single guard from [`ShardedRpMap::pin`] (or [`rp_rcu::pin`]) covers reads
/// in every shard. Updates and resizes only contend within one shard, so
/// write throughput scales with the shard count until the memory system
/// saturates.
///
/// Shard routing uses the top `log2(shards)` bits of the key's 64-bit hash;
/// the shard's buckets use the low bits. Both decisions share one hashing
/// pass: the outer map hashes, then hands the hash down through the
/// `*_prehashed` entry points of [`RpHashMap`].
///
/// Each shard resizes as an [`RpHashMap`] does: a write that takes it over
/// a load-factor trigger resizes it inline, unless the writing thread
/// cannot wait for readers (it holds a guard, or it is an online QSBR
/// reader). Then the resize is postponed, and a caller at a quiescent point
/// catches up by running [`RpHashMap::maintain`] on each shard of
/// [`ShardedRpMap::shards`].
pub struct ShardedRpMap<K, V, S = FnvBuildHasher> {
    shards: Box<[RpHashMap<K, V, S>]>,
    /// `log2(shards.len())`; 0 means a single shard.
    shard_bits: u32,
    hasher: S,
    policy: ShardPolicy,
}

impl<K, V> ShardedRpMap<K, V, FnvBuildHasher> {
    /// Creates a map with the default policy (16 shards, manual resize).
    pub fn new() -> Self {
        Self::with_policy(ShardPolicy::default())
    }

    /// Creates a map with `shards` shards and defaults for everything else.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_policy(ShardPolicy::with_shards(shards))
    }

    /// Creates a map with the given policy and the deterministic FNV hasher
    /// (the workspace default, so shard routing is reproducible).
    pub fn with_policy(policy: ShardPolicy) -> Self {
        Self::with_policy_and_hasher(policy, FnvBuildHasher)
    }
}

impl<K, V> Default for ShardedRpMap<K, V, FnvBuildHasher> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S: BuildHasher + Clone> ShardedRpMap<K, V, S> {
    /// Creates a map with the given policy and hasher.
    ///
    /// The hasher is cloned into every shard, so a clone **must** hash
    /// identically to the original (true for `FnvBuildHasher`,
    /// `FoldBuildHasher` and `RandomState`, whose clones share their seed or
    /// keys, and for every `BuildHasher` that does the same) —
    /// shard routing and in-shard bucket selection use the same hash value.
    pub fn with_policy_and_hasher(policy: ShardPolicy, hasher: S) -> Self {
        // Store the normalized policy so `policy().shards` always agrees
        // with `shard_count()`.
        let policy = ShardPolicy {
            shards: policy.effective_shards(),
            ..policy
        };
        let shards = (0..policy.shards)
            .map(|_| {
                RpHashMap::with_buckets_hasher_and_policy(
                    policy.initial_buckets_per_shard,
                    hasher.clone(),
                    policy.per_shard,
                )
            })
            .collect();
        ShardedRpMap {
            shards,
            shard_bits: policy.shards.trailing_zeros(),
            hasher,
            policy,
        }
    }
}

impl<K, V, S> ShardedRpMap<K, V, S> {
    /// Enters a read-side critical section covering every shard.
    pub fn pin(&self) -> RcuGuard<'static> {
        rp_rcu::pin()
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The policy this map was built with.
    pub fn policy(&self) -> &ShardPolicy {
        &self.policy
    }

    /// Direct access to one shard (benchmarks and tests drive per-shard
    /// resizes through this).
    pub fn shard(&self, index: usize) -> &RpHashMap<K, V, S> {
        &self.shards[index]
    }

    /// All shards, in routing order.
    pub fn shards(&self) -> &[RpHashMap<K, V, S>] {
        &self.shards
    }

    /// Number of entries across all shards (a racy snapshot under
    /// concurrent updates, like [`RpHashMap::len`]).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Returns `true` if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Total bucket count across all shards.
    pub fn num_buckets(&self) -> usize {
        self.shards.iter().map(|s| s.num_buckets()).sum()
    }

    /// Aggregate load factor (`len / num_buckets`).
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.num_buckets() as f64
    }

    /// Snapshot of every shard's operation/resize counters and occupancy.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            per_shard: self.shards.iter().map(|s| s.stats()).collect(),
            shard_lens: self.shards.iter().map(|s| s.len()).collect(),
        }
    }

    /// Routes a 64-bit hash to its shard index (the top `log2(shards)`
    /// bits).
    #[inline]
    pub(crate) fn shard_of_hash(&self, hash: u64) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            (hash >> (64 - self.shard_bits)) as usize
        }
    }
}

impl<K, V, S> ShardedRpMap<K, V, S>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Send + Sync + 'static,
    S: BuildHasher,
{
    /// Hashes `key` once; the result drives both shard routing (high bits)
    /// and, handed down pre-computed, in-shard bucket selection (low bits).
    #[inline]
    pub(crate) fn hash_of<Q>(&self, key: &Q) -> u64
    where
        Q: Hash + ?Sized,
    {
        self.hasher.hash_one(key)
    }

    /// The shard index `key` routes to.
    pub fn shard_for_key<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Hash + ?Sized,
    {
        self.shard_of_hash(self.hash_of(key))
    }

    /// Looks up `key` (wait-free; see [`RpHashMap::get`]). Accepts either
    /// read-side protection witness: an EBR guard from
    /// [`ShardedRpMap::pin`], or an online [`rp_hash::QsbrReadHandle`]
    /// (barrier-free shard routing plus the in-shard barrier-free lookup).
    /// One witness covers every shard — the hash is computed once and routes
    /// to the right shard internally.
    pub fn get<'g, Q, P>(&'g self, key: &Q, protect: &'g P) -> Option<&'g V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        P: ReadProtect,
    {
        let hash = self.hash_of(key);
        self.shards[self.shard_of_hash(hash)].get_prehashed(hash, key, protect)
    }

    /// Looks up `key`, returning references to the stored key and value.
    pub fn get_key_value<'g, Q, P>(&'g self, key: &Q, protect: &'g P) -> Option<(&'g K, &'g V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        P: ReadProtect,
    {
        let hash = self.hash_of(key);
        self.shards[self.shard_of_hash(hash)].get_key_value_prehashed(hash, key, protect)
    }

    /// The hash this map's hasher produces for `key` — what
    /// [`ShardedRpMap::prefetch_prehashed`] expects, driving both shard
    /// routing (high bits) and the in-shard bucket selection (low bits).
    pub fn hash_one<Q>(&self, key: &Q) -> u64
    where
        Q: Hash + ?Sized,
    {
        self.hash_of(key)
    }

    /// The read-side hint of [`RpHashMap::prefetch_prehashed`], routed to
    /// the shard `hash` belongs to.
    pub fn prefetch_prehashed<'g, P>(
        &'g self,
        hash: u64,
        depth: usize,
        protect: &'g P,
    ) -> Option<&'g V>
    where
        P: ReadProtect,
    {
        self.shards[self.shard_of_hash(hash)].prefetch_prehashed(hash, depth, protect)
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

    /// Returns `true` if the map contains `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let guard = rp_rcu::pin();
        self.get(key, &guard).is_some()
    }

    /// Inserts `key → value` into its shard. Returns `true` if the key was
    /// newly inserted. Only writers of the same shard contend.
    ///
    /// A load-factor trigger resizes the shard before the call returns, or,
    /// on a thread that cannot wait for readers, leaves the resize to the
    /// shard's [`RpHashMap::maintain`].
    pub fn insert(&self, key: K, value: V) -> bool {
        let hash = self.hash_of(&key);
        self.shards[self.shard_of_hash(hash)].insert_prehashed(hash, key, value)
    }

    /// Removes `key` from its shard. Returns `true` if it was present.
    pub fn remove<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = self.hash_of(key);
        self.shards[self.shard_of_hash(hash)].remove_prehashed(hash, key)
    }

    /// Removes every entry for which `f` returns `false`, shard by shard;
    /// returns how many it removed.
    pub fn retain<F>(&self, mut f: F) -> usize
    where
        F: FnMut(&K, &V) -> bool,
    {
        self.shards.iter().map(|shard| shard.retain(&mut f)).sum()
    }

    /// Removes all entries.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.clear();
        }
    }

    /// Iterates over all entries in all shards under one guard.
    ///
    /// Entries present for the whole iteration are yielded exactly once;
    /// concurrent inserts/removes may or may not be observed. Shards are
    /// visited in routing order, and concurrent *resizes of other shards*
    /// never disturb the iteration (resize is shard-local).
    pub fn iter<'g, P: ReadProtect>(
        &'g self,
        protect: &'g P,
    ) -> impl Iterator<Item = (&'g K, &'g V)> {
        self.shards.iter().flat_map(move |s| s.iter(protect))
    }

    /// Collects all entries into a `Vec` (cloning), for tests and examples.
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

    /// Doubles every shard (each one an independent unzip expansion).
    pub fn expand_all(&self) {
        for shard in self.shards.iter() {
            shard.expand();
        }
    }

    /// Halves every shard (each one an independent zip shrink).
    pub fn shrink_all(&self) {
        for shard in self.shards.iter() {
            shard.shrink();
        }
    }

    /// Resizes the map to approximately `total_buckets` buckets overall by
    /// resizing each shard to its even share.
    pub fn resize_total_to(&self, total_buckets: usize) {
        let per_shard = (total_buckets / self.shards.len()).max(1);
        for shard in self.shards.iter() {
            shard.resize_to(per_shard);
        }
    }

    /// Checks every shard's structural invariants plus the routing
    /// invariant: each key's hash must route to the shard that stores it.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            shard
                .check_invariants()
                .map_err(|e| format!("shard {i}: {e}"))?;
            let guard = rp_rcu::pin();
            for (key, _) in shard.iter(&guard) {
                let routed = self.shard_of_hash(self.hash_of(key));
                if routed != i {
                    return Err(format!(
                        "key in shard {i} routes to shard {routed} (hash {:#x})",
                        self.hash_of(key)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Flushes retired nodes: waits for a grace period of every read-side
    /// flavor with registered readers and frees everything retired before
    /// the call. Each shard's [`RpHashMap::flush_retired`] queues that
    /// shard's open batch of up to 63 retired nodes, which no barrier frees
    /// before then, and runs the barrier.
    pub fn flush_retired(&self) {
        for shard in self.shards.iter() {
            shard.flush_retired();
        }
    }
}

impl<K, V, S> std::fmt::Debug for ShardedRpMap<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRpMap")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("buckets", &self.num_buckets())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Map = ShardedRpMap<u64, u64>;

    #[test]
    fn new_map_shape_matches_policy() {
        let map = Map::new();
        assert_eq!(map.shard_count(), 16);
        assert!(map.is_empty());
        assert_eq!(map.num_buckets(), 16 * 16);
        let map = Map::with_shards(5);
        assert_eq!(map.shard_count(), 8, "shard count rounds to a power of two");
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let map = Map::with_shards(4);
        for i in 0..100 {
            assert!(map.insert(i, i * 2));
        }
        assert_eq!(map.len(), 100);
        let guard = map.pin();
        for i in 0..100 {
            assert_eq!(map.get(&i, &guard), Some(&(i * 2)));
        }
        assert_eq!(map.get(&1000, &guard), None);
        drop(guard);
        assert!(map.remove(&7));
        assert!(!map.remove(&7));
        assert_eq!(map.len(), 99);
        map.check_invariants().unwrap();
    }

    #[test]
    fn hints_route_to_the_keys_shard() {
        let map = Map::with_shards(4);
        for i in 0..256_u64 {
            map.insert(i, i + 1000);
        }
        let guard = map.pin();
        let handle = rp_hash::QsbrReadHandle::register();
        for i in 0..256_u64 {
            let hash = map.hash_one(&i);
            assert_eq!(map.prefetch_prehashed(hash, 0, &guard), None);
            for depth in 1..=4 {
                // Shallow, the walk may stop short of the key's node; what
                // it does return is the key's value.
                if let Some(value) = map.prefetch_prehashed(hash, depth, &handle) {
                    assert_eq!(*value, i + 1000);
                }
            }
            let deep = map.prefetch_prehashed(hash, 1024, &guard);
            assert_eq!(deep, Some(&(i + 1000)));
            assert_eq!(map.prefetch_prehashed(!hash, 1024, &handle), None);
        }
        drop((guard, handle));
        map.check_invariants().unwrap();
    }

    #[test]
    fn keys_route_consistently() {
        let map = Map::with_shards(8);
        for i in 0..256 {
            map.insert(i, i);
        }
        for i in 0..256_u64 {
            let s = map.shard_for_key(&i);
            assert!(s < 8);
            assert!(
                map.shard(s).contains_key(&i),
                "key {i} not in its shard {s}"
            );
        }
        map.check_invariants().unwrap();
    }

    #[test]
    fn shards_fill_roughly_evenly() {
        let map = Map::with_shards(16);
        for i in 0..4096 {
            map.insert(i, i);
        }
        let stats = map.stats();
        assert_eq!(stats.len(), 4096);
        assert!(
            stats.imbalance() < 1.5,
            "shard imbalance {} too high: {:?}",
            stats.imbalance(),
            stats.shard_lens
        );
    }

    #[test]
    fn single_shard_degenerates_to_plain_map() {
        let map = Map::with_shards(1);
        assert_eq!(map.shard_count(), 1);
        map.insert(1, 10);
        assert_eq!(map.get_cloned(&1), Some(10));
        assert_eq!(map.shard_for_key(&1), 0);
        map.check_invariants().unwrap();
    }

    #[test]
    fn per_shard_resizes_are_independent() {
        let map = Map::with_shards(4);
        for i in 0..512 {
            map.insert(i, i);
        }
        let before: Vec<usize> = map.shards().iter().map(|s| s.num_buckets()).collect();
        map.shard(0).expand();
        map.shard(2).resize_to(128);
        let after: Vec<usize> = map.shards().iter().map(|s| s.num_buckets()).collect();
        assert_eq!(after[0], before[0] * 2);
        assert_eq!(after[1], before[1]);
        assert_eq!(after[2], 128);
        assert_eq!(after[3], before[3]);
        let guard = map.pin();
        for i in 0..512 {
            assert_eq!(map.get(&i, &guard), Some(&i));
        }
        drop(guard);
        map.check_invariants().unwrap();
        assert_eq!(map.stats().shards_resized(), 2);
    }

    #[test]
    fn expand_all_and_resize_total_cover_every_shard() {
        let map = Map::with_shards(4);
        for i in 0..64 {
            map.insert(i, i);
        }
        let before = map.num_buckets();
        map.expand_all();
        assert_eq!(map.num_buckets(), before * 2);
        map.resize_total_to(4 * 32);
        assert_eq!(map.num_buckets(), 4 * 32);
        map.shrink_all();
        assert_eq!(map.num_buckets(), 4 * 16);
        assert_eq!(map.len(), 64);
        map.check_invariants().unwrap();
    }

    #[test]
    fn retain_clear_and_iter_cover_all_shards() {
        let map = Map::with_shards(8);
        for i in 0..200 {
            map.insert(i, i);
        }
        assert_eq!(map.retain(|k, _| k % 2 == 0), 100);
        assert_eq!(map.len(), 100);
        let mut contents = map.to_vec();
        contents.sort_unstable();
        assert!(contents.iter().all(|(k, _)| k % 2 == 0));
        assert_eq!(contents.len(), 100);
        map.clear();
        assert!(map.is_empty());
        map.flush_retired();
    }

    #[test]
    fn automatic_policy_expands_hot_shards() {
        let map: Map = ShardedRpMap::with_policy(ShardPolicy {
            shards: 4,
            initial_buckets_per_shard: 4,
            per_shard: rp_hash::ResizePolicy {
                auto_expand: true,
                max_load_factor: 1.0,
                ..rp_hash::ResizePolicy::default()
            },
        });
        for i in 0..1024 {
            map.insert(i, i);
        }
        assert!(
            map.stats().total().expands >= 4,
            "expected per-shard auto-expansion, stats: {:?}",
            map.stats().total()
        );
        assert!(map.num_buckets() > 16);
        map.check_invariants().unwrap();
    }

    #[test]
    fn debug_shows_shape() {
        let map = Map::with_shards(2);
        map.insert(1, 1);
        let s = format!("{map:?}");
        assert!(s.contains("shards"), "{s}");
    }
}
