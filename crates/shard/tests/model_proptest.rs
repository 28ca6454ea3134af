//! Property-based tests: the sharded relativistic map must behave exactly
//! like `std::collections::HashMap` under arbitrary operation sequences —
//! including per-shard resizes interleaved anywhere — and its structural +
//! routing invariants must hold after every sequence. Mirrors `crates/hash/tests/model_proptest.rs`.

use std::collections::HashMap;

use proptest::prelude::*;

use rp_shard::{ShardPolicy, ShardedRpMap};

/// One step of a generated workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Lookup(u16),
    ExpandShard(u8),
    ShrinkShard(u8),
    ResizeShardTo(u8, u16),
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        4 => any::<u16>().prop_map(Op::Remove),
        8 => any::<u16>().prop_map(Op::Lookup),
        1 => any::<u8>().prop_map(Op::ExpandShard),
        1 => any::<u8>().prop_map(Op::ShrinkShard),
        1 => (any::<u8>(), 1_u16..256).prop_map(|(s, n)| Op::ResizeShardTo(s, n)),
        1 => Just(Op::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn behaves_like_std_hashmap(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let map: ShardedRpMap<u16, u32> = ShardedRpMap::with_policy(ShardPolicy {
            shards: 8,
            initial_buckets_per_shard: 2,
            ..ShardPolicy::default()
        });
        let mut model: HashMap<u16, u32> = HashMap::new();
        let shards = map.shard_count();

        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    let newly = map.insert(*k, *v);
                    let model_newly = model.insert(*k, *v).is_none();
                    prop_assert_eq!(newly, model_newly, "insert({}, {})", k, v);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(map.remove(k), model.remove(k).is_some(), "remove({})", k);
                }
                Op::Lookup(k) => {
                    prop_assert_eq!(map.get_cloned(k), model.get(k).copied(), "lookup({})", k);
                }
                Op::ExpandShard(s) => map.shard(*s as usize % shards).expand(),
                Op::ShrinkShard(s) => map.shard(*s as usize % shards).shrink(),
                Op::ResizeShardTo(s, n) => map.shard(*s as usize % shards).resize_to(*n as usize),
                Op::Clear => {
                    map.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(map.len(), model.len());
        }

        // Structural + routing invariants hold after any sequence.
        map.check_invariants().map_err(TestCaseError::fail)?;

        // Final contents match exactly.
        let mut contents = map.to_vec();
        contents.sort_unstable();
        let mut expected: Vec<(u16, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        expected.sort_unstable();
        prop_assert_eq!(contents, expected);
    }

    #[test]
    fn per_shard_resizes_never_lose_or_duplicate_entries(
        keys in proptest::collection::hash_set(any::<u32>(), 1..300),
        resizes in proptest::collection::vec((any::<u8>(), 1_u16..512), 1..16),
    ) {
        let map: ShardedRpMap<u32, u32> = ShardedRpMap::with_policy(ShardPolicy {
            shards: 4,
            initial_buckets_per_shard: 2,
            ..ShardPolicy::default()
        });
        for &k in &keys {
            map.insert(k, k.wrapping_mul(3));
        }
        for &(shard, target) in &resizes {
            map.shard(shard as usize % 4).resize_to(target as usize);
            prop_assert_eq!(map.len(), keys.len());
        }
        map.check_invariants().map_err(TestCaseError::fail)?;
        let guard = map.pin();
        for &k in &keys {
            prop_assert_eq!(map.get(&k, &guard).copied(), Some(k.wrapping_mul(3)));
        }
        prop_assert_eq!(map.iter(&guard).count(), keys.len());
    }

    #[test]
    fn shard_counts_do_not_change_semantics(
        entries in proptest::collection::vec((any::<u16>(), any::<u32>()), 1..200)
    ) {
        let one: ShardedRpMap<u16, u32> = ShardedRpMap::with_shards(1);
        let many: ShardedRpMap<u16, u32> = ShardedRpMap::with_shards(64);
        for &(k, v) in &entries {
            prop_assert_eq!(one.insert(k, v), many.insert(k, v));
        }
        prop_assert_eq!(one.len(), many.len());
        let guard = one.pin();
        for &(k, _) in &entries {
            prop_assert_eq!(one.get(&k, &guard), many.get(&k, &guard));
        }
        one.check_invariants().map_err(TestCaseError::fail)?;
        many.check_invariants().map_err(TestCaseError::fail)?;
    }
}
