//! Property-based tests: the relativistic hash map must behave exactly like
//! `std::collections::HashMap` under arbitrary operation sequences, with
//! resizes interleaved anywhere — whole ones, and single steps of the
//! incremental state machine with writers between them — and its structural
//! invariants must hold after every sequence.

use std::collections::HashMap;

use proptest::prelude::*;

use rp_hash::{FnvBuildHasher, ResizePolicy, ResizeStep, RpHashMap};

/// One step of a generated workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Lookup(u16),
    Expand,
    Shrink,
    ResizeTo(u16),
    /// `begin_expand` / `begin_shrink`: refused while a resize is in flight.
    BeginExpand,
    BeginShrink,
    /// One `advance_resize` step of whatever resize is in flight.
    Advance,
    Rename(u16, u16),
    Clear,
    /// On keys below 16, so that most of them hit: their return values are
    /// checked against the model, mid-unzip too.
    InsertReplacing(u16, u32),
    RemoveCloned(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        4 => any::<u16>().prop_map(Op::Remove),
        8 => any::<u16>().prop_map(Op::Lookup),
        1 => Just(Op::Expand),
        1 => Just(Op::Shrink),
        1 => (1_u16..512).prop_map(Op::ResizeTo),
        2 => Just(Op::BeginExpand),
        1 => Just(Op::BeginShrink),
        6 => Just(Op::Advance),
        2 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::Rename(a, b)),
        1 => Just(Op::Clear),
        6 => (0_u16..16, any::<u32>()).prop_map(|(k, v)| Op::InsertReplacing(k, v)),
        3 => (0_u16..16).prop_map(Op::RemoveCloned),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn behaves_like_std_hashmap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let map: RpHashMap<u16, u32, FnvBuildHasher> =
            RpHashMap::with_buckets_and_hasher(4, FnvBuildHasher);
        let mut model: HashMap<u16, u32> = HashMap::new();

        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let newly = map.insert(k, v);
                    let model_newly = model.insert(k, v).is_none();
                    prop_assert_eq!(newly, model_newly, "insert({}, {})", k, v);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(map.remove(&k), model.remove(&k).is_some(), "remove({})", k);
                }
                Op::Lookup(k) => {
                    prop_assert_eq!(map.get_cloned(&k), model.get(&k).copied(), "lookup({})", k);
                }
                Op::Expand => map.expand(),
                Op::Shrink => map.shrink(),
                Op::ResizeTo(n) => map.resize_to(n as usize),
                Op::BeginExpand => {
                    let idle = !map.resize_in_progress();
                    prop_assert_eq!(map.begin_expand(), idle);
                }
                Op::BeginShrink => {
                    let may = !map.resize_in_progress() && map.num_buckets() > 1;
                    prop_assert_eq!(map.begin_shrink(), may);
                }
                Op::Advance => {
                    let idle = !map.resize_in_progress();
                    prop_assert_eq!(map.advance_resize() == ResizeStep::Idle, idle);
                }
                Op::Rename(old, new) => {
                    let did = map.rename(&old, new);
                    // Model the same semantics: move the value if present.
                    let model_did = if let Some(v) = model.get(&old).copied() {
                        if old != new {
                            model.remove(&old);
                            model.insert(new, v);
                        }
                        true
                    } else {
                        false
                    };
                    prop_assert_eq!(did, model_did, "rename({} -> {})", old, new);
                }
                Op::Clear => {
                    map.clear();
                    model.clear();
                }
                Op::InsertReplacing(k, v) => {
                    prop_assert_eq!(
                        map.insert_replacing(k, v),
                        model.insert(k, v),
                        "insert_replacing({}, {})",
                        k,
                        v
                    );
                }
                Op::RemoveCloned(k) => {
                    prop_assert_eq!(map.remove_cloned(&k), model.remove(&k), "remove_cloned({})", k);
                }
            }
            prop_assert_eq!(map.len(), model.len());
        }

        // Final contents match exactly, read through whatever resize the
        // sequence left in flight.
        let mut contents = map.to_vec();
        contents.sort_unstable();
        let mut expected: Vec<(u16, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        expected.sort_unstable();
        prop_assert_eq!(contents, expected);

        // Structural invariants hold after any sequence (this finishes the
        // resize in flight).
        map.check_invariants().map_err(TestCaseError::fail)?;

        // And `Drop` gets an unzip to finish, stopped at a step that varies.
        prop_assert!(map.begin_expand());
        for _ in 0..ops.len() % 4 {
            map.advance_resize();
        }
    }

    #[test]
    fn resizes_never_lose_or_duplicate_entries(
        keys in proptest::collection::hash_set(any::<u32>(), 1..400),
        resizes in proptest::collection::vec(1_u16..1024, 1..12),
    ) {
        let map: RpHashMap<u32, u32, FnvBuildHasher> =
            RpHashMap::with_buckets_and_hasher(2, FnvBuildHasher);
        for &k in &keys {
            map.insert(k, k.wrapping_mul(3));
        }
        for &target in &resizes {
            map.resize_to(target as usize);
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
    fn automatic_policy_matches_manual_results(
        entries in proptest::collection::vec((any::<u16>(), any::<u32>()), 1..300)
    ) {
        let auto: RpHashMap<u16, u32, FnvBuildHasher> = RpHashMap::with_buckets_hasher_and_policy(
            2,
            FnvBuildHasher,
            ResizePolicy::automatic(),
        );
        let manual: RpHashMap<u16, u32, FnvBuildHasher> =
            RpHashMap::with_buckets_and_hasher(1024, FnvBuildHasher);
        for &(k, v) in &entries {
            auto.insert(k, v);
            manual.insert(k, v);
        }
        prop_assert_eq!(auto.len(), manual.len());
        let guard = auto.pin();
        for &(k, _) in &entries {
            prop_assert_eq!(auto.get(&k, &guard), manual.get(&k, &guard));
        }
        drop(guard); // The check finishes a resize still in flight: it waits.
        auto.check_invariants().map_err(TestCaseError::fail)?;
    }
}
