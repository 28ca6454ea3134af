//! Property-based equivalence: every table of [`rp_baselines::tables`] (the
//! relativistic map, the sharded map, the split-ordered list and all
//! baselines) must produce identical results for arbitrary operation
//! sequences, because the benchmark harness treats them as drop-in
//! replacements for one another.

use std::collections::HashMap;

use proptest::prelude::*;

use rp_baselines::tables;
use rp_hash::ReadSide;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Lookup(u16),
    Resize(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => any::<u16>().prop_map(Op::Remove),
        6 => any::<u16>().prop_map(Op::Lookup),
        1 => (1_u16..256).prop_map(Op::Resize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn all_implementations_agree(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let maps: Vec<_> = tables::<u16, u32>()
            .into_iter()
            .map(|(name, build)| (name, build(8)))
            .collect();
        let mut handles: Vec<_> = maps
            .iter()
            .map(|(_, map)| map.handle(ReadSide::Ebr).unwrap())
            .collect();
        let mut model: HashMap<u16, u32> = HashMap::new();

        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let expected = model.insert(k, v).is_none();
                    for ((name, _), handle) in maps.iter().zip(&mut handles) {
                        prop_assert_eq!(handle.insert(k, v), expected, "{}: insert({}, {})", name, k, v);
                    }
                }
                Op::Remove(k) => {
                    let expected = model.remove(&k).is_some();
                    for ((name, _), handle) in maps.iter().zip(&mut handles) {
                        prop_assert_eq!(handle.remove(&k), expected, "{}: remove({})", name, k);
                    }
                }
                Op::Lookup(k) => {
                    let expected = model.get(&k).copied();
                    for ((name, _), handle) in maps.iter().zip(&mut handles) {
                        prop_assert_eq!(handle.lookup(&k), expected, "{}: lookup({})", name, k);
                    }
                }
                Op::Resize(n) => {
                    for resizable in maps.iter().filter_map(|(_, map)| map.resizable()) {
                        resizable.resize_to(n as usize);
                    }
                }
            }
            for (name, map) in &maps {
                prop_assert_eq!(map.len(), model.len(), "{}: len", name);
            }
        }
        for (name, checked) in maps.iter().filter_map(|(name, map)| Some((name, map.checked()?))) {
            prop_assert_eq!(checked.check_invariants(), Ok(()), "{}: invariants", name);
        }
    }
}
