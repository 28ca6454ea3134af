//! The default hasher spreads structured keys over both ends of the hash.
//!
//! `RpHashMap` picks a bucket from the low bits (`h & mask`; an unzip splits
//! a bucket on the next bit up) and `rp-shard` routes on the top bits, so a
//! hasher that mixed only one end would pile keys into a few chains or a few
//! shards. Each key set below is one a real table meets: dense integers,
//! integers whose entropy sits above bit 32 or bit 48, page-aligned
//! addresses, and formatted string keys. The bar for the low bits is what
//! std's SipHash (`RandomState`) gets on the same set, measured here.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use rp_hash::FoldBuildHasher;

const N: usize = 1 << 16;

/// The key sets, each of `N` keys.
fn key_sets() -> Vec<(&'static str, Vec<Key>)> {
    let ints = |f: fn(u64) -> u64| (0..N as u64).map(|i| Key::Int(f(i))).collect();
    vec![
        ("0..2^16", ints(|i| i)),
        ("i << 32", ints(|i| i << 32)),
        ("i << 48", ints(|i| i << 48)),
        ("multiples of 4096", ints(|i| i * 4096)),
        (
            "key:%08d",
            (0..N).map(|i| Key::Str(format!("key:{i:08}"))).collect(),
        ),
    ]
}

enum Key {
    Int(u64),
    Str(String),
}

impl Key {
    /// Hashes the key the way a map keyed by its inner type would.
    fn hash_with(&self, s: &impl BuildHasher) -> u64 {
        match self {
            Key::Int(i) => s.hash_one(i),
            Key::Str(k) => s.hash_one(k.as_str()),
        }
    }
}

/// Longest chain and share of empty buckets at load factor 1: `N` keys over
/// `N` buckets, bucket = `h & (N - 1)`.
fn chains(keys: &[Key], s: &impl BuildHasher) -> (u32, f64) {
    let mut counts = vec![0_u32; N];
    for key in keys {
        counts[key.hash_with(s) as usize & (N - 1)] += 1;
    }
    let longest = *counts.iter().max().expect("N > 0");
    let empty = counts.iter().filter(|&&c| c == 0).count();
    (longest, empty as f64 / N as f64)
}

#[test]
fn low_bits_fill_buckets_as_well_as_siphash_does() {
    for (name, keys) in key_sets() {
        // The bar is SipHash's worst over eight keys. The slack is what two
        // random functions differ by: at N = 2^16 the longest chain is 8 or 9
        // about as often as 7, and one in 130 tables reaches 10; the empty
        // share's standard deviation is 0.0012. On multiples of 4096
        // (`longest_chain_tails_over_many_seeds`), the longest chain was at
        // least 9, 10, 11 and 12 in 7.4 %, 0.63 %, 0.04 % and 0 of 10,000
        // SipHash keys, and in 7.2 %, 0.77 %, 0.066 % and 0.005 % of
        // 110,000 fold seeds (one reached 14). So a fold draw fails by
        // chance about once in 1,700 to 2,500 runs.
        let (mut sip_longest, mut sip_empty) = (0, 0.0_f64);
        for _ in 0..8 {
            let (longest, empty) = chains(&keys, &RandomState::new());
            sip_longest = sip_longest.max(longest);
            sip_empty = sip_empty.max(empty);
        }
        let (longest, empty) = chains(&keys, &FoldBuildHasher::default());
        println!(
            "{name}: longest chain {longest} (SipHash {sip_longest}), \
             empty {empty:.4} (SipHash {sip_empty:.4})"
        );
        assert!(
            longest <= sip_longest + 2,
            "{name}: longest chain {longest}, SipHash's {sip_longest}"
        );
        assert!(
            empty <= sip_empty + 0.005,
            "{name}: {empty:.4} of buckets empty, SipHash's {sip_empty:.4}"
        );
    }
}

/// The longest-chain distribution on multiples of 4096 over `SEEDS` fold
/// seeds and as many SipHash keys, and the share of runs of the test above
/// that fail by chance: fold's longest chain above SipHash's worst of eight
/// plus 2. About 15–25 s in a release build:
///
/// ```sh
/// cargo test --release -p rp-hash --test hash_spread -- --ignored --nocapture
/// ```
#[test]
#[ignore = "a measurement, not a check"]
fn longest_chain_tails_over_many_seeds() {
    const SEEDS: usize = 10_000;
    let keys: Vec<Key> = (0..N as u64).map(|i| Key::Int(i * 4096)).collect();
    let (mut fold, mut sip) = ([0_usize; 32], [0_usize; 32]);
    for _ in 0..SEEDS {
        fold[chains(&keys, &FoldBuildHasher::default()).0 as usize] += 1;
        sip[chains(&keys, &RandomState::new()).0 as usize] += 1;
    }
    let share = |counts: &[usize], at_least: usize| {
        counts[at_least..].iter().sum::<usize>() as f64 / SEEDS as f64
    };
    for longest in 6..16 {
        println!(
            "longest >= {longest:2}: fold {:.4}, SipHash {:.4}",
            share(&fold, longest),
            share(&sip, longest)
        );
    }
    // SipHash's worst of eight is at most `b` with probability
    // P(one <= b)^8; the fold fails at `f` if that worst is below `f - 2`.
    let fails: f64 = (3..32)
        .map(|f| {
            let below = 1.0 - share(&sip, f - 2);
            fold[f] as f64 / SEEDS as f64 * below.powi(8)
        })
        .sum();
    println!(
        "chance failure of the bar: {fails:.5} (1 in {:.0})",
        1.0 / fails
    );
}

#[test]
fn top_bits_split_every_key_set_into_even_shards() {
    for (name, keys) in key_sets() {
        let s = FoldBuildHasher::default();
        let mut groups = [0_usize; 16];
        for key in &keys {
            groups[(key.hash_with(&s) >> 60) as usize] += 1;
        }
        let (lo, hi) = (N / 16 * 9 / 10, N / 16 * 11 / 10);
        assert!(
            groups.iter().all(|g| (lo..=hi).contains(g)),
            "{name}: top-4-bit groups {groups:?}, each should be in {lo}..={hi}"
        );
    }
}

#[test]
fn a_clone_hashes_like_its_original() {
    let original = FoldBuildHasher::default();
    let clone = original.clone();
    for (_, keys) in key_sets() {
        for key in keys.iter().step_by(97) {
            assert_eq!(key.hash_with(&original), key.hash_with(&clone));
        }
    }
}

#[test]
fn two_default_builders_hash_apart() {
    let (a, b) = (FoldBuildHasher::default(), FoldBuildHasher::default());
    let differ = (0..64_u64)
        .filter(|i| a.hash_one(i) != b.hash_one(i))
        .count();
    assert_eq!(differ, 64);
}

#[test]
fn a_trailing_zero_byte_changes_the_hash() {
    let s = FoldBuildHasher::default();
    assert_ne!(s.hash_one("ab"), s.hash_one("ab\0"));
    assert_ne!(s.hash_one(b"ab".as_slice()), s.hash_one(b"ab\0".as_slice()));
}
