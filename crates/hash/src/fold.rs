//! A seeded folded-multiply hasher: [`RpHashMap`](crate::RpHashMap)'s
//! default.
//!
//! A lookup is a bucket-head load, a short chain walk and a key compare; the
//! hash in front of them should cost a few instructions, not the ~94 of
//! SipHash-1-3 ([`std::collections::hash_map::RandomState`]) on a `u64`.
//! Those fill the core's reorder window, so the misses of one lookup barely
//! overlap the next one's. A `u64` key here is two folded multiplies, ten
//! instructions (DESIGN.md, *What a lookup's hash costs*). hashbrown made
//! the same trade when it moved from SipHash to foldhash.
//!
//! The table consumes the hash's low bits (`h & mask`, and the next bit up
//! when an unzip splits a bucket) and `rp-shard` routes on its top bits, so
//! both ends must be spread: `tests/hash_spread.rs` checks them against
//! `RandomState` on structured key sets.
//!
//! Each [`FoldBuildHasher::default`] draws a fresh seed, and a clone shares
//! it. The seed keeps one map's bucket order out of another's, but it is not
//! SipHash's keyed-PRF guarantee: for keys an attacker chooses, build the map
//! with `RandomState` through
//! [`RpHashMap::with_buckets_and_hasher`](crate::RpHashMap::with_buckets_and_hasher).

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// The multiplier of every absorbed word (hex digits of π).
const K0: u64 = 0x243f_6a88_85a3_08d3;
/// Mixed with the seed into [`FoldHasher::finish`]'s multiplier.
const K1: u64 = 0x1319_8a2e_0370_7344;

/// The 128-bit product of `a` and `b`, its high half XOR its low half: every
/// input bit reaches the middle output bits, and a carry chain reaches both
/// ends.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A [`Hasher`] that absorbs each 64-bit word with one folded multiply and
/// finishes with one more, keyed by its builder's seed.
#[derive(Clone)]
pub struct FoldHasher {
    acc: u64,
    seed: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        fold(self.acc, self.seed ^ K1)
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.acc = fold(self.acc ^ x, K0);
    }

    /// Eight bytes at a time, little-endian. The last word holds the 0–7
    /// bytes left over and, in its top byte, how many there are, so `"ab"`
    /// and `"ab\0"` are different words.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        last[7] = tail.len() as u8;
        self.write_u64(u64::from_le_bytes(last));
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u128(&mut self, x: u128) {
        self.write_u64(x as u64);
        self.write_u64((x >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// A [`BuildHasher`] producing [`FoldHasher`]s, all keyed by one seed.
///
/// [`Default`] draws a fresh seed (once per builder, not per hash); a clone
/// shares it, so clones hash identically, as `rp-shard`'s routing needs.
#[derive(Clone)]
pub struct FoldBuildHasher {
    seed: u64,
}

// Neither `Debug` prints the seed, as `RandomState`'s hides its keys: a log
// line must not hand out what it takes to build colliding keys.
impl fmt::Debug for FoldBuildHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FoldBuildHasher").finish_non_exhaustive()
    }
}

impl fmt::Debug for FoldHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FoldHasher").finish_non_exhaustive()
    }
}

impl Default for FoldBuildHasher {
    fn default() -> Self {
        // Every `RandomState::new()` has keys of its own, so its hash of a
        // constant is a fresh seed.
        FoldBuildHasher {
            seed: RandomState::new().hash_one(K0),
        }
    }
}

impl BuildHasher for FoldBuildHasher {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.seed,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_does_not_print_the_seed() {
        let s = FoldBuildHasher::default();
        let shown = format!("{s:?} {:?}", s.build_hasher());
        assert_eq!(shown, "FoldBuildHasher { .. } FoldHasher { .. }");
    }

    #[test]
    fn a_tail_carries_its_length() {
        let s = FoldBuildHasher::default();
        let bytes = |b: &[u8]| {
            let mut h = s.build_hasher();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(b"ab"), bytes(b"ab\0"));
        assert_ne!(bytes(b""), bytes(b"\0"));
        assert_ne!(bytes(b"12345678"), bytes(b"12345678\0"));
        // An empty write still absorbs a word: the length-0 tail.
        assert_ne!(bytes(b""), s.build_hasher().finish());
    }

    #[test]
    fn each_integer_width_is_one_word() {
        // The same value hashes the same whatever width carried it; a width
        // that fell back to `write` would absorb a tail word instead.
        let s = FoldBuildHasher::default();
        let h = s.hash_one(7_u64);
        assert_eq!(s.hash_one(7_u8), h);
        assert_eq!(s.hash_one(7_u16), h);
        assert_eq!(s.hash_one(7_u32), h);
        assert_eq!(s.hash_one(7_usize), h);
        assert_eq!(s.hash_one(-1_i32), s.hash_one(u64::from(u32::MAX)));
        let mut two_words = s.build_hasher();
        two_words.write_u64(7);
        two_words.write_u64(0);
        assert_eq!(s.hash_one(7_u128), two_words.finish());
    }
}
