//! A small, deterministic FNV-1a hasher.
//!
//! [`crate::RpHashMap`]'s default is the seeded [`crate::FoldBuildHasher`];
//! this hasher has no seed, so tests, benchmarks and the shard router hash
//! the same way in every run (the paper's microbenchmark uses a trivial hash
//! as well). It reads a key a byte at a time, so a long key costs more here
//! than under the default.

use std::hash::{BuildHasher, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a [`Hasher`].
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher {
    state: u64,
}

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher { state: FNV_OFFSET }
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        // A final avalanche step spreads entropy into the low bits, which is
        // what the table's mask uses for bucket selection.
        let mut x = self.state;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        x
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// A [`BuildHasher`] producing [`FnvHasher`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

impl BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FnvBuildHasher.hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_of(&42_u64), hash_of(&42_u64));
        assert_eq!(hash_of(&"key"), hash_of(&"key"));
    }

    #[test]
    fn different_inputs_hash_differently() {
        assert_ne!(hash_of(&1_u64), hash_of(&2_u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
    }

    #[test]
    fn low_bits_are_well_distributed() {
        // Bucket selection uses the low bits; sequential keys must not all
        // collide in a small table.
        let mask = 63_u64;
        let mut seen = std::collections::HashSet::new();
        for i in 0_u64..64 {
            seen.insert(hash_of(&i) & mask);
        }
        assert!(
            seen.len() > 32,
            "sequential keys fill only {} of 64 buckets",
            seen.len()
        );
    }
}
