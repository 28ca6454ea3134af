//! Key-space generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// The distribution keys are drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key in the key space is equally likely (the paper's
    /// microbenchmark workload).
    Uniform,
    /// Zipf-distributed popularity with the given exponent (cache-like
    /// workloads; used by the memcached harness).
    Zipf(f64),
    /// Keys are generated in a round-robin sequence (useful for building the
    /// initial table contents deterministically).
    Sequential,
}

/// A deterministic, seedable key generator over `0..keyspace`.
#[derive(Debug, Clone)]
pub struct KeyGen {
    dist: KeyDist,
    keyspace: u64,
    rng: StdRng,
    zipf: Option<Zipf>,
    next_seq: u64,
}

impl KeyGen {
    /// Creates a generator over `0..keyspace` with the given distribution
    /// and seed.
    ///
    /// # Panics
    ///
    /// Panics if `keyspace == 0`.
    pub fn new(dist: KeyDist, keyspace: u64, seed: u64) -> Self {
        assert!(keyspace > 0, "key space must be non-empty");
        let zipf = match dist {
            KeyDist::Zipf(s) => Some(Zipf::new(keyspace as usize, s)),
            _ => None,
        };
        KeyGen {
            dist,
            keyspace,
            rng: StdRng::seed_from_u64(seed),
            zipf,
            next_seq: 0,
        }
    }

    /// The size of the key space.
    pub fn keyspace(&self) -> u64 {
        self.keyspace
    }

    /// Draws the next key.
    pub fn next_key(&mut self) -> u64 {
        match self.dist {
            KeyDist::Uniform => self.rng.gen_range(0..self.keyspace),
            KeyDist::Zipf(_) => self
                .zipf
                .as_ref()
                .expect("zipf table built in new()")
                .sample(&mut self.rng) as u64,
            KeyDist::Sequential => {
                let k = self.next_seq;
                self.next_seq = (self.next_seq + 1) % self.keyspace;
                k
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_wraps_around() {
        let mut g = KeyGen::new(KeyDist::Sequential, 3, 0);
        let keys: Vec<u64> = (0..7).map(|_| g.next_key()).collect();
        assert_eq!(keys, [0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let mut a = KeyGen::new(KeyDist::Uniform, 1000, 7);
        let mut b = KeyGen::new(KeyDist::Uniform, 1000, 7);
        let ka: Vec<u64> = (0..100).map(|_| a.next_key()).collect();
        let kb: Vec<u64> = (0..100).map(|_| b.next_key()).collect();
        assert_eq!(ka, kb);
        assert!(ka.iter().all(|&k| k < 1000));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = KeyGen::new(KeyDist::Uniform, 1_000_000, 1);
        let mut b = KeyGen::new(KeyDist::Uniform, 1_000_000, 2);
        let ka: Vec<u64> = (0..50).map(|_| a.next_key()).collect();
        let kb: Vec<u64> = (0..50).map(|_| b.next_key()).collect();
        assert_ne!(ka, kb);
    }

    #[test]
    fn zipf_keys_stay_in_range() {
        let mut g = KeyGen::new(KeyDist::Zipf(0.99), 128, 3);
        for _ in 0..1000 {
            assert!(g.next_key() < 128);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_keyspace_panics() {
        let _ = KeyGen::new(KeyDist::Uniform, 0, 0);
    }
}
