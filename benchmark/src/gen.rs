//! Seeded input generation. Everything a timed loop consumes is built here,
//! before the clock starts: key streams, absent-key positions and wire bytes.
//! The generator is owned by the benchmark (not `compat/rand` or
//! `rp_workload::Zipf`) so a change to those cannot silently change the
//! inputs a seed produces.

/// splitmix64: the stream generator and, through [`scramble`], the key mixer.
pub struct Rng(u64);

impl Rng {
    /// `stream` separates the independent streams one seed feeds (one per
    /// thread, one per purpose).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(scramble(seed ^ scramble(stream.wrapping_add(0x5bd1_e995))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        finalize(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; bias is below 2^-32 for the sizes
    /// used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A bijection on `u64`, so distinct inputs give distinct keys.
pub fn scramble(x: u64) -> u64 {
    finalize(x.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// Marks an id of the stream as a key that was never stored.
pub const ABSENT: u32 = 1 << 31;

/// How a workload draws key ids.
#[derive(Clone, Copy)]
pub struct KeyDist {
    /// `None` is uniform; `Some(s)` is Zipf with exponent `s`.
    pub zipf: Option<f64>,
    /// Share of reads, in 1/1000, that go to keys that were never stored.
    pub absent_permille: u32,
}

/// Zipf ids are drawn a block of this many at a time.
const ZIPF_BLOCK: usize = 4096;

/// `len` key ids over `0..n`, each possibly flagged [`ABSENT`].
///
/// Zipf ids are drawn by stratified sampling, block by block: one draw from
/// each of [`ZIPF_BLOCK`] equal slices of the CDF, then shuffled. Every
/// block therefore requests each popular key its expected number of times
/// and only the order (and which rare keys appear) differs, so hit ratios
/// and eviction counts vary between seeds and between windows by order
/// effects, not by sampling error.
pub fn id_stream(dist: KeyDist, n: usize, len: usize, rng: &mut Rng) -> Vec<u32> {
    assert!(n > 0 && n < ABSENT as usize);
    let mut ids: Vec<u32> = match dist.zipf {
        None => (0..len).map(|_| rng.below(n as u64) as u32).collect(),
        Some(s) => zipf_stratified(n, s, len, rng),
    };
    // Rank r becomes id (r * odd + offset) mod n': popular keys are spread
    // over the id space differently for every seed. n' is the power of two
    // at or above n; ids that land beyond n are walked until they fit
    // (cycle-walking keeps the map a bijection on 0..n).
    let mask = (n.next_power_of_two() - 1) as u64;
    let odd = rng.next_u64() | 1;
    let offset = rng.next_u64();
    for id in ids.iter_mut() {
        let mut x = u64::from(*id);
        loop {
            x = (x.wrapping_mul(odd).wrapping_add(offset)) & mask;
            if (x as usize) < n {
                break;
            }
        }
        *id = x as u32;
    }
    // Exactly the stated share is absent, at seeded positions.
    let absent = len * dist.absent_permille as usize / 1000;
    if absent > 0 {
        let mut positions: Vec<u32> = (0..len as u32).collect();
        rng.shuffle(&mut positions);
        for &p in &positions[..absent] {
            ids[p as usize] |= ABSENT;
        }
    }
    ids
}

fn zipf_stratified(n: usize, s: f64, len: usize, rng: &mut Rng) -> Vec<u32> {
    let mut cdf: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = cdf.iter().sum();
    let mut acc = 0.0;
    for w in cdf.iter_mut() {
        acc += *w / total;
        *w = acc;
    }
    let mut ranks = Vec::with_capacity(len);
    while ranks.len() < len {
        let block = ZIPF_BLOCK.min(len - ranks.len());
        let from = ranks.len();
        for i in 0..block {
            let u = (i as f64 + rng.unit()) / block as f64;
            ranks.push(cdf.partition_point(|&p| p < u).min(n - 1) as u32);
        }
        rng.shuffle(&mut ranks[from..]);
    }
    ranks
}

/// The `u64` table key for id `index`; stored and never-stored keys are
/// disjoint because [`scramble`] is a bijection.
pub fn table_key(id: u32) -> u64 {
    let index = u64::from(id & !ABSENT);
    scramble(2 * index + u64::from(id & ABSENT != 0))
}

/// The value every stored table key maps to.
pub fn table_value(key: u64) -> u64 {
    key.rotate_left(23) ^ 0x5851_f42d_4c95_7f2d
}

pub const WIRE_KEY_LEN: usize = 12;
pub const VALUE_LEN: usize = 64;
pub const GET_LEN: usize = 4 + WIRE_KEY_LEN + 2;
pub const SET_LEN: usize = 4 + WIRE_KEY_LEN + 9 + VALUE_LEN + 2;

/// `key:NNNNNNNN`. Never-stored ids get their own `abs:` prefix.
pub fn wire_key(id: u32) -> [u8; WIRE_KEY_LEN] {
    let mut key = *b"key:00000000";
    if id & ABSENT != 0 {
        key[..3].copy_from_slice(b"abs");
    }
    let mut n = id & !ABSENT;
    for slot in key[4..].iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
    debug_assert_eq!(n, 0);
    key
}

/// The 64-byte value stored under `id`.
pub fn wire_value(id: u32) -> [u8; VALUE_LEN] {
    let mut value = [0u8; VALUE_LEN];
    let mut word = scramble(u64::from(id));
    for chunk in value.chunks_mut(16) {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = b"0123456789abcdef"[((word >> (4 * i)) & 15) as usize];
        }
        word = scramble(word);
    }
    value
}

/// Appends `get <key>\r\n`.
pub fn push_get(out: &mut Vec<u8>, id: u32) {
    out.extend_from_slice(b"get ");
    out.extend_from_slice(&wire_key(id));
    out.extend_from_slice(b"\r\n");
}

/// Appends `set <key> 0 0 64\r\n<value>\r\n`.
pub fn push_set(out: &mut Vec<u8>, id: u32) {
    out.extend_from_slice(b"set ");
    out.extend_from_slice(&wire_key(id));
    out.extend_from_slice(b" 0 0 64\r\n");
    out.extend_from_slice(&wire_value(id));
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_exact_absent_share() {
        let dist = KeyDist {
            zipf: Some(0.99),
            absent_permille: 50,
        };
        let a = id_stream(dist, 1000, 4000, &mut Rng::new(7, 1));
        let b = id_stream(dist, 1000, 4000, &mut Rng::new(7, 1));
        let c = id_stream(dist, 1000, 4000, &mut Rng::new(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.iter().filter(|&&id| id & ABSENT != 0).count(), 200);
        assert!(a.iter().all(|&id| ((id & !ABSENT) as usize) < 1000));
    }

    #[test]
    fn wire_lengths_match_the_constants() {
        let (mut get, mut set) = (Vec::new(), Vec::new());
        push_get(&mut get, 42);
        push_set(&mut set, 42 | ABSENT);
        assert_eq!(get.len(), GET_LEN);
        assert_eq!(set.len(), SET_LEN);
        assert_eq!(&get, b"get key:00000042\r\n");
        assert!(set.starts_with(b"set abs:00000042 0 0 64\r\n"));
    }
}
