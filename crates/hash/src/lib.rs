//! Resizable, scalable, concurrent hash tables via relativistic programming.
//!
//! This crate implements the central contribution of Triplett, McKenney &
//! Walpole's USENIX ATC'11 paper: an open-chaining hash table whose lookups
//! are *wait-free* — no locks, no retries, no atomic read-modify-write
//! instructions — and which can nonetheless be **grown and shrunk while
//! readers run at full speed**.
//!
//! The resize algorithms rely on a relaxed but sufficient notion of
//! consistency: a reader traversing a hash bucket must always observe every
//! element that belongs to that bucket, but observing *extra* elements (ones
//! that belong to a sibling bucket) is harmless because the per-element key
//! comparison filters them out. Buckets that temporarily contain foreign
//! elements are called *imprecise*.
//!
//! * **Shrinking ("zip")** concatenates the chains of the old buckets that
//!   collapse into each new bucket, publishes the smaller bucket array, and
//!   waits for one grace period before reclaiming the old array.
//! * **Expanding ("unzip")** points each new bucket into the old chain at
//!   the first element that belongs to it, publishes the larger bucket
//!   array, waits for one grace period and then cuts each chain apart with
//!   one store. Every chain is kept sorted by `hash.reverse_bits()`, so the
//!   elements that stay in the low bucket come before the ones that move,
//!   and one cut per chain leaves every bucket precise.
//!
//! Readers are oblivious to all of this; they never see a bucket that is
//! missing one of its elements.
//!
//! A map hashes with [`FoldBuildHasher`] unless told otherwise: a seeded
//! folded multiply, a few instructions per key, so that a lookup costs its
//! memory accesses and independent lookups overlap their misses. It trades
//! SipHash's flood resistance for that; pass std's `RandomState` to
//! [`RpHashMap::with_buckets_and_hasher`] for keys an attacker chooses.
//! [`FnvBuildHasher`] is the unseeded, deterministic choice.
//!
//! # Example
//!
//! ```
//! use rp_hash::RpHashMap;
//!
//! let map: RpHashMap<u64, &'static str> = RpHashMap::with_buckets(8);
//! map.insert(1, "one");
//! map.insert(2, "two");
//! map.insert(3, "three");
//!
//! // Readers pin a guard; lookups are wait-free. (Other threads can keep
//! // reading like this while the resizes below are in progress; a single
//! // thread must drop its guard before *itself* resizing, since resizing
//! // waits for all readers.)
//! {
//!     let guard = map.pin();
//!     assert_eq!(map.get(&2, &guard), Some(&"two"));
//! }
//!
//! // Grow and shrink; the map stays fully readable throughout.
//! map.expand();
//! map.shrink();
//!
//! let guard = map.pin();
//! assert_eq!(map.get(&1, &guard), Some(&"one"));
//! assert_eq!(map.get(&3, &guard), Some(&"three"));
//! assert_eq!(map.len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod fnv;
mod fold;
mod iter;
mod map;
mod node;
mod policy;
pub mod qsbr;
mod resize;
mod slab;
mod stats;
mod table;

pub use fnv::{FnvBuildHasher, FnvHasher};
pub use fold::{FoldBuildHasher, FoldHasher};
pub use iter::Iter;
pub use map::{prefetch_line, RpHashMap};
pub use policy::ResizePolicy;
pub use qsbr::{QsbrReadHandle, ReadProtect, ReadSide};
pub use slab::slab_chunks_mapped;
pub use stats::MapStats;

/// Re-export of the guard type readers use to delimit lookups.
pub use rp_rcu::RcuGuard;
