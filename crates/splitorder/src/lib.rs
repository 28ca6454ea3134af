//! A lock-free **split-ordered** hash map — the main *competing* resize
//! philosophy to the paper's relativistic zip/unzip.
//!
//! Shalev & Shavit's design ("Split-Ordered Lists: Lock-Free Extensible
//! Hash Tables") stores every entry in a **single lock-free ordered linked
//! list**, keyed by the *bit-reversal* of the entry's hash. A growable
//! array of bucket pointers holds shortcuts into that list: bucket `b`
//! points at a permanent *dummy* node whose split-order key is
//! `reverse_bits(b)`. Because reversing the bits turns the low `log2(size)`
//! hash bits (the bucket index) into the list's most-significant sort key,
//! doubling the table splits every bucket `b` into `b` and `b + size` —
//! **without moving a single data node**. A resize just publishes a larger
//! (or smaller) shortcut array; new dummies are spliced in lazily, on first
//! touch.
//!
//! Contrast with [`rp_hash::RpHashMap`]:
//!
//! * **Writers are lock-free** — insert and remove are CAS loops on the
//!   list (Michael's algorithm: a *mark bit* in a node's next pointer makes
//!   deletion logical first, physical later). `RpHashMap` serialises
//!   writers behind a mutex.
//! * **Resizes move no data and wait for nobody** — publishing a bigger
//!   bucket array is one `compare_exchange`; the old array is reclaimed
//!   *non-blockingly* through the global deferred queue. The relativistic
//!   table's unzip must wait out one grace period per chain-split round.
//! * **Reads carry over unchanged** — lookups are generic over the same
//!   [`rp_hash::ReadProtect`] witness (EBR guard or QSBR handle), traverse
//!   with plain `Acquire` loads, and never CAS, so the whole read-side
//!   story (barrier-free QSBR included) is identical to the rest of the
//!   workspace. Node and array reclamation funnels through
//!   [`rp_rcu::GraceSync`], covering both reader flavors.
//!
//! The price: every lookup walks a *shared global list segment* (cold
//! buckets borrow their parent's dummy until first write) and deletions
//! leave marked nodes for later traversals to unlink. Shrinking retires
//! the shortcut array *and* compacts away the dead buckets' dummy nodes
//! (marked like deleted data, swept, reclaimed through the deferred
//! queue), so repeated grow→shrink cycles do not accrete passive hops.
//!
//! ```
//! use rp_splitorder::SplitOrderMap;
//!
//! let map: SplitOrderMap<u64, &str> = SplitOrderMap::new();
//! assert!(map.insert(1, "one"));
//! assert!(!map.insert(1, "uno")); // replaced, not inserted
//! let guard = map.pin();
//! assert_eq!(map.get(&1, &guard), Some(&"uno"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod map;

pub use map::{SplitIter, SplitOrderMap};
