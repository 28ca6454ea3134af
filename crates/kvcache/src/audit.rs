//! A debug-build tally of the writes the GET path makes to memory that
//! other threads share: what a hit costs the cache lines every worker
//! reads.
//!
//! Each such write site calls `count`; in a debug build that bumps a
//! plain thread-local counter, in a release build it compiles to nothing.
//! `tests/get_shared_writes.rs` serves pipelined GETs on one thread and
//! reads the tally back with `take`.

/// One kind of engine-shared write on the GET path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SharedWrite {
    /// The engine's clock `fetch_add` that stamps a hit.
    Stamp,
    /// The store of that stamp into a hit item's `last_access`.
    LastAccess,
    /// A `fetch_add` folding a context's GET hits into `CacheStats`.
    HitFold,
    /// A `fetch_add` folding a context's GET misses into `CacheStats`.
    MissFold,
    /// A `fetch_add` folding a context's promotions into the protected
    /// count of `CacheStats`.
    PromotionFold,
    /// A clone of a stored payload's shared `Bytes` (a value longer than
    /// `INLINE_VALUE_LEN`): a `lock xadd` on its reference count, and
    /// another when the clone is dropped. Copying an inline payload
    /// writes nothing shared and is not counted.
    PayloadClone,
}

/// The tally, one counter per kind of shared write.
#[cfg(debug_assertions)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SharedWrites {
    /// Clock stamps taken.
    pub stamps: u64,
    /// `last_access` stores.
    pub last_access: u64,
    /// Folds of GET hits into `CacheStats`.
    pub hit_folds: u64,
    /// Folds of GET misses into `CacheStats`.
    pub miss_folds: u64,
    /// Folds of promotions into `CacheStats`.
    pub promotion_folds: u64,
    /// Clones of shared payload `Bytes`.
    pub payload_clones: u64,
}

#[cfg(debug_assertions)]
thread_local! {
    static TALLY: std::cell::Cell<SharedWrites> = const {
        std::cell::Cell::new(SharedWrites {
            stamps: 0,
            last_access: 0,
            hit_folds: 0,
            miss_folds: 0,
            promotion_folds: 0,
            payload_clones: 0,
        })
    };
}

/// Counts one shared write made by the calling thread (debug builds only).
#[inline(always)]
pub(crate) fn count(write: SharedWrite) {
    #[cfg(debug_assertions)]
    TALLY.with(|tally| {
        let mut sum = tally.get();
        *match write {
            SharedWrite::Stamp => &mut sum.stamps,
            SharedWrite::LastAccess => &mut sum.last_access,
            SharedWrite::HitFold => &mut sum.hit_folds,
            SharedWrite::MissFold => &mut sum.miss_folds,
            SharedWrite::PromotionFold => &mut sum.promotion_folds,
            SharedWrite::PayloadClone => &mut sum.payload_clones,
        } += 1;
        tally.set(sum);
    });
    #[cfg(not(debug_assertions))]
    let _ = write;
}

/// Returns the calling thread's tally and zeroes it.
#[cfg(debug_assertions)]
pub fn take() -> SharedWrites {
    TALLY.with(std::cell::Cell::take)
}
