//! The split-ordered engine: [`Engine`] over an
//! [`rp_splitorder::SplitOrderMap`] index — the competing resize
//! philosophy, behind the same seam.

use rp_hash::FnvBuildHasher;
use rp_splitorder::SplitOrderMap;

use crate::item::ItemKey;
use crate::rp_engine::{impl_byte_key_index, Engine, StoredItem};

impl_byte_key_index!(
    SplitOrderMap<ItemKey, StoredItem, FnvBuildHasher>,
    "splitorder"
);

/// The split-ordered engine: the index is a lock-free split-ordered list,
/// so **SETs and DELETEs never serialise on a writer lock** and index
/// growth is a single pointer publication — no data movement, no
/// grace-period wait. GETs are the same `ReadProtect`-generic wait-free
/// lookups as the relativistic engines (EBR guard or barrier-free QSBR
/// handle); what removals and replacements retire is freed by
/// `rp_rcu::GraceSync`'s reclaim thread, so the engine has no housekeeping.
pub type SplitOrderEngine = Engine<SplitOrderMap<ItemKey, StoredItem, FnvBuildHasher>>;

impl SplitOrderEngine {
    /// Creates an engine with a large default capacity.
    pub fn new() -> Self {
        Self::with_capacity(1 << 20)
    }

    /// Creates an engine that holds at most `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        // The initial size only (see `RpEngine::with_capacity`).
        let buckets = capacity.clamp(16, 1024).next_power_of_two();
        Engine::over(SplitOrderMap::with_buckets(buckets), capacity)
    }
}

impl Default for SplitOrderEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rp_engine::tests::qsbr_worker_growth;

    #[test]
    fn index_splits_itself_even_from_a_qsbr_worker() {
        // The headline difference from the relativistic engines: growth is
        // non-blocking, so it is *not* postponed while the worker is a
        // QSBR-online reader — the index splits mid-batch, no housekeeping
        // catch-up required.
        qsbr_worker_growth(
            SplitOrderEngine::with_capacity(100_000),
            |index| index.num_buckets(),
            8192,
            false,
        );
    }
}
