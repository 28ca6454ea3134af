//! Aggregated statistics across shards.

use rp_hash::MapStats;

/// A point-in-time snapshot of every shard's counters plus the aggregate,
/// built by [`crate::ShardedRpMap::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// One [`MapStats`] per shard, in shard order.
    pub per_shard: Vec<MapStats>,
    /// Entry count per shard at snapshot time, in shard order.
    pub shard_lens: Vec<usize>,
}

impl ShardStats {
    /// Sums the per-shard counters into a single [`MapStats`].
    pub fn total(&self) -> MapStats {
        let mut total = MapStats::default();
        for s in &self.per_shard {
            total.expands += s.expands;
            total.shrinks += s.shrinks;
            total.unzip_rounds += s.unzip_rounds;
            total.unzip_splices += s.unzip_splices;
            total.inserts += s.inserts;
            total.replaces += s.replaces;
            total.removes += s.removes;
            total.slab_chunks += s.slab_chunks;
            total.slab_huge_chunks += s.slab_huge_chunks;
        }
        total
    }

    /// Number of shards covered by this snapshot.
    pub fn shards(&self) -> usize {
        self.per_shard.len()
    }

    /// Total entries across all shards at snapshot time.
    pub fn len(&self) -> usize {
        self.shard_lens.iter().sum()
    }

    /// Returns `true` if every shard was empty at snapshot time.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ratio of the fullest shard to the mean shard occupancy (1.0 =
    /// perfectly balanced). Useful for checking that the high hash bits
    /// spread the key distribution.
    pub fn imbalance(&self) -> f64 {
        let total = self.len();
        if total == 0 || self.shard_lens.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.shard_lens.len() as f64;
        let max = *self.shard_lens.iter().max().expect("non-empty") as f64;
        max / mean
    }

    /// Shards that performed at least one expand or shrink.
    pub fn shards_resized(&self) -> usize {
        self.per_shard
            .iter()
            .filter(|s| s.expands + s.shrinks > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_across_shards() {
        let stats = ShardStats {
            per_shard: vec![
                MapStats {
                    inserts: 3,
                    expands: 1,
                    ..MapStats::default()
                },
                MapStats {
                    inserts: 2,
                    removes: 1,
                    ..MapStats::default()
                },
            ],
            shard_lens: vec![3, 1],
        };
        let total = stats.total();
        assert_eq!(total.inserts, 5);
        assert_eq!(total.removes, 1);
        assert_eq!(total.resizes(), 1);
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.shards(), 2);
        assert_eq!(stats.shards_resized(), 1);
        assert!((stats.imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_report_balanced() {
        let stats = ShardStats::default();
        assert!(stats.is_empty());
        assert!((stats.imbalance() - 1.0).abs() < 1e-9);
        assert_eq!(stats.total(), MapStats::default());
    }
}
