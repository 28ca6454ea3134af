//! The one adapter every table is driven through.
//!
//! A [`Table`] hands each thread a [`Handle`] that the thread builds for
//! itself and owns: its read flavor lives there (nothing for EBR, a
//! [`QsbrReadHandle`] registration for QSBR), and so does anything else it
//! writes per operation, so no two threads' state shares an allocation.
//! Resizing and the post-run checks are capabilities a table has or has
//! not ([`Resizable`], [`Checked`]); the borrowed read path a torture
//! storm holds references through is [`Get`]. [`tables`] is the one list
//! of every table in the workspace.

use std::hash::{BuildHasher, Hash};

use rp_hash::{FnvBuildHasher, QsbrReadHandle, ReadProtect, ReadSide, RpHashMap};
use rp_shard::{ShardPolicy, ShardedRpMap};
use rp_splitorder::SplitOrderMap;

use crate::{BucketLockTable, DddsTable, MutexTable, RwLockTable, XuTable};

/// A key type every table accepts.
pub trait Key: Hash + Eq + Clone + Send + Sync + 'static {}
impl<T: Hash + Eq + Clone + Send + Sync + 'static> Key for T {}

/// A value type every table accepts.
pub trait Value: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Value for T {}

/// A concurrent table, shared by the threads that drive it.
pub trait Table<K, V>: Send + Sync {
    /// A handle for the calling thread, reading through `read_side`, or
    /// `None` if the table has no read path of that flavor. Every table
    /// serves [`ReadSide::Ebr`]; the RCU tables with a QSBR lookup serve
    /// [`ReadSide::Qsbr`] too. Build it on the thread that uses it (a QSBR
    /// handle cannot leave it).
    fn handle(&self, read_side: ReadSide) -> Option<Box<dyn Handle<K, V> + '_>>;

    /// Number of entries.
    fn len(&self) -> usize;

    /// Returns `true` if the table is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current number of buckets.
    fn num_buckets(&self) -> usize;

    /// The resize capability, if the table resizes online.
    fn resizable(&self) -> Option<&dyn Resizable> {
        None
    }

    /// The post-run checks, if the table has them.
    fn checked(&self) -> Option<&dyn Checked> {
        None
    }
}

/// One thread's way into a [`Table`].
pub trait Handle<K, V> {
    /// Inserts `key → value`; returns `true` if the key was newly inserted.
    fn insert(&mut self, key: K, value: V) -> bool;

    /// Removes `key`; returns `true` if it was present.
    fn remove(&mut self, key: &K) -> bool;

    /// Looks up `key`, cloning the value out.
    fn lookup(&mut self, key: &K) -> Option<V>;
}

/// A table that resizes online.
pub trait Resizable: Sync {
    /// Resizes the table to about `buckets` buckets. An RCU table waits for
    /// its readers here, so the calling thread must hold no online QSBR
    /// handle.
    fn resize_to(&self, buckets: usize);
}

/// A table with structural checks for after a run.
pub trait Checked {
    /// Checks the table's structural invariants (call it quiesced).
    fn check_invariants(&self) -> Result<(), String>;

    /// Waits for a grace period and frees everything retired before it.
    fn flush_retired(&self);
}

/// The borrowed read path of an RCU table: a lookup under any read-side
/// witness, valid for as long as the witness is borrowed.
pub trait Get<K, V> {
    /// Looks up `key` under `protect`.
    fn get<'g, P: ReadProtect>(&'g self, key: &K, protect: &'g P) -> Option<&'g V>;

    /// The read-side prefetch hint for a lookup of `key` that is `depth`
    /// passes away: the value the walked prefix holds for the key's hash,
    /// if any. A table with no hint path returns nothing.
    fn hint<'g, P: ReadProtect>(
        &'g self,
        _key: &K,
        _depth: usize,
        _protect: &'g P,
    ) -> Option<&'g V> {
        None
    }
}

/// A QSBR handle announces a quiescent state after this many operations.
const QUIESCENT_EVERY: u32 = 64;

/// A thread's handle on an RCU table: the table alone for EBR (every
/// lookup pins), or the thread's QSBR registration, which announces a
/// quiescent state every [`QUIESCENT_EVERY`] operations.
///
/// The handle is `!Send` in its QSBR form and is built by the thread that
/// uses it, so its per-operation count lives in that thread's allocation.
struct RcuHandle<'t, M> {
    map: &'t M,
    qsbr: Option<QsbrReadHandle>,
    ops: u32,
}

impl<'t, M> RcuHandle<'t, M> {
    fn boxed<K, V>(map: &'t M, read_side: ReadSide) -> Option<Box<dyn Handle<K, V> + 't>>
    where
        Self: Handle<K, V>,
    {
        let qsbr = match read_side {
            ReadSide::Ebr => None,
            ReadSide::Qsbr => Some(QsbrReadHandle::register()),
        };
        Some(Box::new(RcuHandle { map, qsbr, ops: 0 }))
    }

    fn read<K, V: Clone>(&mut self, key: &K) -> Option<V>
    where
        M: Get<K, V>,
    {
        let value = match &self.qsbr {
            None => self.map.get(key, &rp_rcu::pin()).cloned(),
            Some(handle) => self.map.get(key, handle).cloned(),
        };
        self.tick();
        value
    }

    /// Counts one operation, announcing a quiescent state every
    /// [`QUIESCENT_EVERY`] of them (no references are held between
    /// operations).
    fn tick(&mut self) {
        if let Some(handle) = self.qsbr.as_mut() {
            self.ops += 1;
            if self.ops == QUIESCENT_EVERY {
                self.ops = 0;
                handle.quiescent_state();
            }
        }
    }
}

/// Adapts a table whose lookups protect themselves (a lock, or a pin
/// inside the call): its handle is its own reference, for
/// [`ReadSide::Ebr`] only; given `resize`, it resizes online through that
/// method.
macro_rules! locked_table {
    ($table:ident $(, resize: $resize:ident)?) => {
        impl<K: Key, V: Value, S: BuildHasher + Send + Sync> Table<K, V> for $table<K, V, S> {
            fn handle(&self, read_side: ReadSide) -> Option<Box<dyn Handle<K, V> + '_>> {
                (read_side == ReadSide::Ebr).then(|| Box::new(self) as Box<dyn Handle<K, V>>)
            }

            fn len(&self) -> usize {
                $table::len(self)
            }

            fn num_buckets(&self) -> usize {
                $table::num_buckets(self)
            }

            fn resizable(&self) -> Option<&dyn Resizable> {
                locked_table!(@resizable self $(, $resize)?)
            }
        }

        impl<K: Key, V: Value, S: BuildHasher + Send + Sync> Handle<K, V> for &$table<K, V, S> {
            fn insert(&mut self, key: K, value: V) -> bool {
                self.insert_kv(key, value)
            }

            fn remove(&mut self, key: &K) -> bool {
                self.remove_key(key)
            }

            fn lookup(&mut self, key: &K) -> Option<V> {
                self.get_cloned(key)
            }
        }

        $(
            impl<K: Key, V: Value, S: BuildHasher + Send + Sync> Resizable for $table<K, V, S> {
                fn resize_to(&self, buckets: usize) {
                    self.$resize(buckets)
                }
            }
        )?
    };
    (@resizable $this:ident) => {
        None
    };
    (@resizable $this:ident, $resize:ident) => {
        Some($this)
    };
}

locked_table!(DddsTable, resize: resize);
locked_table!(XuTable, resize: resize);
locked_table!(RwLockTable, resize: rebuild);
locked_table!(BucketLockTable);
locked_table!(MutexTable);

/// Adapts one of the RCU tables, which share their method names: its
/// handle is an [`RcuHandle`], and it resizes (through `$resize`) and
/// checks itself.
macro_rules! rcu_table {
    ($map:ident, $resize:ident) => {
        impl<K: Key, V: Value, S: BuildHasher + Send + Sync> Table<K, V> for $map<K, V, S> {
            fn handle(&self, read_side: ReadSide) -> Option<Box<dyn Handle<K, V> + '_>> {
                RcuHandle::boxed(self, read_side)
            }

            fn len(&self) -> usize {
                $map::len(self)
            }

            fn num_buckets(&self) -> usize {
                $map::num_buckets(self)
            }

            fn resizable(&self) -> Option<&dyn Resizable> {
                Some(self)
            }

            fn checked(&self) -> Option<&dyn Checked> {
                Some(self)
            }
        }

        impl<K: Key, V: Value, S: BuildHasher + Send + Sync> Handle<K, V>
            for RcuHandle<'_, $map<K, V, S>>
        {
            fn insert(&mut self, key: K, value: V) -> bool {
                let inserted = self.map.insert(key, value);
                self.tick();
                inserted
            }

            fn remove(&mut self, key: &K) -> bool {
                let removed = self.map.remove(key);
                self.tick();
                removed
            }

            fn lookup(&mut self, key: &K) -> Option<V> {
                self.read(key)
            }
        }

        impl<K: Key, V: Value, S: BuildHasher + Send + Sync> Resizable for $map<K, V, S> {
            fn resize_to(&self, buckets: usize) {
                self.$resize(buckets)
            }
        }

        impl<K: Key, V: Value, S: BuildHasher> Checked for $map<K, V, S> {
            fn check_invariants(&self) -> Result<(), String> {
                $map::check_invariants(self)
            }

            fn flush_retired(&self) {
                $map::flush_retired(self)
            }
        }
    };
}

rcu_table!(RpHashMap, resize_to);
rcu_table!(ShardedRpMap, resize_total_to);
rcu_table!(SplitOrderMap, resize_to);

impl<K: Key, V: Value, S: BuildHasher> Get<K, V> for RpHashMap<K, V, S> {
    fn get<'g, P: ReadProtect>(&'g self, key: &K, protect: &'g P) -> Option<&'g V> {
        RpHashMap::get(self, key, protect)
    }

    fn hint<'g, P: ReadProtect>(&'g self, key: &K, depth: usize, protect: &'g P) -> Option<&'g V> {
        self.prefetch_prehashed(self.hash_one(key), depth, protect)
    }
}

impl<K: Key, V: Value, S: BuildHasher> Get<K, V> for ShardedRpMap<K, V, S> {
    fn get<'g, P: ReadProtect>(&'g self, key: &K, protect: &'g P) -> Option<&'g V> {
        ShardedRpMap::get(self, key, protect)
    }

    fn hint<'g, P: ReadProtect>(&'g self, key: &K, depth: usize, protect: &'g P) -> Option<&'g V> {
        self.prefetch_prehashed(self.hash_one(key), depth, protect)
    }
}

impl<K: Key, V: Value, S: BuildHasher> Get<K, V> for SplitOrderMap<K, V, S> {
    fn get<'g, P: ReadProtect>(&'g self, key: &K, protect: &'g P) -> Option<&'g V> {
        SplitOrderMap::get(self, key, protect)
    }
}

/// Builds a table with (about) the given total bucket count.
pub type Build<K, V> = fn(usize) -> Box<dyn Table<K, V>>;

/// Every table in the workspace, by the name the figures and tests print,
/// each hashing with FNV.
pub fn tables<K: Key, V: Value>() -> [(&'static str, Build<K, V>); 8] {
    [
        ("rp", |buckets| {
            Box::new(RpHashMap::<K, V, _>::with_buckets_and_hasher(
                buckets,
                FnvBuildHasher,
            ))
        }),
        ("rp-shard", |buckets| {
            let policy = ShardPolicy::default();
            Box::new(ShardedRpMap::<K, V>::with_policy(ShardPolicy {
                initial_buckets_per_shard: (buckets / policy.shards).max(1),
                ..policy
            }))
        }),
        ("splitorder", |buckets| {
            Box::new(SplitOrderMap::<K, V>::with_buckets(buckets))
        }),
        ("ddds", |buckets| {
            Box::new(DddsTable::<K, V>::with_buckets(buckets))
        }),
        ("xu-dual-chain", |buckets| {
            Box::new(XuTable::<K, V>::with_buckets(buckets))
        }),
        ("rwlock", |buckets| {
            Box::new(RwLockTable::<K, V>::with_buckets(buckets))
        }),
        ("bucket-lock", |buckets| {
            Box::new(BucketLockTable::<K, V>::with_buckets(buckets))
        }),
        ("mutex", |buckets| {
            Box::new(MutexTable::<K, V>::with_buckets(buckets))
        }),
    ]
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    use rp_rcu::GraceSync;

    use super::*;

    #[test]
    fn every_table_answers_like_a_map_through_its_handle() {
        for (name, build) in tables::<u64, u64>() {
            let table = build(8);
            let mut handle = table.handle(ReadSide::Ebr).expect("every table serves EBR");
            assert!(table.is_empty(), "{name}");
            assert!(handle.insert(1, 10), "{name}");
            assert!(!handle.insert(1, 11), "{name}");
            assert!(handle.insert(2, 20), "{name}");
            assert_eq!(handle.lookup(&1), Some(11), "{name}");
            assert_eq!(handle.lookup(&3), None, "{name}");
            assert_eq!(table.len(), 2, "{name}");
            assert!(handle.remove(&1), "{name}");
            assert!(!handle.remove(&1), "{name}");
            if let Some(resizable) = table.resizable() {
                resizable.resize_to(64);
                assert_eq!(handle.lookup(&2), Some(20), "{name}");
            }
            if let Some(checked) = table.checked() {
                checked.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn the_rcu_tables_read_through_qsbr_and_the_rest_do_not() {
        let qsbr: Vec<&str> = tables::<u64, u64>()
            .into_iter()
            .filter(|(_, build)| build(8).handle(ReadSide::Qsbr).is_some())
            .map(|(name, _)| name)
            .collect();
        assert_eq!(qsbr, ["rp", "rp-shard", "splitorder"]);
        let resizable: Vec<&str> = tables::<u64, u64>()
            .into_iter()
            .filter(|(_, build)| build(8).resizable().is_some())
            .map(|(name, _)| name)
            .collect();
        assert_eq!(
            resizable,
            [
                "rp",
                "rp-shard",
                "splitorder",
                "ddds",
                "xu-dual-chain",
                "rwlock"
            ]
        );
    }

    /// A QSBR handle is a registered reader: after one lookup, with no
    /// quiescent state announced, a grace period waits for it.
    #[test]
    fn a_qsbr_handle_holds_grace_periods_until_it_quiesces() {
        const STALL: Duration = Duration::from_millis(120);
        const MINIMUM_OBSERVED: Duration = Duration::from_millis(100);
        for (name, build) in tables::<u64, u64>() {
            let table = build(8);
            if table.handle(ReadSide::Qsbr).is_none() {
                continue;
            }
            table.handle(ReadSide::Ebr).unwrap().insert(1, 10);
            let (ready_tx, ready_rx) = mpsc::channel();
            let waited = std::thread::scope(|scope| {
                scope.spawn(|| {
                    let mut handle = table.handle(ReadSide::Qsbr).unwrap();
                    assert_eq!(handle.lookup(&1), Some(10));
                    ready_tx.send(()).unwrap();
                    std::thread::sleep(STALL);
                });
                ready_rx.recv().unwrap();
                let started = Instant::now();
                GraceSync::global().synchronize();
                started.elapsed()
            });
            assert!(
                waited >= MINIMUM_OBSERVED,
                "{name}: synchronize returned after {waited:?} beside a QSBR handle \
                 silent for {STALL:?}; the handle is not a QSBR reader"
            );
        }
    }
}
