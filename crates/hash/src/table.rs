//! Bucket arrays.

use std::mem::size_of;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::node::Node;
use crate::slab::{advise_huge_pages, HugePages};

/// A bucket array: a power-of-two number of chain heads.
///
/// The bucket array is itself published through the map's table pointer and
/// reclaimed only after a grace period, so readers may traverse it freely
/// under a guard.
pub(crate) struct BucketArray<K, V> {
    /// `buckets.len() - 1`; bucket index for a hash `h` is `h & mask`.
    pub(crate) mask: usize,
    pub(crate) buckets: Box<[AtomicPtr<Node<K, V>>]>,
}

impl<K, V> BucketArray<K, V> {
    /// Allocates an array of `n` empty buckets (`n` must be a power of two).
    ///
    /// The storage is advised onto huge pages before its first touch, so a
    /// lookup's bucket miss stops paying a TLB miss beside it. Every slot is
    /// written at once, so the advice costs no memory. An array under 2 MiB
    /// holds no whole huge page and is left alone.
    pub(crate) fn new(n: usize) -> Box<Self> {
        assert!(n.is_power_of_two(), "bucket count must be a power of two");
        let mut buckets: Vec<AtomicPtr<Node<K, V>>> = Vec::with_capacity(n);
        // SAFETY: the advised range is the vector's own allocation of `n`
        // slots, which the array keeps until it is dropped.
        unsafe {
            advise_huge_pages(
                buckets.as_mut_ptr().cast(),
                n * size_of::<AtomicPtr<Node<K, V>>>(),
                HugePages::OnFirstTouch,
            );
        }
        buckets.resize_with(n, || AtomicPtr::new(ptr::null_mut()));
        Box::new(BucketArray {
            mask: n - 1,
            buckets: buckets.into_boxed_slice(),
        })
    }

    /// Number of buckets.
    pub(crate) fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Index of the bucket a hash belongs to.
    pub(crate) fn bucket_of(&self, hash: u64) -> usize {
        (hash as usize) & self.mask
    }

    /// Loads a bucket head with acquire ordering (`rcu_dereference`).
    pub(crate) fn head_acquire(&self, index: usize) -> *mut Node<K, V> {
        self.buckets[index].load(Ordering::Acquire)
    }

    /// Publishes a new head for bucket `index` (`rcu_assign_pointer`).
    pub(crate) fn publish_head(&self, index: usize, node: *mut Node<K, V>) {
        self.buckets[index].store(node, Ordering::Release);
    }
}

impl<K, V> std::fmt::Debug for BucketArray<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BucketArray")
            .field("buckets", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_array_is_empty() {
        let t: Box<BucketArray<u32, u32>> = BucketArray::new(8);
        assert_eq!(t.len(), 8);
        assert_eq!(t.mask, 7);
        for i in 0..8 {
            assert!(t.head_acquire(i).is_null());
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_is_rejected() {
        let _: Box<BucketArray<u32, u32>> = BucketArray::new(6);
    }

    #[test]
    fn bucket_of_uses_low_bits() {
        let t: Box<BucketArray<u32, u32>> = BucketArray::new(16);
        assert_eq!(t.bucket_of(0), 0);
        assert_eq!(t.bucket_of(5), 5);
        assert_eq!(t.bucket_of(16 + 3), 3);
        assert_eq!(t.bucket_of(u64::MAX), 15);
    }

    #[test]
    fn publish_and_load_round_trip() {
        let t: Box<BucketArray<u32, u32>> = BucketArray::new(4);
        // Only the address round-trips; nothing dereferences it.
        let node = std::ptr::NonNull::<Node<u32, u32>>::dangling().as_ptr();
        t.publish_head(1, node);
        assert_eq!(t.head_acquire(1), node);
        assert!(t.head_acquire(0).is_null());
    }

    /// kB of `AnonHugePages` in the `/proc/self/smaps` entries that lie
    /// wholly inside `start..end`.
    fn anon_huge_kb_within(start: usize, end: usize) -> u64 {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("procfs");
        let (mut inside, mut kb) = (false, 0);
        for line in smaps.lines() {
            let range = line
                .split_once(' ')
                .and_then(|(range, _)| range.split_once('-'));
            let bounds = range
                .map(|(lo, hi)| (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16)));
            if let Some((Ok(lo), Ok(hi))) = bounds {
                inside = start <= lo && hi <= end;
            } else if let Some(field) = line.strip_prefix("AnonHugePages:").filter(|_| inside) {
                let field = field.trim().trim_end_matches("kB").trim();
                kb += field.parse::<u64>().expect("a count of kB");
            }
        }
        kb
    }

    #[test]
    fn an_expanded_map_keeps_its_big_array_on_huge_pages() {
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_default();
        if mode.is_empty() || mode.contains("[never]") {
            println!("skipped: transparent huge pages are off here ({mode:?})");
            return;
        }
        use crate::{FnvBuildHasher, RpHashMap};
        let map: RpHashMap<u64, u64, FnvBuildHasher> =
            RpHashMap::with_buckets_and_hasher(16, FnvBuildHasher);
        map.insert(1, 1);
        map.resize_to(1 << 20);
        let guard = map.pin();
        let table = map.table_for_read(&guard);
        assert_eq!(table.len(), 1 << 20);
        let start = table.buckets.as_ptr() as usize;
        let end = start + table.len() * size_of::<AtomicPtr<Node<u64, u64>>>();
        let huge = anon_huge_kb_within(start, end);
        println!("{huge} kB of the 8 MiB array on huge pages");
        // Three whole 2 MiB pages lie inside any 8 MiB range, four if it is
        // aligned.
        assert!(
            huge >= 6 << 10,
            "{huge} kB of the 8 MiB array on huge pages"
        );
    }
}
