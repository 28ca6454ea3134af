//! Bucket arrays.

use std::sync::atomic::{AtomicPtr, Ordering};

use crate::node::Node;

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
    pub(crate) fn new(n: usize) -> Box<Self> {
        assert!(n.is_power_of_two(), "bucket count must be a power of two");
        let buckets: Box<[AtomicPtr<Node<K, V>>]> = (0..n)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect();
        Box::new(BucketArray {
            mask: n - 1,
            buckets,
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
}
