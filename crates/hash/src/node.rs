//! Chain nodes.

use std::sync::atomic::{AtomicPtr, Ordering};

use crate::map::WriterGuard;
use crate::slab::NodeSlab;

/// A single chain node.
///
/// The key, the cached hash and the value are immutable once the node has
/// been published into a bucket chain; only the `next` pointer is ever
/// mutated afterwards (by insertion, removal and the unzip splices), always
/// with release stores paired with readers' acquire loads.
pub(crate) struct Node<K, V> {
    pub(crate) next: AtomicPtr<Node<K, V>>,
    /// The key's hash, cached so resize operations never need to re-hash
    /// (and therefore never need to touch the key type's `Hash` impl while
    /// restructuring chains).
    pub(crate) hash: u64,
    pub(crate) key: K,
    pub(crate) value: V,
}

impl<K, V> Node<K, V> {
    /// Allocates a detached node in `slab`.
    ///
    /// # Safety
    ///
    /// `held` must guard the writer lock of the map that owns `slab`.
    pub(crate) unsafe fn alloc(
        slab: &NodeSlab<K, V>,
        held: &WriterGuard<'_>,
        hash: u64,
        key: K,
        value: V,
    ) -> *mut Node<K, V> {
        // SAFETY: forwarded caller contract.
        let slot = unsafe { slab.alloc(held) };
        // SAFETY: a slot is writable, aligned and sized for one node, and
        // unused until this write.
        unsafe {
            slot.write(Node {
                next: AtomicPtr::new(std::ptr::null_mut()),
                hash,
                key,
                value,
            });
        }
        slot
    }

    /// Loads the successor with acquire ordering (`rcu_dereference`).
    pub(crate) fn next_acquire(&self) -> *mut Node<K, V> {
        self.next.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use rp_rcu::NoGraceWait;

    #[test]
    fn alloc_produces_detached_node() {
        let slab = NodeSlab::new();
        let lock = Mutex::new(());
        let held = NoGraceWait::holding(lock.lock());
        // SAFETY: `lock` is the only lock `slab` is used under.
        let raw = unsafe { Node::alloc(&slab, &held, 0xdead, 7_u32, "seven") };
        // SAFETY: freshly allocated, exclusively owned by the test; nothing
        // in it needs dropping, and the slab's chunk goes with the slab.
        let node = unsafe { &*raw };
        assert!(node.next_acquire().is_null());
        assert_eq!(node.hash, 0xdead);
        assert_eq!(node.key, 7);
        assert_eq!(node.value, "seven");
    }
}
