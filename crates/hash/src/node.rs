//! Chain nodes, and the two handles the rest of the crate reaches them
//! through (DESIGN.md, *What protects a node*):
//!
//! * [`NodeRef`]: loaded under a read witness, `Copy`, and alive for as
//!   long as the witness is borrowed;
//! * [`Locked`]: loaded under the map's writer lock, the only handle that
//!   stores a link, and consumed when its node is retired.
//!
//! Raw node pointers stay in this file, `table.rs` and `slab.rs`.

use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::map::WriterGuard;
use crate::slab::NodeSlab;

/// A single chain node.
///
/// The key, the cached hash and the value are immutable once the node has
/// been published into a bucket chain; only the `next` pointer is ever
/// mutated afterwards (by insertion, removal and the unzip's cut), always
/// with release stores paired with readers' acquire loads.
///
/// The fields are laid out in the order written (`repr(C)`): the link and
/// the cached hash, which every step of a walk reads, open the node and
/// the key follows, so a value type can put what a scan of the entries
/// reads first and have it share their line.
#[repr(C)]
pub(crate) struct Node<K, V> {
    next: AtomicPtr<Node<K, V>>,
    /// The key's hash, cached so resize operations never need to re-hash
    /// (and therefore never need to touch the key type's `Hash` impl while
    /// restructuring chains).
    pub(crate) hash: u64,
    pub(crate) key: K,
    pub(crate) value: V,
}

impl<K, V> Node<K, V> {
    /// Allocates a detached node in `slab`, the slab of the map whose
    /// writer lock `held` guards.
    pub(crate) fn alloc<'w>(
        slab: &NodeSlab<K, V>,
        held: &'w WriterGuard<'_, K, V>,
        hash: u64,
        key: K,
        value: V,
    ) -> Locked<'w, K, V> {
        let next = AtomicPtr::new(ptr::null_mut());
        // SAFETY: `held` guards the slab's map's lock; a slot is writable,
        // aligned, sized for one node and unused until this write, and the
        // node is the writer's until it is retired.
        unsafe {
            let slot = slab.alloc(held);
            slot.write(Node {
                next,
                hash,
                key,
                value,
            });
            Locked(NonNull::new_unchecked(slot), PhantomData)
        }
    }

    /// Drops in place the nodes of the chain from `head` that `at_home`
    /// accepts, leaving their memory to the slab. Only `next` and `hash`
    /// are read from the others, fields with nothing to drop.
    ///
    /// # Safety
    ///
    /// Nothing else reaches the chain, its nodes' memory is mapped, and
    /// every node is accepted from exactly one chain this is called on.
    pub(crate) unsafe fn drop_chain(head: *mut Node<K, V>, at_home: impl Fn(u64) -> bool) {
        let mut cur = head;
        while !cur.is_null() {
            // SAFETY: per the contract, `cur` is mapped, and dropped here at
            // most once, after its successor is read.
            unsafe {
                let next = (*cur).next.load(Ordering::Relaxed);
                if at_home((*cur).hash) {
                    ptr::drop_in_place(cur);
                }
                cur = next;
            }
        }
    }
}

/// A node reached under a read witness ([`crate::ReadProtect`]): alive for
/// `'r`, the witness's borrow, because nothing reachable while a witness is
/// borrowed is freed before the borrow ends. `Option<NodeRef>` is one
/// nullable pointer.
pub(crate) struct NodeRef<'r, K, V>(&'r Node<K, V>);

impl<K, V> Clone for NodeRef<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, V> Copy for NodeRef<'_, K, V> {}

impl<'r, K, V> NodeRef<'r, K, V> {
    /// # Safety
    ///
    /// `node` is null or a node reachable, while `'r` lasts, from a table a
    /// read witness borrowed for `'r` protects.
    pub(crate) unsafe fn new(node: *mut Node<K, V>) -> Option<Self> {
        // SAFETY: per the contract, the node outlives `'r`.
        unsafe { node.as_ref() }.map(NodeRef)
    }

    /// The successor (`rcu_dereference`), reachable while `'r` lasts.
    #[inline]
    pub(crate) fn next(self) -> Option<Self> {
        // SAFETY: reached from a node the witness protects, so protected.
        unsafe { Self::new(self.0.next.load(Ordering::Acquire)) }
    }

    /// The node, for as long as the witness is borrowed.
    #[inline]
    pub(crate) fn get(self) -> &'r Node<K, V> {
        self.0
    }
}

impl<K, V> Deref for NodeRef<'_, K, V> {
    type Target = Node<K, V>;

    fn deref(&self) -> &Node<K, V> {
        self.0
    }
}

/// A node reached under the writer lock `'w` borrows, or allocated under
/// it. No other writer can retire it, and this one retires it only by
/// handing the handle over ([`crate::table::LockedTable::swap_out`]), so
/// nothing derived from the handle outlives the node. The only handle that
/// stores a link; not `Copy`, and not `Send`.
pub(crate) struct Locked<'w, K, V>(NonNull<Node<K, V>>, PhantomData<&'w Node<K, V>>);

impl<'w, K, V> Locked<'w, K, V> {
    /// # Safety
    ///
    /// `node` is null or a live node of the map whose writer lock `'w`
    /// borrows: reachable from its table, or allocated under the lock.
    pub(crate) unsafe fn new(node: *mut Node<K, V>) -> Option<Self> {
        NonNull::new(node).map(|node| Locked(node, PhantomData))
    }

    /// The successor, with the acquire load readers use.
    pub(crate) fn next(&self) -> Option<Self> {
        // SAFETY: a successor of a live node is reachable from the table.
        unsafe { Self::new(self.next.load(Ordering::Acquire)) }
    }

    /// Points `next` at `to` (`rcu_assign_pointer`).
    pub(crate) fn link(&self, to: Option<&Self>) {
        self.next.store(Self::raw(to), Ordering::Release);
    }

    /// Sets the successor of a node no reader can reach yet: its
    /// publication is the release.
    pub(crate) fn init_next(&self, to: Option<&Self>) {
        self.next.store(Self::raw(to), Ordering::Relaxed);
    }

    /// Whether `self` and `other` are the same node.
    pub(crate) fn is(&self, other: &Self) -> bool {
        self.0 == other.0
    }

    /// The pointer a link to `node` stores.
    pub(crate) fn raw(node: Option<&Self>) -> *mut Node<K, V> {
        node.map_or(ptr::null_mut(), |node| node.0.as_ptr())
    }
}

impl<K, V> Deref for Locked<'_, K, V> {
    type Target = Node<K, V>;

    fn deref(&self) -> &Node<K, V> {
        // SAFETY: live while the lock is held and the handle is not handed
        // over for retirement (see the type's docs).
        unsafe { self.0.as_ref() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::WriterLock;
    use rp_rcu::NoGraceWait;

    #[test]
    fn alloc_produces_detached_node() {
        let slab = NodeSlab::new();
        let lock = WriterLock::default();
        let held = NoGraceWait::holding(lock.lock());
        let node = Node::alloc(&slab, &held, 0xdead, 7_u32, "seven");
        assert!(node.next().is_none());
        assert_eq!(node.hash, 0xdead);
        assert_eq!(node.key, 7);
        assert_eq!(node.value, "seven");
        // Nothing in it needs dropping, and the slab's chunk goes with the
        // slab.
    }
}
