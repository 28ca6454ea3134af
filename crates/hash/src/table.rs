//! Bucket arrays, the pointer that publishes one, and the two views code
//! walks one through: [`ReadTable`] under a read witness, [`LockedTable`]
//! under the writer lock (DESIGN.md, *What protects a node*).

use std::mem::needs_drop;
use std::ops::Deref;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use crate::map::{prefetch_line, prefetch_line_for_write, WriterGuard};
use crate::node::{Locked, Node, NodeRef};
use crate::qsbr::ReadProtect;
use crate::slab::{advise_spare, HugePages, NodeSlab};

/// A bucket array: a power-of-two number of chain heads.
///
/// The bucket array is itself published through the map's table pointer and
/// reclaimed only after a grace period, so readers may traverse it freely
/// under a guard.
pub(crate) struct BucketArray<K, V> {
    /// `buckets.len() - 1`; bucket index for a hash `h` is `h & mask`.
    mask: usize,
    buckets: Box<[AtomicPtr<Node<K, V>>]>,
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
        advise_spare(buckets.spare_capacity_mut(), HugePages::OnFirstTouch);
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

    /// Points bucket `index` at `node` (`rcu_assign_pointer`).
    pub(crate) fn set_head(&self, index: usize, node: Option<&Locked<'_, K, V>>) {
        self.buckets[index].store(Locked::raw(node), Ordering::Release);
    }

    /// Hints bucket `index`'s slot. A hint may name any address, so the
    /// index is not checked.
    pub(crate) fn hint_slot(&self, index: usize) {
        prefetch_line(self.buckets.as_ptr().wrapping_add(index).cast());
    }

    /// Whether a node's first 64 bytes can straddle two lines. A slab's
    /// slots follow each other from a line-aligned chunk start, so a node
    /// whose size divides 64, or is a multiple of it, never straddles.
    const HEAD_STRADDLES: bool = {
        let size = size_of::<Node<K, V>>();
        !size.is_multiple_of(64) && !64_usize.is_multiple_of(size)
    };

    /// Hints the head node of bucket `index`, if there is one: its first
    /// 64 bytes, two lines when they straddle. Only the head: a hint that
    /// loads the head to hint its successor turns the head's miss back
    /// into one the caller waits for.
    pub(crate) fn hint_head(&self, index: usize) {
        if let Some(slot) = self.buckets.get(index) {
            // Relaxed: the pointer is only hinted, never dereferenced.
            let head: *const u8 = slot.load(Ordering::Relaxed).cast_const().cast();
            prefetch_line(head);
            if Self::HEAD_STRADDLES {
                prefetch_line(head.wrapping_add(size_of::<Node<K, V>>().min(64) - 1));
            }
        }
    }
}

impl<K, V> Drop for BucketArray<K, V> {
    /// Gives the array's whole 2 MiB pages back to the kernel before the
    /// allocator takes its memory back. The allocator keeps a freed array
    /// below the mapping threshold in its heap, resident until the heap's
    /// top is trimmed, which a build's doublings do not reliably cause.
    fn drop(&mut self) {
        let mut buckets = std::mem::take(&mut self.buckets).into_vec();
        buckets.clear();
        advise_spare(buckets.spare_capacity_mut(), HugePages::Release);
    }
}

impl<K, V> std::fmt::Debug for BucketArray<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BucketArray")
            .field("buckets", &self.len())
            .finish()
    }
}

/// The map's published bucket array, and its bucket count.
pub(crate) struct TablePtr<K, V> {
    array: AtomicPtr<BucketArray<K, V>>,
    /// The published array's length, stored with it under the writer lock:
    /// what a caller with no witness may ask, since the array it loads may
    /// be freed before it reads it.
    buckets: AtomicUsize,
}

impl<K, V> TablePtr<K, V> {
    pub(crate) fn new(array: Box<BucketArray<K, V>>) -> Self {
        TablePtr {
            buckets: AtomicUsize::new(array.len()),
            array: AtomicPtr::new(Box::into_raw(array)),
        }
    }

    /// The published array's bucket count (a snapshot).
    pub(crate) fn buckets(&self) -> usize {
        self.buckets.load(Ordering::Relaxed)
    }

    /// The published array, for a reader holding `protect`.
    pub(crate) fn read<'r, P: ReadProtect>(&'r self, protect: &'r P) -> ReadTable<'r, K, V> {
        protect.assert_protecting();
        // SAFETY: an array is freed only after a grace period that follows
        // its replacement, and the witness holds such a grace period open
        // for `'r`.
        ReadTable(unsafe { &*self.array.load(Ordering::Acquire) })
    }

    /// The published array, for the holder of the writer lock `held`
    /// guards; `slab` is the map's.
    pub(crate) fn locked<'w>(
        &'w self,
        slab: &'w NodeSlab<K, V>,
        held: &'w WriterGuard<'w, K, V>,
    ) -> LockedTable<'w, K, V> {
        // SAFETY: only a resize replaces the array, under the writer lock,
        // and it is freed a grace period later, once the lock was let go.
        let array = unsafe { &*self.array.load(Ordering::Acquire) };
        LockedTable {
            ptr: self,
            array,
            slab,
            held,
        }
    }
}

impl<K, V> Drop for TablePtr<K, V> {
    /// Drops the map's live entries in place, then the array. The slab's
    /// memory goes whole after this (`NodeSlab`'s `Drop`). Mid-unzip a node
    /// can be reachable from both buckets of its pair, so each is dropped
    /// from its home bucket only: every node is reachable from its home
    /// bucket at every instant, once.
    fn drop(&mut self) {
        let table_ptr = *self.array.get_mut();
        // SAFETY: the array published last, from `Box::into_raw`, and ours
        // alone: the map is being dropped.
        let table = unsafe { Box::from_raw(table_ptr) };
        if !needs_drop::<Node<K, V>>() {
            return;
        }
        for (bucket, head) in table.buckets.iter().enumerate() {
            let at_home = |hash| table.bucket_of(hash) == bucket;
            // SAFETY: no reader or writer is left, the slab that maps the
            // nodes is dropped after the table, and retired nodes are no
            // longer in any chain.
            unsafe { Node::drop_chain(head.load(Ordering::Relaxed), at_home) };
        }
    }
}

/// The published array as a reader holding a witness for `'r` sees it:
/// every node reached from it is a [`NodeRef<'r>`](NodeRef).
pub(crate) struct ReadTable<'r, K, V>(&'r BucketArray<K, V>);

impl<'r, K, V> ReadTable<'r, K, V> {
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn bucket_of(&self, hash: u64) -> usize {
        self.0.bucket_of(hash)
    }

    /// Bucket `index`'s first node (`rcu_dereference`).
    #[inline]
    pub(crate) fn head(&self, index: usize) -> Option<NodeRef<'r, K, V>> {
        // SAFETY: reachable from the array the witness protects.
        unsafe { NodeRef::new(self.0.buckets[index].load(Ordering::Acquire)) }
    }

    pub(crate) fn hint_slot(&self, index: usize) {
        self.0.hint_slot(index);
    }

    pub(crate) fn hint_head(&self, index: usize) {
        self.0.hint_head(index);
    }
}

/// A place in a chain, under the writer lock: the node before it (`None`:
/// the bucket head) and the node at it (`None`: the chain's end).
pub(crate) type Place<'w, K, V> = (Option<Locked<'w, K, V>>, Option<Locked<'w, K, V>>);

/// The published array under the writer lock: every node reached from it
/// is a [`Locked<'w>`](Locked), and [`LockedTable::swap_out`] is the one
/// way a node leaves a chain.
pub(crate) struct LockedTable<'w, K, V> {
    ptr: &'w TablePtr<K, V>,
    array: &'w BucketArray<K, V>,
    slab: &'w NodeSlab<K, V>,
    held: &'w WriterGuard<'w, K, V>,
}

impl<'w, K, V> Deref for LockedTable<'w, K, V> {
    type Target = BucketArray<K, V>;

    fn deref(&self) -> &BucketArray<K, V> {
        self.array
    }
}

impl<'w, K, V> LockedTable<'w, K, V> {
    /// Bucket `index`'s first node.
    pub(crate) fn head(&self, index: usize) -> Option<Locked<'w, K, V>> {
        self.load(&self.array.buckets[index])
    }

    /// The node a bucket of the published array, or a [`Remembered`],
    /// points at.
    fn load(&self, link: &AtomicPtr<Node<K, V>>) -> Option<Locked<'w, K, V>> {
        // SAFETY: under the lock, a bucket holds null or a node reachable
        // from the published array, and a `Remembered` null or a node still
        // in its chain: it is forgotten before its node can be unlinked.
        unsafe { Locked::new(link.load(Ordering::Acquire)) }
    }

    /// Publishes `new` in place of this array and returns this one, which
    /// readers may still be in: it is freed only after a grace period
    /// (`resolve_grace_locked`). `new`'s chains are this array's nodes.
    pub(crate) fn publish(self, new: Box<BucketArray<K, V>>) -> Box<BucketArray<K, V>> {
        let buckets = new.len();
        let old_ptr = self.ptr.array.swap(Box::into_raw(new), Ordering::AcqRel);
        self.ptr.buckets.store(buckets, Ordering::Relaxed);
        // SAFETY: the array published until now, from `Box::into_raw`, and
        // handed over once.
        unsafe { Box::from_raw(old_ptr) }
    }

    /// Swaps `node` out of its home chain for `replacement` — its successor
    /// for an unlink, or a node that takes its place — and retires it: the
    /// link from `prev` (from the bucket head if `None`) is repointed, then,
    /// mid-unzip, the low chain's link to it if it is the first node of the
    /// high run that chain still reaches (the only node with a second
    /// predecessor). Consuming `node` is what ends the writer's access to
    /// it: once queued, it may be dropped after a grace period this thread
    /// does not hold open. Inlined into its callers, as the copies it
    /// replaced were.
    #[inline(always)]
    pub(crate) fn swap_out(
        &self,
        prev: Option<&Locked<'w, K, V>>,
        node: Locked<'w, K, V>,
        replacement: Option<&Locked<'w, K, V>>,
    ) {
        let home = self.bucket_of(node.hash);
        self.store_after(home, prev, replacement);
        if let Some(unzip) = self.held.borrow().as_ref().and_then(|op| op.unzip.as_ref()) {
            // `link_after`'s forget, under the borrow the repoint needs: a
            // second borrow per overwrite cost `table-steady` ~10 % of its
            // write floor.
            unzip.forget(home);
            let low = home & (unzip.old_buckets - 1);
            if let Some(entry) = unzip.entry(low).filter(|_| low != home) {
                let (last_low, first_high) = self.remembered_high_run(low, entry);
                if first_high.is_some_and(|first| first.is(&node)) {
                    // The low run keeps its last node, so its entry holds.
                    self.store_after(low, last_low.as_ref(), replacement);
                }
            }
        }
        // SAFETY: `node` is unreachable to new readers from either bucket,
        // came from this map's slab, `held` guards its writer lock, readers
        // of the map read through the global domain, and the handle, taken
        // by value, is not used again.
        unsafe { self.slab.retire(Locked::raw(Some(&node)), self.held) };
    }

    /// Points the link after `prev` — bucket `bucket`'s head if `None` — at
    /// `to`. Every store a writer makes to a chain goes through here or
    /// through [`LockedTable::swap_out`], so mid-unzip both forget
    /// `bucket`'s remembered last low node, if it is a low bucket with one:
    /// its low run may end elsewhere now.
    pub(crate) fn link_after(
        &self,
        bucket: usize,
        prev: Option<&Locked<'w, K, V>>,
        to: Option<&Locked<'w, K, V>>,
    ) {
        self.store_after(bucket, prev, to);
        if let Some(unzip) = self.held.borrow().as_ref().and_then(|op| op.unzip.as_ref()) {
            unzip.forget(bucket);
        }
    }

    /// [`LockedTable::link_after`]'s store, without the forget.
    fn store_after(
        &self,
        bucket: usize,
        prev: Option<&Locked<'w, K, V>>,
        to: Option<&Locked<'w, K, V>>,
    ) {
        match prev {
            Some(prev) => prev.link(to),
            None => self.set_head(bucket, to),
        }
    }

    /// Where bucket `low`'s sorted chain leaves it: its last node that
    /// belongs to it (`None` if even the head does not) and the node after
    /// that. Mid-unzip the second is the first node of the high run a low
    /// chain reaches until the cut; otherwise it is `None`.
    pub(crate) fn high_run(&self, low: usize) -> Place<'w, K, V> {
        let mut last_low = None;
        let mut cur = self.head(low);
        while let Some(node) = cur.take_if(|node| self.bucket_of(node.hash) == low) {
            cur = node.next();
            last_low = Some(node);
        }
        (last_low, cur)
    }

    /// [`LockedTable::high_run`] without the walk, while `remembered` still
    /// holds bucket `low`'s last low node; the walk once a writer has made
    /// it forget. Debug builds walk anyway and check the two agree.
    pub(crate) fn remembered_high_run(
        &self,
        low: usize,
        remembered: &Remembered<K, V>,
    ) -> Place<'w, K, V> {
        let Some(last_low) = self.load(&remembered.0) else {
            return self.high_run(low);
        };
        debug_assert!(
            self.high_run(low)
                .0
                .is_some_and(|walked| walked.is(&last_low)),
            "bucket {low}'s remembered last low node is not where its low run ends"
        );
        let first_high = last_low.next();
        (Some(last_low), first_high)
    }
}

/// A node an expand remembers across the writer lock's releases: a pair's
/// last low node as `begin` found it (`resize::Unzip`), or null once a
/// writer has stored to that low chain. Read back only under the lock,
/// through [`LockedTable::remembered_high_run`]. [`LockedTable::swap_out`]
/// forgets it before its node can leave the chain, since the unlink stores
/// to that chain first.
pub(crate) struct Remembered<K, V>(AtomicPtr<Node<K, V>>);

impl<K, V> Remembered<K, V> {
    pub(crate) fn new(node: &Locked<'_, K, V>) -> Self {
        Remembered(AtomicPtr::new(Locked::raw(Some(node))))
    }

    pub(crate) fn forget(&self) {
        // Relaxed: only writer-lock holders load it.
        self.0.store(ptr::null_mut(), Ordering::Relaxed);
    }

    /// Hints the remembered node's line for the cut's store to it.
    pub(crate) fn hint(&self) {
        // Relaxed: the pointer is only hinted, never dereferenced.
        prefetch_line_for_write(self.0.load(Ordering::Relaxed).cast_const().cast());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::WriterLock;
    use rp_rcu::NoGraceWait;
    use std::mem::size_of;

    #[test]
    fn new_array_is_empty() {
        let t: Box<BucketArray<u32, u32>> = BucketArray::new(8);
        assert_eq!(t.len(), 8);
        assert_eq!(t.mask, 7);
        assert!(t
            .buckets
            .iter()
            .all(|head| head.load(Ordering::Relaxed).is_null()));
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
    fn a_head_set_under_the_lock_loads_back() {
        let slab = NodeSlab::new();
        let lock = WriterLock::default();
        let held = NoGraceWait::holding(lock.lock());
        let ptr = TablePtr::new(BucketArray::<u32, u32>::new(4));
        let table = ptr.locked(&slab, &held);
        let node = Node::alloc(&slab, &held, 1, 10, 100);
        table.set_head(1, Some(&node));
        assert!(table.head(1).is_some_and(|head| head.is(&node)));
        assert!(table.head(0).is_none());
        assert_eq!(ptr.buckets(), 4);
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
        let held = map.writer_lock();
        let table = map.table_locked(&held);
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
