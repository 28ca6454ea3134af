//! Node storage: each map's nodes come from a slab of its own and go back
//! to it, never to the process heap.
//!
//! A slab is a list of 2 MiB chunks, each 2 MiB-aligned and mapped with
//! `mmap`. Slot 0 of a chunk is its header, which names the slab's shared
//! state; node-sized slots follow it. Rounding a node's address down to
//! 2 MiB finds its header, so a node retired through
//! [`NodeSlab::retire`] carries no pointer back to its slab: the dropper
//! that runs after its grace period drops the key and value in place and
//! pushes the slot onto the slab's lock-free `returned` stack.
//!
//! The map's writer, under the writer lock, takes a slot from a private
//! free list, then by swapping out the whole `returned` stack, then from
//! the untouched tail of the newest chunk, and only then maps a chunk.
//! Nothing takes a lock, and nothing is shared with any other map.
//!
//! A chunk the bump cursor has left is full: every page of it has been
//! written. The writer collapses it onto one 2 MiB page then, once, before
//! it maps the next (`MADV_COLLAPSE`), so a lookup's node miss stops paying
//! a TLB miss beside it. A partly filled chunk is never collapsed: a huge
//! page is resident whole, where 4 KiB pages are resident only once
//! touched, so collapsing only full chunks costs no memory.
//!
//! A retired node waits in the slab's open batch, which only the writer-lock
//! holder touches, until [`BATCH`] have gathered; then all of them go to
//! [`GraceSync::global`] with one lock acquisition of its queue. A map that
//! stops writing therefore holds up to `BATCH - 1` retired nodes until its
//! next write, its `flush_retired` ([`NodeSlab::queue_retired`]) or its
//! drop.
//!
//! A map keeps its chunks until it is dropped. The chunks are released by a
//! callback queued on [`GraceSync::global`] when the map drops, behind every
//! node the map retired, its open batch included: a pass runs its batch in
//! queue order and passes run one at a time, so every dropper that reaches
//! a chunk has run first. A map that never retired a node has no such
//! dropper, and releases its chunks at once.

use std::alloc::{handle_alloc_error, Layout};
use std::cell::UnsafeCell;
use std::ffi::c_void;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, size_of_val, MaybeUninit};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use rp_rcu::GraceSync;

use crate::map::{prefetch_line, WriterGuard};
use crate::node::Node;
use crate::stats::LockedCount;

/// A chunk's size, and its alignment: one huge page.
const CHUNK: usize = 2 << 20;

/// Retired nodes a slab gathers before it queues them, all at once.
const BATCH: usize = 64;

const PROT_READ: i32 = 0x1;
const PROT_WRITE: i32 = 0x2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MADV_DONTNEED: i32 = 4;
const MADV_HUGEPAGE: i32 = 14;
const MADV_COLLAPSE: i32 = 25;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
}

/// What [`advise_huge_pages`] asks of a range's whole 2 MiB pages.
pub(crate) enum HugePages {
    /// `MADV_HUGEPAGE`: pages first touched after the advice are huge
    /// pages, where the THP mode allows it (`madvise` or `always`).
    OnFirstTouch,
    /// `MADV_COLLAPSE` (Linux 6.1): the pages are copied into huge pages
    /// before the call returns, whatever the THP mode.
    Collapse,
    /// `MADV_DONTNEED`: the pages go back to the kernel now, and read as
    /// zeros if they are touched again.
    Release,
}

/// Gives the kernel `how`'s advice for the whole 2 MiB pages inside
/// `start..start + len`, and says whether the kernel took it. A range that
/// holds no whole 2 MiB page is left alone. Best effort: a kernel without
/// THP (`EINVAL`) or without a huge page to spare (`EAGAIN`) leaves the
/// range on 4 KiB pages. Only `Release` changes what the memory holds.
///
/// # Safety
///
/// `start..start + len` lies inside memory the caller owns: an allocation
/// or a mapping of its own, live for the whole call. For `Release`, the
/// caller needs nothing the range holds.
pub(crate) unsafe fn advise_huge_pages(start: *mut u8, len: usize, how: HugePages) -> bool {
    let head = (start as usize).next_multiple_of(CHUNK) - start as usize;
    let end = (start as usize + len) / CHUNK * CHUNK;
    if start as usize + head >= end {
        return false;
    }
    let advice = match how {
        HugePages::OnFirstTouch => MADV_HUGEPAGE,
        HugePages::Collapse => MADV_COLLAPSE,
        HugePages::Release => MADV_DONTNEED,
    };
    // SAFETY: `start + head .. end` is a whole number of 2 MiB pages inside
    // the caller's range (contract above), and the advice changes only how
    // those pages are backed, or contents the caller does not need.
    unsafe {
        let first = start.add(head);
        madvise(first.cast(), end - first as usize, advice) == 0
    }
}

/// [`advise_huge_pages`] for a vector's spare capacity: memory the caller
/// owns and holds nothing initialised, so no advice can lose a value.
pub(crate) fn advise_spare<T>(spare: &mut [MaybeUninit<T>], how: HugePages) -> bool {
    // SAFETY: the slice is the caller's, borrowed for the whole call, and
    // its contents are uninitialised.
    unsafe { advise_huge_pages(spare.as_mut_ptr().cast(), size_of_val(spare), how) }
}

/// Chunks every slab in the process holds mapped.
static CHUNKS_MAPPED: AtomicU64 = AtomicU64::new(0);

/// The 2 MiB chunks the node slabs of every map in the process hold mapped.
/// A map keeps its chunks until it is dropped, and gives them back once
/// every node it retired has been dropped.
pub fn slab_chunks_mapped() -> u64 {
    CHUNKS_MAPPED.load(Ordering::Relaxed)
}

/// Slot 0 of every chunk.
struct ChunkHeader {
    /// The owning slab's shared state.
    shared: *const Shared,
    /// The chunk mapped before this one, or null: the list the release
    /// walks.
    older: *mut ChunkHeader,
}

/// A free slot's first word.
struct FreeSlot {
    next: *mut FreeSlot,
}

/// The part of a slab a node's dropper reaches, through its chunk header.
/// Boxed, so it stays put when the map moves and outlives the map until
/// the slab's release runs; on a line of its own, since the reclaim thread
/// pushes to it while the writer stores to the map header.
#[repr(align(128))]
struct Shared {
    /// Slots whose nodes have been dropped, linked through their first
    /// word. Droppers push; the map's writer swaps the whole stack out.
    returned: AtomicPtr<FreeSlot>,
}

impl Shared {
    /// Pushes `slot` onto `returned`. The release pairs with the writer's
    /// acquiring swap, which sees the slot's dropped contents and its link.
    ///
    /// # Safety
    ///
    /// `slot` is a slot of this slab's chunks whose node has been dropped,
    /// pushed once.
    unsafe fn give_back(&self, slot: *mut FreeSlot) {
        let mut head = self.returned.load(Ordering::Relaxed);
        loop {
            // SAFETY: the slot is ours alone until the exchange publishes
            // it, and holds at least a pointer (`NodeSlab::SLOT`).
            unsafe { slot.write(FreeSlot { next: head }) };
            match self.returned.compare_exchange_weak(
                head,
                slot,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => head = now,
            }
        }
    }
}

/// What only the writer-lock holder touches.
struct Local {
    /// Slots taken from `returned`, linked through their first word.
    free: *mut FreeSlot,
    /// The newest chunk's next never-used slot, and the end of its slots.
    bump: *mut u8,
    end: *mut u8,
    /// The newest chunk, head of the list through `ChunkHeader::older`.
    newest: *mut ChunkHeader,
    /// Whether a node went to the deferred queue, whose dropper reaches
    /// its chunk.
    retired: bool,
    /// How many of `batch`'s entries are retired nodes not yet queued.
    batched: usize,
    /// The open batch: nodes [`NodeSlab::retire`] took, in retire order.
    batch: [*mut (); BATCH],
}

/// A map's node slab (see the module docs).
pub(crate) struct NodeSlab<K, V> {
    shared: NonNull<Shared>,
    /// Guarded by the owning map's writer lock: every access takes the held
    /// guard, or `&mut self`.
    local: UnsafeCell<Local>,
    /// Chunks mapped, for `MapStats::slab_chunks`.
    pub(crate) chunks: LockedCount,
    /// Full chunks collapsed onto a huge page, for
    /// `MapStats::slab_huge_chunks`.
    pub(crate) huge_chunks: LockedCount,
    _nodes: PhantomData<*mut Node<K, V>>,
}

impl<K, V> NodeSlab<K, V> {
    /// Bytes per slot: one node. Checked where a slab is built: slot 0 must
    /// hold a chunk header, and a chunk at least one node besides.
    const SLOT: usize = {
        let slot = size_of::<Node<K, V>>();
        assert!(slot >= size_of::<ChunkHeader>() && align_of::<Node<K, V>>() <= slot);
        assert!(slot <= CHUNK / 2, "a node must fit a chunk twice over");
        slot
    };

    pub(crate) fn new() -> Self {
        let _ = Self::SLOT;
        let shared = Box::new(Shared {
            returned: AtomicPtr::new(ptr::null_mut()),
        });
        NodeSlab {
            shared: NonNull::from(Box::leak(shared)),
            local: UnsafeCell::new(Local {
                free: ptr::null_mut(),
                bump: ptr::null_mut(),
                end: ptr::null_mut(),
                newest: ptr::null_mut(),
                retired: false,
                batched: 0,
                batch: [ptr::null_mut(); BATCH],
            }),
            chunks: LockedCount::default(),
            huge_chunks: LockedCount::default(),
            _nodes: PhantomData,
        }
    }

    /// An uninitialised slot for one node.
    ///
    /// # Safety
    ///
    /// `held` must guard the writer lock of the map that owns this slab.
    pub(crate) unsafe fn alloc(&self, held: &WriterGuard<'_, K, V>) -> *mut Node<K, V> {
        // SAFETY: the writer lock (caller contract) serialises every access
        // to `local`, and no other borrow of it is live.
        let local = unsafe { &mut *self.local.get() };
        if local.free.is_null() {
            // SAFETY: `shared` lives until the slab's release, after `self`.
            let returned = &unsafe { self.shared.as_ref() }.returned;
            // A plain load first: a swap is a full barrier, and mostly
            // there is nothing to take.
            if !returned.load(Ordering::Relaxed).is_null() {
                local.free = returned.swap(ptr::null_mut(), Ordering::Acquire);
            }
        }
        if let Some(slot) = NonNull::new(local.free) {
            // SAFETY: a slot on the free list is a slot of this slab's
            // chunks, linked by its first word, and no longer in use.
            local.free = unsafe { slot.as_ref() }.next;
            // The next alloc's link load is then a hit.
            prefetch_line(local.free.cast());
            return slot.as_ptr().cast();
        }
        if local.bump == local.end {
            self.map_chunk(local, held);
        }
        let slot = local.bump;
        // SAFETY: `bump < end`, and `end` is the end of the newest chunk's
        // last whole slot, so the step stays inside the chunk.
        local.bump = unsafe { slot.add(Self::SLOT) };
        slot.cast()
    }

    #[cold]
    #[inline(never)]
    fn map_chunk(&self, local: &mut Local, held: &WriterGuard<'_, K, V>) {
        // The bump cursor has left the newest chunk, so every page of it
        // has been written: as one huge page it costs no more memory.
        if !local.newest.is_null() {
            // SAFETY: `newest` heads a `CHUNK`-byte mapping of this slab's,
            // which the slab keeps until its release, after `self`.
            if unsafe { advise_huge_pages(local.newest.cast(), CHUNK, HugePages::Collapse) } {
                self.huge_chunks.add(1, held);
            }
        }
        let chunk = map_chunk_memory();
        let header = chunk.cast::<ChunkHeader>();
        // SAFETY: a fresh, aligned, writable mapping of `CHUNK` bytes, and
        // slot 0 holds a header (`SLOT`).
        unsafe {
            header.write(ChunkHeader {
                shared: self.shared.as_ptr(),
                older: local.newest,
            });
        }
        local.newest = header;
        // SAFETY: both offsets lie within the chunk's `CHUNK` bytes.
        unsafe {
            local.bump = chunk.add(Self::SLOT);
            local.end = chunk.add(CHUNK / Self::SLOT * Self::SLOT);
        }
        self.chunks.add(1, held);
    }

    /// Retires `node`: after a grace period its key and value are dropped
    /// in place and its slot goes back to this slab. The node joins the
    /// open batch, and a full batch is queued.
    ///
    /// # Safety
    ///
    /// * `held` must guard the writer lock of the map that owns this slab.
    /// * `node` came from this slab's [`NodeSlab::alloc`], holds an
    ///   initialised node, and is retired once.
    /// * It is unreachable to new readers, and readers that may still hold
    ///   it read through the global domain.
    /// * `K` and `V` may be dropped on any thread.
    pub(crate) unsafe fn retire(&self, node: *mut Node<K, V>, _held: &WriterGuard<'_, K, V>) {
        // SAFETY: the writer lock serialises every access to `local`.
        let local = unsafe { &mut *self.local.get() };
        local.batch[local.batched] = node.cast();
        local.batched += 1;
        if local.batched == BATCH {
            Self::queue_batch(local);
        }
    }

    /// Queues the open batch, if any node waits in it. Its nodes are then
    /// freed by the next pass that waits a grace period.
    pub(crate) fn queue_retired(&self, _held: &WriterGuard<'_, K, V>) {
        // SAFETY: the writer lock serialises every access to `local`.
        Self::queue_batch(unsafe { &mut *self.local.get() });
    }

    fn queue_batch(local: &mut Local) {
        if local.batched == 0 {
            return;
        }
        local.retired = true;
        let batch = &local.batch[..local.batched];
        // SAFETY: every node in the batch was put there by `retire`, whose
        // contract is `defer_drop`'s for `drop_retired`, and is in it once;
        // the slab outlives the droppers because its release is queued
        // behind them (`Drop`).
        unsafe { GraceSync::global().defer_drop(batch, Self::drop_retired) };
        local.batched = 0;
    }

    /// What [`NodeSlab::retire`] queues.
    ///
    /// # Safety
    ///
    /// As [`NodeSlab::retire`], after the grace period.
    unsafe fn drop_retired(node: *mut ()) {
        let node = node.cast::<Node<K, V>>();
        let chunk = node.cast::<u8>().wrapping_sub(node as usize % CHUNK);
        // SAFETY: no reader holds the node any more and no writer reaches
        // it. Its chunk is still mapped, and its header names the slab's
        // shared state, which outlives this callback: the slab's release
        // was queued after it, if at all.
        unsafe {
            ptr::drop_in_place(node);
            (*(*chunk.cast::<ChunkHeader>()).shared).give_back(node.cast());
        }
    }
}

impl<K, V> Drop for NodeSlab<K, V> {
    /// Releases the chunks once every node retired before now has been
    /// dropped. Live nodes are the map's to drop, before this runs.
    fn drop(&mut self) {
        let local = self.local.get_mut();
        // Before the release, which must run after every dropper.
        Self::queue_batch(local);
        let release = Release {
            shared: self.shared,
            newest: local.newest,
        };
        // SAFETY: the map has dropped its live nodes. It runs now only if
        // the map retired none, so that no dropper that could reach a chunk
        // is queued. Else it is queued: a pass runs its batch in queue order
        // and passes run one at a time, so the droppers of every node the
        // map retired, all queued before now, have run by then.
        let release = move || unsafe { release.run() };
        if !local.retired {
            return release();
        }
        let sync = GraceSync::global();
        sync.defer(release);
        // The map's memory goes back at the next pass, as it would have to
        // the heap, not after 255 more callbacks: a program that builds the
        // next map at once would otherwise hold both.
        sync.wake_reclaimer();
    }
}

/// A slab's release: its chunks, then its shared state.
struct Release {
    shared: NonNull<Shared>,
    newest: *mut ChunkHeader,
}

// SAFETY: a release is run once, on whichever thread, after the slab is
// gone; nothing else holds its pointers by then.
unsafe impl Send for Release {}

impl Release {
    /// # Safety
    ///
    /// No node of the slab is still in use and no dropper of one is still
    /// to run.
    unsafe fn run(self) {
        let mut chunk = self.newest;
        while !chunk.is_null() {
            // SAFETY: `chunk` heads a mapped chunk of this slab, and nothing
            // in it is reached any more (caller contract).
            unsafe {
                let older = (*chunk).older;
                munmap(chunk.cast(), CHUNK);
                chunk = older;
            }
            CHUNKS_MAPPED.fetch_sub(1, Ordering::Relaxed);
        }
        // SAFETY: leaked from a `Box` in `NodeSlab::new`; its slab is gone
        // and every chunk header that named it is unmapped.
        drop(unsafe { Box::from_raw(self.shared.as_ptr()) });
    }
}

/// Maps `CHUNK` bytes aligned to `CHUNK`: maps twice that and unmaps what
/// lies outside the aligned middle.
fn map_chunk_memory() -> *mut u8 {
    // SAFETY: a private anonymous mapping at an address the kernel picks
    // touches no existing memory.
    let raw = unsafe {
        mmap(
            ptr::null_mut(),
            2 * CHUNK,
            PROT_READ | PROT_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    if raw as isize == -1 {
        handle_alloc_error(Layout::from_size_align(CHUNK, CHUNK).expect("a valid layout"));
    }
    let raw = raw.cast::<u8>();
    let head = (CHUNK - raw as usize % CHUNK) % CHUNK;
    // SAFETY: `head + CHUNK <= 2 * CHUNK`, so the chunk and both trimmed
    // ends lie in the mapping just made, which nothing else points into.
    unsafe {
        let chunk = raw.add(head);
        if head > 0 {
            munmap(raw.cast(), head);
        }
        munmap(chunk.add(CHUNK).cast(), CHUNK - head);
        CHUNKS_MAPPED.fetch_add(1, Ordering::Relaxed);
        chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::WriterLock;
    use crate::node::Locked;
    use rp_rcu::NoGraceWait;

    /// A node from `slab`, initialised.
    fn node(
        slab: &NodeSlab<u64, u64>,
        held: &WriterGuard<'_, u64, u64>,
        key: u64,
    ) -> *mut Node<u64, u64> {
        Locked::raw(Some(&Node::alloc(slab, held, key, key, key)))
    }

    #[test]
    fn a_u64_node_takes_32_bytes_and_nodes_pack_behind_the_header() {
        assert_eq!(NodeSlab::<u64, u64>::SLOT, 32);
        let slab = NodeSlab::<u64, u64>::new();
        let lock = WriterLock::default();
        let held = NoGraceWait::holding(lock.lock());
        let first = node(&slab, &held, 1);
        assert_eq!(first as usize % CHUNK, 32, "slot 0 is the header");
        let second = node(&slab, &held, 2);
        assert_eq!(second as usize - first as usize, 32);
        let header = first.cast::<u8>().wrapping_sub(32).cast::<ChunkHeader>();
        // SAFETY: slot 0 of the chunk `first` came from.
        assert_eq!(
            unsafe { (*header).shared },
            slab.shared.as_ptr().cast_const()
        );
        assert_eq!(slab.chunks.get(), 1);
    }

    #[test]
    fn a_full_chunk_maps_the_next() {
        let slab = NodeSlab::<u64, u64>::new();
        let lock = WriterLock::default();
        let held = NoGraceWait::holding(lock.lock());
        let per_chunk = CHUNK / 32 - 1;
        let first = node(&slab, &held, 0);
        for key in 1..per_chunk as u64 {
            node(&slab, &held, key);
        }
        assert_eq!(slab.chunks.get(), 1);
        let next = node(&slab, &held, 0);
        assert_eq!(slab.chunks.get(), 2);
        assert_ne!(next as usize / CHUNK, first as usize / CHUNK);
        assert_eq!(next as usize % CHUNK, 32);
    }

    #[test]
    fn a_retired_slot_is_reused_only_after_its_grace_period() {
        let slab = NodeSlab::<u64, u64>::new();
        let lock = WriterLock::default();
        let held = NoGraceWait::holding(lock.lock());
        let guard = rp_rcu::pin();
        let retired = node(&slab, &held, 7);
        // SAFETY: `held` is the slab's lock; never published, retired
        // once; `u64` drops anywhere.
        unsafe { slab.retire(retired, &held) };
        slab.queue_retired(&held);
        // This thread's guard holds every pass that took `retired` back.
        assert_ne!(node(&slab, &held, 8), retired);
        drop((guard, held));
        GraceSync::global().synchronize_and_reclaim();
        let held = NoGraceWait::holding(lock.lock());
        assert_eq!(node(&slab, &held, 9), retired);
    }
}
