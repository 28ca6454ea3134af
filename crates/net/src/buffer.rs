//! Per-connection output buffering with partial-write tracking, a
//! backpressure watermark, pooled zero-allocation response writes, and a
//! scatter-gather flush that submits every queued segment in one
//! `writev(2)` batch.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::os::unix::io::RawFd;

use bytes::Bytes;
use rp_obs::FlushObs;

use crate::pool::BufPool;
use crate::sys::{sys_writev, IoVec};

/// A byte sink responses are serialised into directly.
///
/// This is the seam that makes the serving hot path allocation-free:
/// protocol code writes headers and payloads *into* the connection's
/// [`WriteBuf`] (via [`PooledBuf`], which recycles segment buffers through
/// the worker's [`BufPool`]) instead of assembling a fresh `Vec<u8>` per
/// response and copying it in. `Vec<u8>` implements the trait too, so the
/// same serialisation code serves buffered baseline paths and tests.
pub trait BufWrite {
    /// Appends raw bytes to the sink.
    fn put(&mut self, bytes: &[u8]);

    /// Appends `parts` in order as one write: the sink makes room for all
    /// of them at once, so a reply assembled from a header's fields, a
    /// payload and a trailer pays one capacity check, not one per part.
    fn put_parts(&mut self, parts: &[&[u8]]);

    /// Appends a reference-counted segment. Implementations may copy small
    /// segments (keeping pipelined replies in one `write(2)`) and queue
    /// large ones by reference without copying the payload.
    fn put_shared(&mut self, bytes: Bytes);
}

impl BufWrite for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn put_parts(&mut self, parts: &[&[u8]]) {
        self.reserve(parts.iter().map(|part| part.len()).sum());
        for part in parts {
            self.extend_from_slice(part);
        }
    }

    fn put_shared(&mut self, bytes: Bytes) {
        self.extend_from_slice(&bytes);
    }
}

/// Result of flushing a [`WriteBuf`] to a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushState {
    /// Every queued byte reached the kernel.
    Drained,
    /// The socket's send buffer filled up; the caller should request
    /// `EPOLLOUT` and retry when the socket becomes writable again.
    Blocked,
}

/// Most segments one flush submits per `writev` batch — comfortably under
/// Linux's `IOV_MAX` (1024) while keeping the gather array on the stack.
pub(crate) const MAX_IOVECS: usize = 64;

/// A sink accepting scatter-gather writes: many segments, one syscall.
///
/// The reactor's real sink is `FdSink` (raw `writev(2)` on the
/// connection's fd); tests script arbitrary partial-acceptance patterns.
/// Like [`Write::write`], a call may consume any prefix of the gathered
/// bytes — [`WriteBuf::flush_vectored`] resumes from its cursor.
pub trait VectoredWrite {
    /// Writes from every buffer in order, returning bytes consumed.
    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize>;
}

/// [`VectoredWrite`] over a raw socket fd via `writev(2)`. The fd is
/// borrowed, not owned: the connection's stream keeps it open for the
/// duration of the flush.
pub(crate) struct FdSink {
    pub(crate) fd: RawFd,
}

impl VectoredWrite for FdSink {
    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        let mut iov = [IoVec::empty(); MAX_IOVECS];
        let n = bufs.len().min(MAX_IOVECS);
        for (slot, buf) in iov.iter_mut().zip(bufs) {
            *slot = IoVec::from_slice(buf);
        }
        sys_writev(self.fd, &iov[..n])
    }
}

/// Adapts a plain [`Write`] sink to [`VectoredWrite`] by writing only the
/// first gathered buffer per call — the degenerate one-segment-per-syscall
/// flush the vectored path exists to beat, kept for in-memory sinks.
struct WriteAdapter<'a, W: Write>(&'a mut W);

impl<W: Write> VectoredWrite for WriteAdapter<'_, W> {
    fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
        self.0.write(bufs[0])
    }
}

/// A queue of response segments awaiting transmission.
///
/// Responses are pushed as whole segments ([`Vec<u8>`] or [`Bytes`]) or
/// written incrementally through [`PooledBuf`]; [`WriteBuf::flush_to`]
/// writes them out honouring short writes — a partially written front
/// segment is resumed at its cursor, never re-sent — and returns finished
/// owned segments to the worker's [`BufPool`] so steady-state serving
/// allocates nothing. Small segments are coalesced into the tail to keep
/// pipelined replies from degenerating into one tiny `write(2)` each.
pub struct WriteBuf {
    segments: VecDeque<Segment>,
    /// Bytes of the front segment already written.
    cursor: usize,
    /// Total unwritten bytes across all segments.
    len: usize,
    watermark: usize,
}

enum Segment {
    Owned(Vec<u8>),
    Shared(Bytes),
}

impl Segment {
    fn as_slice(&self) -> &[u8] {
        match self {
            Segment::Owned(v) => v,
            Segment::Shared(b) => b,
        }
    }
}

/// Up to this size a pushed segment is copied into the previous tail
/// segment instead of queued separately.
pub const COALESCE_LIMIT: usize = 1024;

/// An owned tail segment stops accepting appended bytes once it holds this
/// much; the next write starts a fresh (pooled) segment. Bounds how much
/// capacity a single recycled buffer can accrete.
const SEGMENT_SPLIT: usize = 32 * 1024;

impl WriteBuf {
    /// Creates an empty buffer. `watermark` is the queue size (bytes)
    /// above which [`WriteBuf::over_watermark`] reports backpressure.
    pub fn new(watermark: usize) -> WriteBuf {
        WriteBuf {
            segments: VecDeque::new(),
            cursor: 0,
            len: 0,
            watermark: watermark.max(1),
        }
    }

    /// Queues an owned segment.
    pub fn push(&mut self, bytes: Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        self.len += bytes.len();
        if bytes.len() <= COALESCE_LIMIT {
            // Appending to the tail is safe even when the tail is also the
            // part-written front: the cursor indexes the front segment and
            // the new bytes land beyond it.
            if let Some(Segment::Owned(tail)) = self.segments.back_mut() {
                tail.extend_from_slice(&bytes);
                return;
            }
        }
        self.segments.push_back(Segment::Owned(bytes));
    }

    /// Queues a shared segment without copying it.
    pub fn push_shared(&mut self, bytes: Bytes) {
        if bytes.is_empty() {
            return;
        }
        self.len += bytes.len();
        self.segments.push_back(Segment::Shared(bytes));
    }

    /// Appends `parts` to the owned tail segment, starting a new segment
    /// from `pool` when the tail is shared, full, or absent. This is the
    /// allocation-free write primitive behind [`PooledBuf::put`] and
    /// [`PooledBuf::put_parts`]: one tail check and one reservation for
    /// all the parts.
    #[inline]
    fn put_pooled(&mut self, parts: &[&[u8]], pool: &mut BufPool) {
        let total: usize = parts.iter().map(|part| part.len()).sum();
        if total == 0 {
            return;
        }
        self.len += total;
        if !matches!(self.segments.back(), Some(Segment::Owned(tail)) if tail.len() < SEGMENT_SPLIT)
        {
            self.segments.push_back(Segment::Owned(pool.take()));
        }
        let Some(Segment::Owned(tail)) = self.segments.back_mut() else {
            unreachable!("an owned tail segment was just ensured");
        };
        tail.reserve(total);
        for part in parts {
            tail.extend_from_slice(part);
        }
    }

    /// Borrows the buffer together with the worker's segment pool as a
    /// [`BufWrite`] sink.
    pub fn with_pool<'a>(&'a mut self, pool: &'a mut BufPool) -> PooledBuf<'a> {
        PooledBuf { buf: self, pool }
    }

    /// Unwritten bytes queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when the queue exceeds the high watermark — the signal to
    /// stop reading (and thus stop producing responses) until the peer
    /// drains what it already owes us.
    pub fn over_watermark(&self) -> bool {
        self.len > self.watermark
    }

    /// Writes as much queued data as the socket accepts, one segment per
    /// syscall (the [`Write`] adapter over [`WriteBuf::flush_vectored`];
    /// in-memory sinks and tests use this form, counted in worker 0's
    /// shard).
    pub fn flush_to(
        &mut self,
        sink: &mut impl Write,
        pool: &mut BufPool,
    ) -> io::Result<FlushState> {
        let counts = rp_obs::global().net.flushes.for_worker(0);
        self.flush_vectored(&mut WriteAdapter(sink), pool, counts)
    }

    /// Writes as much queued data as the socket accepts, submitting up to
    /// `MAX_IOVECS` (64) segments per syscall.
    ///
    /// Retries on `EINTR`, resumes partial writes at the saved cursor
    /// (mid-segment, mid-batch — anywhere the kernel stopped), returns
    /// [`FlushState::Blocked`] on `EWOULDBLOCK`, and surfaces any other
    /// error (a zero-length write is reported as `WriteZero`). Owned
    /// segments that finish flushing are recycled into `pool`. Each submit
    /// bumps `counts.syscalls_total` and each completed segment
    /// `counts.segments_total`, the flushing worker's shard of
    /// `net_flush_syscalls_total` and `net_flush_segments_total`: on
    /// pipelined workloads the first stays below the second — the
    /// reduction `writev` buys.
    pub fn flush_vectored(
        &mut self,
        sink: &mut impl VectoredWrite,
        pool: &mut BufPool,
        counts: &FlushObs,
    ) -> io::Result<FlushState> {
        while !self.segments.is_empty() {
            let mut bufs: [&[u8]; MAX_IOVECS] = [&[]; MAX_IOVECS];
            let mut count = 0;
            for (slot, seg) in bufs.iter_mut().zip(self.segments.iter()) {
                let bytes = seg.as_slice();
                *slot = if count == 0 {
                    &bytes[self.cursor..]
                } else {
                    bytes
                };
                count += 1;
            }
            debug_assert!(!bufs[0].is_empty());
            counts.syscalls_total.inc();
            match sink.writev(&bufs[..count]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.advance(n, pool, counts),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(FlushState::Blocked),
                Err(e) => return Err(e),
            }
        }
        Ok(FlushState::Drained)
    }

    /// Consumes `written` flushed bytes: walks segment boundaries from the
    /// front cursor, recycling finished owned segments into `pool`.
    fn advance(&mut self, mut written: usize, pool: &mut BufPool, counts: &FlushObs) {
        debug_assert!(written <= self.len);
        self.len -= written;
        while written > 0 {
            let front_pending = self
                .segments
                .front()
                .expect("bytes imply a segment")
                .as_slice()[self.cursor..]
                .len();
            if written >= front_pending {
                written -= front_pending;
                if let Some(Segment::Owned(done)) = self.segments.pop_front() {
                    pool.give(done);
                }
                self.cursor = 0;
                counts.segments_total.inc();
            } else {
                self.cursor += written;
                written = 0;
            }
        }
    }

    /// Returns every queued segment's buffer to `pool` (connection
    /// teardown; unwritten bytes are abandoned).
    pub(crate) fn recycle_into(&mut self, pool: &mut BufPool) {
        while let Some(seg) = self.segments.pop_front() {
            if let Segment::Owned(buf) = seg {
                pool.give(buf);
            }
        }
        self.cursor = 0;
        self.len = 0;
    }
}

/// A [`WriteBuf`] borrowed together with its worker's [`BufPool`]: the
/// [`BufWrite`] sink handed to services, writing straight into the
/// connection's output queue with pooled segment buffers.
pub struct PooledBuf<'a> {
    buf: &'a mut WriteBuf,
    pool: &'a mut BufPool,
}

impl PooledBuf<'_> {
    /// Unwritten bytes queued on the underlying [`WriteBuf`].
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl BufWrite for PooledBuf<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.buf.put_pooled(&[bytes], self.pool);
    }

    #[inline]
    fn put_parts(&mut self, parts: &[&[u8]]) {
        self.buf.put_pooled(parts, self.pool);
    }

    fn put_shared(&mut self, bytes: Bytes) {
        // Small payloads coalesce into the tail (one write(2) covers many
        // pipelined replies); large ones are queued by reference so the
        // payload is never copied.
        if bytes.len() <= COALESCE_LIMIT {
            self.put(&bytes);
        } else {
            self.buf.push_shared(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_obs::{Cells, PerShard};

    /// The shard the in-memory flushes of these tests count in.
    fn counts() -> &'static FlushObs {
        rp_obs::global().net.flushes.for_worker(0)
    }

    fn test_pool() -> BufPool {
        BufPool::new(16, 1 << 20)
    }

    /// A sink that accepts at most `quota` bytes per write call and can be
    /// told to report `WouldBlock` after a total budget.
    struct Throttled {
        accepted: Vec<u8>,
        quota: usize,
        budget: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.quota).min(self.budget);
            self.accepted.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_resume_at_the_cursor() {
        let mut pool = test_pool();
        let mut buf = WriteBuf::new(1 << 20);
        buf.push(b"hello ".to_vec());
        buf.push_shared(Bytes::from_static(b"world"));
        let mut sink = Throttled {
            accepted: Vec::new(),
            quota: 3,
            budget: usize::MAX,
        };
        assert_eq!(
            buf.flush_to(&mut sink, &mut pool).unwrap(),
            FlushState::Drained
        );
        assert_eq!(sink.accepted, b"hello world");
        assert!(buf.is_empty());
    }

    #[test]
    fn would_block_preserves_unwritten_bytes() {
        let mut pool = test_pool();
        let mut buf = WriteBuf::new(1 << 20);
        buf.push(vec![b'x'; 2000]);
        buf.push(vec![b'y'; 2000]);
        let mut sink = Throttled {
            accepted: Vec::new(),
            quota: 512,
            budget: 1500,
        };
        assert_eq!(
            buf.flush_to(&mut sink, &mut pool).unwrap(),
            FlushState::Blocked
        );
        assert_eq!(buf.len(), 2500);
        // Unblock and finish.
        sink.budget = usize::MAX;
        assert_eq!(
            buf.flush_to(&mut sink, &mut pool).unwrap(),
            FlushState::Drained
        );
        assert_eq!(sink.accepted.len(), 4000);
        assert_eq!(&sink.accepted[..2000], &vec![b'x'; 2000][..]);
        assert_eq!(&sink.accepted[2000..], &vec![b'y'; 2000][..]);
    }

    #[test]
    fn small_pushes_coalesce() {
        let mut buf = WriteBuf::new(1 << 20);
        for _ in 0..100 {
            buf.push(b"END\r\n".to_vec());
        }
        assert_eq!(buf.len(), 500);
        assert!(
            buf.segments.len() <= 2,
            "expected coalescing, got {} segments",
            buf.segments.len()
        );
    }

    #[test]
    fn watermark_reports_backpressure() {
        let mut pool = test_pool();
        let mut buf = WriteBuf::new(100);
        assert!(!buf.over_watermark());
        buf.push(vec![0; 101]);
        assert!(buf.over_watermark());
        let mut sink = Throttled {
            accepted: Vec::new(),
            quota: usize::MAX,
            budget: usize::MAX,
        };
        buf.flush_to(&mut sink, &mut pool).unwrap();
        assert!(!buf.over_watermark());
    }

    #[test]
    fn pooled_writes_coalesce_and_recycle_through_the_pool() {
        let mut pool = test_pool();
        let mut buf = WriteBuf::new(1 << 20);
        {
            let mut out = buf.with_pool(&mut pool);
            for _ in 0..50 {
                out.put(b"VALUE k 0 3\r\n");
                out.put_shared(Bytes::from_static(b"abc"));
                out.put(b"\r\nEND\r\n");
            }
        }
        assert_eq!(buf.segments.len(), 1, "small replies share one segment");
        let expected = 50 * (b"VALUE k 0 3\r\nabc\r\nEND\r\n".len());
        assert_eq!(buf.len(), expected);

        let mut sink = Throttled {
            accepted: Vec::new(),
            quota: usize::MAX,
            budget: usize::MAX,
        };
        buf.flush_to(&mut sink, &mut pool).unwrap();
        assert_eq!(sink.accepted.len(), expected);
        assert_eq!(pool.pooled(), 1, "flushed segment returns to the pool");

        // The next response reuses the recycled buffer: no allocation.
        let pooled_ptr = {
            let mut out = buf.with_pool(&mut pool);
            out.put(b"STORED\r\n");
            buf.segments.back().unwrap().as_slice().as_ptr()
        };
        assert_eq!(pool.pooled(), 0);
        buf.flush_to(&mut sink, &mut pool).unwrap();
        assert_eq!(pool.pooled(), 1);
        let again = pool.take();
        assert_eq!(again.as_ptr(), pooled_ptr);
    }

    #[test]
    fn large_shared_payloads_are_queued_by_reference() {
        let mut pool = test_pool();
        let mut buf = WriteBuf::new(1 << 20);
        let payload = Bytes::from(vec![b'p'; 8192]);
        let payload_ptr = payload.as_ptr();
        {
            let mut out = buf.with_pool(&mut pool);
            out.put(b"VALUE big 0 8192\r\n");
            out.put_shared(payload);
            out.put(b"\r\nEND\r\n");
        }
        assert_eq!(buf.segments.len(), 3, "header / shared payload / trailer");
        match &buf.segments[1] {
            Segment::Shared(b) => assert_eq!(b.as_ptr(), payload_ptr, "payload not copied"),
            Segment::Owned(_) => panic!("large payload must stay shared"),
        }
    }

    #[test]
    fn recycle_into_returns_segments_and_clears() {
        let mut pool = test_pool();
        let mut buf = WriteBuf::new(1 << 20);
        buf.with_pool(&mut pool).put(b"abandoned");
        buf.push_shared(Bytes::from(vec![1_u8; 2048]));
        buf.recycle_into(&mut pool);
        assert!(buf.is_empty());
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn vec_is_a_bufwrite_sink() {
        let mut out = Vec::new();
        out.put(b"VALUE k 1 2\r\n");
        out.put_shared(Bytes::from_static(b"hi"));
        out.put(b"\r\nEND\r\n");
        assert_eq!(out, b"VALUE k 1 2\r\nhi\r\nEND\r\n");
        out.clear();
        out.put_parts(&[b"VALUE ", b"k", b" 1 2\r\n", b"hi", b"\r\nEND\r\n"]);
        assert_eq!(out, b"VALUE k 1 2\r\nhi\r\nEND\r\n");
    }

    #[test]
    fn put_parts_appends_every_part_to_one_owned_tail() {
        let mut pool = test_pool();
        let mut buf = WriteBuf::new(1 << 20);
        let reply: [&[u8]; 5] = [b"VALUE ", b"k", b" 0 3\r\n", b"abc", b"\r\nEND\r\n"];
        {
            let mut out = buf.with_pool(&mut pool);
            out.put_parts(&[]);
            out.put_parts(&[b"", b""]);
            for _ in 0..50 {
                out.put_parts(&reply);
            }
        }
        assert_eq!(buf.segments.len(), 1, "small replies share one segment");
        assert_eq!(buf.len(), 50 * reply.concat().len());
        // A shared tail is never appended to: the parts start a new segment.
        buf.push_shared(Bytes::from(vec![b'p'; 2048]));
        buf.with_pool(&mut pool).put_parts(&reply);
        assert_eq!(buf.segments.len(), 3);
        let mut sink = Throttled {
            accepted: Vec::new(),
            quota: usize::MAX,
            budget: usize::MAX,
        };
        buf.flush_to(&mut sink, &mut pool).unwrap();
        let mut expected = reply.concat().repeat(50);
        expected.extend_from_slice(&[b'p'; 2048]);
        expected.extend_from_slice(&reply.concat());
        assert_eq!(sink.accepted, expected);
    }

    /// One scripted response of a [`Scripted`] vectored sink.
    enum Step {
        /// Consume up to this many bytes across the gathered buffers.
        Accept(usize),
        /// Fail with `EINTR` (the flush must retry transparently).
        Eintr,
        /// Fail with `EWOULDBLOCK` (the flush must stop and report it).
        Block,
    }

    /// A [`VectoredWrite`] whose behavior is scripted step by step; after
    /// the script runs out it accepts everything. Records what it consumed
    /// plus how many "syscalls" it took and the widest batch it saw.
    struct Scripted {
        steps: VecDeque<Step>,
        accepted: Vec<u8>,
        calls: usize,
        widest_batch: usize,
    }

    impl Scripted {
        fn new(steps: Vec<Step>) -> Scripted {
            Scripted {
                steps: steps.into(),
                accepted: Vec::new(),
                calls: 0,
                widest_batch: 0,
            }
        }
    }

    impl VectoredWrite for Scripted {
        fn writev(&mut self, bufs: &[&[u8]]) -> io::Result<usize> {
            self.calls += 1;
            self.widest_batch = self.widest_batch.max(bufs.len());
            match self.steps.pop_front().unwrap_or(Step::Accept(usize::MAX)) {
                Step::Eintr => Err(io::Error::new(io::ErrorKind::Interrupted, "signal")),
                Step::Block => Err(io::Error::new(io::ErrorKind::WouldBlock, "full")),
                Step::Accept(mut quota) => {
                    let mut n = 0;
                    for buf in bufs {
                        let take = buf.len().min(quota);
                        self.accepted.extend_from_slice(&buf[..take]);
                        n += take;
                        quota -= take;
                        if quota == 0 {
                            break;
                        }
                    }
                    Ok(n)
                }
            }
        }
    }

    /// Three segments the coalescer cannot merge: pooled header, shared
    /// payload (above the coalesce limit), pooled trailer — the exact
    /// shape a large-value GET reply queues.
    fn three_segment_buf(pool: &mut BufPool) -> (WriteBuf, Vec<u8>) {
        let mut buf = WriteBuf::new(1 << 20);
        let payload = vec![b'p'; COALESCE_LIMIT + 1];
        {
            let mut out = buf.with_pool(pool);
            out.put(b"VALUE big 0 1025\r\n");
            out.put_shared(Bytes::from(payload.clone()));
            out.put(b"\r\nEND\r\n");
        }
        assert_eq!(buf.segments.len(), 3);
        let mut wire = b"VALUE big 0 1025\r\n".to_vec();
        wire.extend_from_slice(&payload);
        wire.extend_from_slice(b"\r\nEND\r\n");
        (buf, wire)
    }

    #[test]
    fn vectored_flush_batches_every_segment_into_one_syscall() {
        let mut pool = test_pool();
        let (mut buf, wire) = three_segment_buf(&mut pool);
        let mut sink = Scripted::new(Vec::new());
        assert_eq!(
            buf.flush_vectored(&mut sink, &mut pool, counts()).unwrap(),
            FlushState::Drained
        );
        assert_eq!(sink.accepted, wire);
        assert_eq!(sink.calls, 1, "three segments, one writev");
        assert_eq!(sink.widest_batch, 3);
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_writev_resumes_at_every_split_boundary() {
        let mut pool = test_pool();
        let total = three_segment_buf(&mut pool).1.len();
        // Cut the batch at every possible byte boundary — including both
        // segment edges and every mid-segment position — and verify the
        // cursor resumes exactly where the kernel stopped.
        for cut in 1..total {
            let (mut buf, wire) = three_segment_buf(&mut pool);
            let mut sink = Scripted::new(vec![Step::Accept(cut)]);
            assert_eq!(
                buf.flush_vectored(&mut sink, &mut pool, counts()).unwrap(),
                FlushState::Drained,
                "cut at {cut}"
            );
            assert_eq!(sink.accepted, wire, "cut at {cut} lost or reordered bytes");
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn eintr_mid_iovec_retries_without_losing_the_cursor() {
        let mut pool = test_pool();
        let (mut buf, wire) = three_segment_buf(&mut pool);
        let mut sink = Scripted::new(vec![Step::Accept(100), Step::Eintr, Step::Eintr]);
        assert_eq!(
            buf.flush_vectored(&mut sink, &mut pool, counts()).unwrap(),
            FlushState::Drained
        );
        assert_eq!(sink.accepted, wire);
        assert_eq!(sink.calls, 4, "partial, two EINTRs, final drain");
    }

    #[test]
    fn would_block_with_a_half_consumed_segment_resumes_cleanly() {
        let mut pool = test_pool();
        let (mut buf, wire) = three_segment_buf(&mut pool);
        // Stop halfway through the shared middle segment, then block.
        let half = wire.len() / 2;
        let mut sink = Scripted::new(vec![Step::Accept(half), Step::Block]);
        assert_eq!(
            buf.flush_vectored(&mut sink, &mut pool, counts()).unwrap(),
            FlushState::Blocked
        );
        assert_eq!(buf.len(), wire.len() - half);
        // Writability returns: the rest goes out from the saved cursor.
        assert_eq!(
            buf.flush_vectored(&mut sink, &mut pool, counts()).unwrap(),
            FlushState::Drained
        );
        assert_eq!(sink.accepted, wire);
    }

    #[test]
    fn batches_wider_than_max_iovecs_take_multiple_syscalls() {
        let mut pool = test_pool();
        let mut buf = WriteBuf::new(1 << 20);
        for i in 0..(MAX_IOVECS + 6) {
            // push_shared never coalesces, so each reply is its own segment.
            buf.push_shared(Bytes::from(format!("seg-{i};")));
        }
        let mut sink = Scripted::new(Vec::new());
        assert_eq!(
            buf.flush_vectored(&mut sink, &mut pool, counts()).unwrap(),
            FlushState::Drained
        );
        assert_eq!(sink.calls, 2);
        assert_eq!(sink.widest_batch, MAX_IOVECS);
        assert!(sink.accepted.starts_with(b"seg-0;seg-1;"));
        assert!(sink
            .accepted
            .ends_with(format!("seg-{};", MAX_IOVECS + 5).as_bytes()));
    }

    #[test]
    fn flush_counters_prove_fewer_syscalls_than_segments() {
        // The counters are process-global; concurrent tests only inflate
        // them, so assert on deltas with ≥.
        let net = &rp_obs::global().net;
        let shard = net.flushes.for_worker(5);
        let syscalls = || PerShard(&net.flushes, |f| &f.syscalls_total).read();
        let segments = || PerShard(&net.flushes, |f| &f.segments_total).read();
        let syscalls_before = syscalls();
        let segments_before = segments();
        let shard_before = (shard.syscalls_total.get(), shard.segments_total.get());
        let mut pool = test_pool();
        let (mut buf, _) = three_segment_buf(&mut pool);
        let mut sink = Scripted::new(Vec::new());
        buf.flush_vectored(&mut sink, &mut pool, shard).unwrap();
        assert!(syscalls() > syscalls_before);
        assert!(segments() >= segments_before + 3);
        // Counted in the flushing worker's own shard.
        assert!(shard.syscalls_total.get() > shard_before.0);
        assert!(shard.segments_total.get() >= shard_before.1 + 3);
    }

    #[test]
    fn fd_sink_gathers_over_a_real_socket() {
        use std::io::Read;
        use std::os::unix::io::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        let mut pool = test_pool();
        let (mut buf, wire) = three_segment_buf(&mut pool);
        let mut sink = FdSink { fd: tx.as_raw_fd() };
        assert_eq!(
            buf.flush_vectored(&mut sink, &mut pool, counts()).unwrap(),
            FlushState::Drained
        );
        let mut got = vec![0_u8; wire.len()];
        rx.read_exact(&mut got).unwrap();
        assert_eq!(got, wire);
    }
}
