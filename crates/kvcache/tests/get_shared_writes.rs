//! What a GET writes to memory other threads share, counted: pipelined GETs
//! served through `KvService::on_data` exactly as a reactor worker serves
//! them, on the relativistic engine under both read sides, against the
//! debug-build tally in `rp_kvcache::audit`.
//!
//! A hit stamps the engine's clock and stores the stamp, with the protected
//! bit, into the item; nothing else it does is shared. A miss writes
//! nothing shared. A hit's value is copied into the reply from inside the
//! read-side section, so a payload's reference count is never touched, and
//! the hit, miss and promotion counts reach `CacheStats` in at most one
//! `fetch_add` per counter per `on_data` call. The tally exists only in
//! debug builds, so this test does too.
#![cfg(debug_assertions)]

use std::sync::Arc;

use rp_kvcache::audit::{self, SharedWrites};
use rp_kvcache::protocol::RefDecoder;
use rp_kvcache::{CacheEngine, Item, KvService, ReadSide, RpEngine};
use rp_net::{Action, BufPool, ConnIo, Service, VectoredWrite, WriteBuf, HIGH_WATERMARK};

/// Pipelined requests per `on_data` call: four full decode groups.
const PIPELINED: usize = 64;

/// Collects what a flush writes.
struct Wire(Vec<u8>);

impl VectoredWrite for Wire {
    fn writev(&mut self, bufs: &[&[u8]]) -> std::io::Result<usize> {
        bufs.iter().for_each(|buf| self.0.extend_from_slice(buf));
        Ok(bufs.iter().map(|buf| buf.len()).sum())
    }
}

/// One `on_data` call over `wire` on `worker`; returns the reply bytes and
/// the shared writes the call made, the tally zeroed before it.
fn serve(
    service: &KvService,
    worker: &mut <KvService as Service>::Worker,
    wire: &[u8],
) -> (Vec<u8>, SharedWrites) {
    let mut input = wire.to_vec();
    let (mut out, mut pool) = (WriteBuf::new(HIGH_WATERMARK), BufPool::new(4, 1 << 16));
    let mut io = ConnIo {
        input: &mut input,
        out: out.with_pool(&mut pool),
        requests: 0,
        request_quota: u64::MAX,
    };
    audit::take();
    let action = service.on_data(worker, &mut RefDecoder::new(), &mut io);
    let writes = audit::take();
    assert_eq!((action, io.requests), (Action::Continue, PIPELINED as u64));
    let mut replies = Wire(Vec::new());
    let counts = rp_obs::global().net.flushes.for_worker(0);
    out.flush_vectored(&mut replies, &mut pool, counts).unwrap();
    (replies.0, writes)
}

fn key(i: usize) -> String {
    format!("key:{i:04}")
}

/// `PIPELINED` GETs of `key(first)`, `key(first + 1)`, ….
fn gets(first: usize) -> Vec<u8> {
    (first..first + PIPELINED)
        .flat_map(|i| format!("get {}\r\n", key(i)).into_bytes())
        .collect()
}

fn audit_engine(engine: Arc<dyn CacheEngine>, read_side: ReadSide) {
    let name = format!("{} via {read_side:?}", engine.name());
    let small = vec![b's'; 64];
    let large = vec![b'L'; 2048];
    for i in 0..PIPELINED {
        engine.set(&key(i), Item::new(0, small.clone()));
        engine.set(&key(1000 + i), Item::new(0, large.clone()));
    }
    let service = KvService::new(Arc::clone(&engine), read_side);
    let mut worker = service.on_worker_start(0);
    let per_call = |hits, miss_folds, promotion_folds| SharedWrites {
        stamps: hits,
        last_access: hits,
        hit_folds: u64::from(hits > 0),
        miss_folds,
        promotion_folds,
        payload_clones: 0,
    };
    let all = PIPELINED as u64;

    // 64 first hits of 64-byte values: a stamp and a word store each, no
    // reference count touched, one fold of the hits and one of the
    // promotions, since each hit moves its item out of probation.
    let (replies, writes) = serve(&service, &mut worker, &gets(0));
    assert_eq!(writes, per_call(all, 0, 1), "{name}: first hits");
    let expected: Vec<u8> = (0..PIPELINED)
        .flat_map(|i| {
            let mut reply = format!("VALUE {} 0 64\r\n", key(i)).into_bytes();
            reply.extend_from_slice(&small);
            reply.extend_from_slice(b"\r\nEND\r\n");
            reply
        })
        .collect();
    assert!(replies == expected, "{name}: hit replies");
    assert_eq!(engine.stats().hits(), all, "{name}");
    assert_eq!(engine.stats().protected_items(), all, "{name}");

    // The same 64 again, the steady state: a stamp and a word store each,
    // one fold, and no promotion left to count.
    let (replies, writes) = serve(&service, &mut worker, &gets(0));
    assert_eq!(writes, per_call(all, 0, 0), "{name}: steady hits");
    assert!(replies == expected, "{name}: hit replies");

    // 64 misses: no stamp and no store, one fold.
    let (replies, writes) = serve(&service, &mut worker, &gets(500));
    assert_eq!(writes, per_call(0, 1, 0), "{name}: misses");
    assert_eq!(replies, b"END\r\n".repeat(PIPELINED), "{name}");
    assert_eq!(engine.stats().misses(), all, "{name}");

    // Hits and misses in one call: still one fold per counter.
    let (_, writes) = serve(&service, &mut worker, &gets(PIPELINED / 2));
    assert_eq!(
        (writes.hit_folds, writes.miss_folds, writes.stamps),
        (1, 1, all / 2),
        "{name}: mixed"
    );

    // A value over the coalescing limit is still queued by reference: one
    // `Bytes` clone per hit, taken inside the read-side section.
    let (replies, writes) = serve(&service, &mut worker, &gets(1000));
    assert_eq!(
        writes.payload_clones, PIPELINED as u64,
        "{name}: large values"
    );
    assert_eq!(writes.last_access, PIPELINED as u64, "{name}: large values");
    let mut first = format!("VALUE {} 0 2048\r\n", key(1000)).into_bytes();
    first.extend_from_slice(&large);
    first.extend_from_slice(b"\r\nEND\r\n");
    assert!(replies.starts_with(&first), "{name}: large reply");
    assert_eq!(
        replies.len(),
        PIPELINED * first.len(),
        "{name}: large replies"
    );

    assert_eq!(writes.promotion_folds, 1, "{name}: large values");
    assert_eq!(
        engine.stats().hits(),
        (3 * PIPELINED + PIPELINED / 2) as u64,
        "{name}"
    );
}

#[test]
fn a_get_hit_writes_only_its_stamp_a_miss_nothing_and_a_batch_folds_its_counts_once() {
    for read_side in [ReadSide::Qsbr, ReadSide::Ebr] {
        // A thread per run, so a QSBR registration never outlives it.
        std::thread::spawn(move || {
            audit_engine(Arc::new(RpEngine::with_capacity(1 << 16)), read_side)
        })
        .join()
        .expect("audit failed (see above)");
    }
}
