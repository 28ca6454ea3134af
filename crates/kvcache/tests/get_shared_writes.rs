//! What a GET writes to memory other threads share, counted: pipelined GETs
//! served through `KvService::on_data` exactly as a reactor worker serves
//! them, on the relativistic engine under both read sides, against the
//! debug-build tally in `rp_kvcache::audit`.
//!
//! A hit stamps the engine's LRU clock and stores the stamp into the item;
//! nothing else it does is shared. Its value is copied into the reply from
//! inside the read-side section, so a payload's reference count is never
//! touched, and the hit and miss counts reach `CacheStats` in at most one
//! `fetch_add` per counter per `on_data` call. The tally exists only in
//! debug builds, so this test does too.
#![cfg(debug_assertions)]

use std::sync::Arc;

use rp_kvcache::audit::{self, SharedWrites};
use rp_kvcache::protocol::RefDecoder;
use rp_kvcache::{CacheEngine, Item, KvService, ReadSide, RpEngine};
use rp_net::{Action, BufPool, ConnIo, Service, VectoredWrite, WriteBuf};

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
    let (mut out, mut pool) = (WriteBuf::new(1 << 20), BufPool::new(4, 1 << 16));
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
    let per_call = |hit_folds, miss_folds| SharedWrites {
        stamps: PIPELINED as u64,
        last_access: if hit_folds == 1 { PIPELINED as u64 } else { 0 },
        hit_folds,
        miss_folds,
        payload_clones: 0,
    };

    // 64 hits of 64-byte values: a stamp and a `last_access` store each,
    // no reference count touched, one fold.
    let (replies, writes) = serve(&service, &mut worker, &gets(0));
    assert_eq!(writes, per_call(1, 0), "{name}: hits");
    let expected: Vec<u8> = (0..PIPELINED)
        .flat_map(|i| {
            let mut reply = format!("VALUE {} 0 64\r\n", key(i)).into_bytes();
            reply.extend_from_slice(&small);
            reply.extend_from_slice(b"\r\nEND\r\n");
            reply
        })
        .collect();
    assert!(replies == expected, "{name}: hit replies");
    assert_eq!(engine.stats().hits(), PIPELINED as u64, "{name}");

    // 64 misses: the stamp is drawn before the probe, so a miss takes one
    // too; nothing is stored, one fold.
    let (replies, writes) = serve(&service, &mut worker, &gets(500));
    assert_eq!(writes, per_call(0, 1), "{name}: misses");
    assert_eq!(replies, b"END\r\n".repeat(PIPELINED), "{name}");
    assert_eq!(engine.stats().misses(), PIPELINED as u64, "{name}");

    // Hits and misses in one call: still one fold per counter.
    let (_, writes) = serve(&service, &mut worker, &gets(PIPELINED / 2));
    assert_eq!(
        (writes.hit_folds, writes.miss_folds),
        (1, 1),
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

    assert_eq!(
        engine.stats().hits(),
        (2 * PIPELINED + PIPELINED / 2) as u64,
        "{name}"
    );
    // The worker's read-side context goes before the engine: a maintenance
    // thread the engine joins on drop may be waiting out a grace period
    // an online QSBR handle holds open.
    drop(worker);
}

#[test]
fn a_get_hit_writes_only_its_stamp_and_a_batch_folds_its_counts_once() {
    for read_side in [ReadSide::Qsbr, ReadSide::Ebr] {
        // A thread per run, so a QSBR registration never outlives it.
        std::thread::spawn(move || {
            audit_engine(Arc::new(RpEngine::with_capacity(1 << 16)), read_side)
        })
        .join()
        .expect("audit failed (see above)");
    }
}
