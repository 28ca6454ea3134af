//! Every in-process call into `rp-kvcache`, kept in this one file so a
//! change to that crate's public surface breaks the benchmark here and
//! nowhere else. The rungs above `rp-shard` replay the wire bytes of a
//! workload against these calls the way a reactor worker would.

use std::sync::Arc;

use rp_kvcache::cli::ServerOptions;
use rp_kvcache::protocol::{Decoded, RefDecoder, RequestRef};
use rp_kvcache::server::execute_ref;
use rp_kvcache::{CacheEngine, EngineReadCtx, Item, ReadSide};

use crate::gen::{wire_key, wire_value};

/// The engine `kvcached --capacity N` serves from, and the read-side
/// context one of its workers holds.
pub struct Engine {
    // Dropped first: the engine's maintenance thread may be waiting for a
    // grace period that this handle, still online, would never let end.
    ctx: EngineReadCtx,
    engine: Arc<dyn CacheEngine>,
}

impl Engine {
    /// Built exactly as the binary builds it: flags parsed by
    /// `ServerOptions`, no environment, `build_engine`.
    pub fn build(capacity: usize) -> Engine {
        let flags = ["--capacity".to_string(), capacity.to_string()];
        let options = ServerOptions::parse(&flags, &|_| None).expect("kvcached flags");
        Engine {
            engine: options.build_engine(),
            ctx: EngineReadCtx::new(ReadSide::Qsbr),
        }
    }

    /// Stores `ids` in order through `CacheEngine::set`.
    pub fn prefill(&mut self, ids: impl Iterator<Item = u32>) {
        for (stored, id) in ids.enumerate() {
            let key = wire_key(id);
            let key = std::str::from_utf8(&key).expect("ascii key");
            self.engine.set(key, Item::new(0, wire_value(id).to_vec()));
            if stored % 64 == 63 {
                self.batch_end();
            }
        }
        self.batch_end();
    }

    pub fn len(&self) -> usize {
        self.engine.len()
    }

    pub fn evictions(&self) -> u64 {
        self.engine.stats().evicted()
    }

    /// What a worker does after each event batch: announce a quiescent
    /// state, then the engine's housekeeping with the handle offline.
    pub fn batch_end(&mut self) {
        self.ctx.quiescent();
        let engine = &self.engine;
        self.ctx.with_offline(|| engine.housekeeping());
    }

    /// `CacheEngine::get_ref` for every `get` of `requests`; returns hits.
    pub fn get_ref(&mut self, requests: &[RequestRef<'_>]) -> u64 {
        let mut hits = 0;
        for request in requests {
            if let RequestRef::Get { key } = request {
                hits += u64::from(self.engine.get_ref(key, &mut self.ctx).is_some());
            }
        }
        hits
    }

    /// [`Engine::execute`] twice more, the second time counting this thread's allocations
    /// exactly (`rp_workload::alloc`); returns allocations per request.
    pub fn allocs_per_request(&mut self, requests: &[RequestRef<'_>], sink: &mut Vec<u8>) -> f64 {
        // Once uncounted, so the sink has grown to what the replies need.
        self.execute(requests, sink);
        let before = rp_workload::alloc::thread_allocations();
        self.execute(requests, sink);
        (rp_workload::alloc::thread_allocations() - before) as f64 / requests.len() as f64
    }

    /// `execute_ref` for every request, replies serialised into `sink`.
    pub fn execute(&mut self, requests: &[RequestRef<'_>], sink: &mut Vec<u8>) {
        sink.clear();
        for request in requests {
            execute_ref(&*self.engine, request, &mut self.ctx, sink);
        }
    }
}

/// `RefDecoder::step` over `wire` until it is used up; the requests borrow
/// from `wire`. Returns false if anything but whole requests was found.
pub fn decode<'w>(wire: &'w [u8], requests: &mut Vec<RequestRef<'w>>) -> bool {
    requests.clear();
    let mut decoder = RefDecoder::new();
    let mut at = 0;
    while at < wire.len() {
        let (used, decoded) = decoder.step(&wire[at..]);
        at += used;
        match decoded {
            Decoded::Request(request) => requests.push(request),
            Decoded::Bad(_) | Decoded::NeedMore => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{push_get, push_set, ABSENT};

    #[test]
    fn wire_bytes_replay_against_the_engine() {
        let mut engine = Engine::build(1 << 10);
        engine.prefill(0..100);
        assert_eq!(engine.len(), 100);

        let mut wire = Vec::new();
        push_get(&mut wire, 7);
        push_get(&mut wire, 7 | ABSENT);
        push_set(&mut wire, 7);
        let mut requests = Vec::new();
        assert!(decode(&wire, &mut requests));
        assert_eq!(requests.len(), 3);
        assert_eq!(engine.get_ref(&requests), 1);

        let mut sink = Vec::new();
        engine.execute(&requests, &mut sink);
        let mut expected = b"VALUE key:00000007 0 64\r\n".to_vec();
        expected.extend_from_slice(&wire_value(7));
        expected.extend_from_slice(b"\r\nEND\r\nEND\r\nSTORED\r\n");
        assert_eq!(sink, expected);
        assert!(!decode(b"get", &mut Vec::new()));
    }
}
