//! The server workloads: the shipped `kvcached` binary as a child process,
//! spoken to in the memcached text protocol over one loopback connection by
//! one client thread. The child receives only generated inputs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::gen::{
    id_stream, push_get, push_set, wire_key, wire_value, KeyDist, Rng, ABSENT, GET_LEN, SET_LEN,
    VALUE_LEN,
};
use crate::harness::{run_phases, warm_up, Driver, Phase, PhaseSync, ThreadRun, Warm, Window};
use crate::measure::{Kind, Outcome, SpanLog, UnitLog, SAMPLE_EVERY};

/// A protocol or process failure the run cannot continue after.
pub type Fatal = String;

/// The program under test.
pub struct Kvcached {
    child: Child,
    /// Held open so the child never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Kvcached {
    /// `kvcached --port 0 --workers 1 --capacity N`, everything else
    /// default; the address comes from its `listening on` line.
    pub fn spawn(binary: &Path, capacity: usize) -> Result<Kvcached, Fatal> {
        let mut child = Command::new(binary)
            .args(["--port", "0", "--workers", "1", "--capacity"])
            .arg(capacity.to_string())
            .env_clear()
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let parsed = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().rsplit_once("listening on ")?.1.parse().ok());
        match parsed {
            Some(addr) => Ok(Kvcached {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("kvcached did not say where it listens: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ends the child. It serves until killed, so a clean end is one where
    /// it was still running when asked to stop.
    pub fn stop(mut self) -> Result<(), Fatal> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("kvcached ended by itself: {status}")),
            Err(e) => Err(format!("kvcached cannot be waited for: {e}")),
        }
    }
}

impl Drop for Kvcached {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One reply to a `get`.
pub enum GetReply<'a> {
    Miss,
    Hit { key: &'a [u8], data: &'a [u8] },
}

enum Parsed<T> {
    NeedMore,
    Done(usize, T),
}

fn parse_get(buf: &[u8]) -> Result<Parsed<GetReply<'_>>, Fatal> {
    const END: &[u8] = b"END\r\n";
    if buf.starts_with(END) {
        return Ok(Parsed::Done(END.len(), GetReply::Miss));
    }
    if buf.len() < 6 {
        return Ok(Parsed::NeedMore);
    }
    let bad = || {
        format!(
            "bad get reply: {:?}",
            String::from_utf8_lossy(&buf[..buf.len().min(60)])
        )
    };
    if !buf.starts_with(b"VALUE ") {
        return Err(bad());
    }
    let Some(line_end) = buf.iter().take(300).position(|&b| b == b'\r') else {
        return if buf.len() < 300 {
            Ok(Parsed::NeedMore)
        } else {
            Err(bad())
        };
    };
    let mut fields = buf[6..line_end].split(|&b| b == b' ');
    let key = fields.next().ok_or_else(bad)?;
    let _flags = fields.next().ok_or_else(bad)?;
    let len: usize = fields
        .next()
        .and_then(|f| std::str::from_utf8(f).ok()?.parse().ok())
        .filter(|&len| len <= 1 << 20)
        .ok_or_else(bad)?;
    let data_at = line_end + 2;
    let total = data_at + len + 2 + END.len();
    if buf.len() < total {
        return Ok(Parsed::NeedMore);
    }
    if &buf[data_at + len..total] != b"\r\nEND\r\n" || buf[line_end + 1] != b'\n' {
        return Err(bad());
    }
    let data = &buf[data_at..data_at + len];
    Ok(Parsed::Done(total, GetReply::Hit { key, data }))
}

fn parse_stored(buf: &[u8]) -> Result<Parsed<()>, Fatal> {
    const STORED: &[u8] = b"STORED\r\n";
    if buf.starts_with(STORED) {
        Ok(Parsed::Done(STORED.len(), ()))
    } else if STORED.starts_with(buf) {
        Ok(Parsed::NeedMore)
    } else {
        let shown = String::from_utf8_lossy(&buf[..buf.len().min(60)]);
        Err(format!("bad set reply: {shown:?}"))
    }
}

/// The client's one connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, Fatal> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        // A reply that takes this long counts as lost; the run stops.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .map_err(|e| format!("timeout: {e}"))?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
        })
    }

    pub fn send(&mut self, request: &[u8]) -> Result<(), Fatal> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads exactly `count` `get` replies, handing each to `each` in order.
    pub fn read_gets(
        &mut self,
        count: usize,
        mut each: impl FnMut(usize, GetReply<'_>),
    ) -> Result<(), Fatal> {
        let (mut have, mut pos, mut done) = (0, 0, 0);
        while done < count {
            match parse_get(&self.buf[pos..have])? {
                Parsed::Done(used, reply) => {
                    each(done, reply);
                    pos += used;
                    done += 1;
                }
                Parsed::NeedMore => have = self.fill(&mut pos, have)?,
            }
        }
        self.nothing_left(pos, have)
    }

    /// Reads exactly `count` `STORED` replies.
    pub fn read_stored(&mut self, count: usize) -> Result<(), Fatal> {
        let (mut have, mut pos, mut done) = (0, 0, 0);
        while done < count {
            match parse_stored(&self.buf[pos..have])? {
                Parsed::Done(used, ()) => {
                    pos += used;
                    done += 1;
                }
                Parsed::NeedMore => have = self.fill(&mut pos, have)?,
            }
        }
        self.nothing_left(pos, have)
    }

    fn fill(&mut self, pos: &mut usize, mut have: usize) -> Result<usize, Fatal> {
        if have == self.buf.len() {
            if *pos == 0 {
                return Err("a reply larger than the read buffer".into());
            }
            self.buf.copy_within(*pos..have, 0);
            have -= *pos;
            *pos = 0;
        }
        match self.stream.read(&mut self.buf[have..]) {
            Ok(0) => Err("kvcached closed the connection".into()),
            Ok(n) => Ok(have + n),
            Err(e) => Err(format!("reply lost: {e}")),
        }
    }

    fn nothing_left(&self, pos: usize, have: usize) -> Result<(), Fatal> {
        if pos == have {
            Ok(())
        } else {
            let shown = String::from_utf8_lossy(&self.buf[pos..have.min(pos + 60)]);
            Err(format!("bytes after the last reply: {shown:?}"))
        }
    }

    /// One `STATS JSON` scrape: the JSON line, and how long it took.
    pub fn stats_json(&mut self) -> Result<(String, Duration), Fatal> {
        let start = Instant::now();
        self.send(b"STATS JSON\r\n")?;
        let mut text = Vec::new();
        while !text.ends_with(b"\r\nEND\r\n") {
            let n = self.fill(&mut 0, 0)?;
            text.extend_from_slice(&self.buf[..n]);
        }
        let took = start.elapsed();
        text.truncate(text.len() - 7);
        String::from_utf8(text)
            .map(|json| (json, took))
            .map_err(|e| format!("STATS JSON is not text: {e}"))
    }

    /// Stores `ids` in order, `batch` sets per write.
    pub fn prefill(&mut self, ids: &[u32], batch: usize) -> Result<(), Fatal> {
        let mut wire = Vec::with_capacity(batch * SET_LEN);
        for chunk in ids.chunks(batch) {
            wire.clear();
            chunk.iter().for_each(|&id| push_set(&mut wire, id));
            self.send(&wire)?;
            self.read_stored(chunk.len())?;
        }
        Ok(())
    }
}

/// A number out of a `STATS JSON` line: the value after `"name":`, or after
/// `"name":{"p50":` for a histogram.
pub fn stat(json: &str, name: &str) -> Result<f64, Fatal> {
    let missing = || format!("STATS JSON has no {name}");
    let at = json.find(&format!("\"{name}\":")).ok_or_else(missing)?;
    let rest = &json[at + name.len() + 3..];
    let rest = rest.strip_prefix("{\"p50\":").unwrap_or(rest);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().map_err(|_| missing())
}

/// Checks one `get` reply against what `id` must return: `(hit, failed)`.
/// `deep` compares key and value byte for byte; otherwise presence and
/// length. A stored key may be missing only from a cache that evicts.
fn check_get(id: u32, reply: &GetReply<'_>, deep: bool, evicts: bool) -> (u64, u64) {
    match reply {
        GetReply::Miss => (0, u64::from(id & ABSENT == 0 && !evicts)),
        GetReply::Hit { key, data } => {
            let ok = id & ABSENT == 0
                && data.len() == VALUE_LEN
                && (!deep || (*key == wire_key(id) && *data == wire_value(id)));
            (u64::from(ok), u64::from(!ok))
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ServerShape {
    /// Every key stored and resident: pipelined `get` batches, every tenth
    /// unit a batch of overwriting `set`s.
    Get,
    /// A cache smaller than its key space, used cache-aside at depth 1:
    /// `get`, and on a miss `set` that key.
    Evict,
}

pub struct ServerSpec {
    pub shape: ServerShape,
    pub keys: usize,
    pub capacity: usize,
    pub dist: KeyDist,
    /// Requests per batch.
    pub depth: usize,
    /// Length of the cycled key stream, in requests.
    pub stream_len: usize,
    pub warm_units: u64,
}

/// On `server-get`, every this-many-th unit is a write unit.
const WRITE_EVERY: u64 = 10;

/// The inputs of one run, generated once from the seed.
pub struct ServerStreams {
    /// Key ids of the read stream, in order.
    pub ids: Vec<u32>,
    /// `ids` as `get` requests, [`GET_LEN`] bytes each.
    pub get_wire: Vec<u8>,
    /// Overwriting `set` requests of stored keys, [`SET_LEN`] bytes each.
    set_wire: Vec<u8>,
    /// What set-up stores, oldest first.
    pub prefill: Vec<u32>,
    /// Where in `ids` the first unit starts.
    start: usize,
}

impl ServerStreams {
    pub fn new(spec: &ServerSpec, seed: u64) -> ServerStreams {
        let ids = id_stream(
            spec.dist,
            spec.keys,
            spec.stream_len,
            &mut Rng::new(seed, 32),
        );
        let mut get_wire = Vec::with_capacity(ids.len() * GET_LEN);
        ids.iter().for_each(|&id| push_get(&mut get_wire, id));
        let (prefill, start, set_wire) = match spec.shape {
            ServerShape::Get => {
                let stored = KeyDist {
                    absent_permille: 0,
                    ..spec.dist
                };
                let sets = id_stream(
                    stored,
                    spec.keys,
                    4096 * spec.depth,
                    &mut Rng::new(seed, 33),
                );
                let mut set_wire = Vec::with_capacity(sets.len() * SET_LEN);
                sets.iter().for_each(|&id| push_set(&mut set_wire, id));
                ((0..spec.keys as u32).collect(), 0, set_wire)
            }
            ServerShape::Evict => {
                // The cache starts holding exactly what cache-aside use of
                // the stream's first `start` requests leaves in an LRU of
                // this capacity: the last `capacity` distinct keys, oldest
                // first. Units then continue from `start`.
                let mut seen = vec![false; spec.keys];
                let mut distinct = 0;
                let mut start = 0;
                while distinct < spec.capacity && start < ids.len() {
                    let id = ids[start] as usize;
                    distinct += usize::from(!std::mem::replace(&mut seen[id], true));
                    start += 1;
                }
                let mut prefill = Vec::with_capacity(distinct);
                for &id in ids[..start].iter().rev() {
                    if std::mem::replace(&mut seen[id as usize], false) {
                        prefill.push(id);
                    }
                }
                prefill.reverse();
                let mut set_wire = Vec::with_capacity(spec.keys * SET_LEN);
                (0..spec.keys as u32).for_each(|id| push_set(&mut set_wire, id));
                (prefill, start % ids.len(), set_wire)
            }
        };
        ServerStreams {
            ids,
            get_wire,
            set_wire,
            prefill,
            start,
        }
    }
}

struct GetDriver<'a> {
    conn: &'a mut Conn,
    streams: &'a ServerStreams,
    depth: usize,
    /// Every this-many-th unit is a write unit; `None` only reads.
    write_every: Option<u64>,
    /// Whether the cache is smaller than its key space.
    evicts: bool,
    next_get: usize,
    next_set: usize,
}

impl Driver for GetDriver<'_> {
    fn step(&mut self, unit_id: u64, spans: Option<&mut SpanLog>) -> (Instant, Instant, Outcome) {
        let depth = self.depth;
        let deep = unit_id.is_multiple_of(SAMPLE_EVERY);
        let (kind, request, start, sent, end, hits, failed);
        if self
            .write_every
            .is_some_and(|every| unit_id % every == every - 1)
        {
            kind = Kind::Write;
            let at = self.next_set * depth * SET_LEN;
            request = &self.streams.set_wire[at..at + depth * SET_LEN];
            self.next_set = (self.next_set + 1) % (self.streams.set_wire.len() / (depth * SET_LEN));
            start = Instant::now();
            self.conn.send(request).unwrap_or_else(|e| lost(&e));
            sent = spans.is_some().then(Instant::now);
            self.conn.read_stored(depth).unwrap_or_else(|e| lost(&e));
            end = Instant::now();
            (hits, failed) = (0, 0);
        } else {
            kind = Kind::Read;
            let first = self.next_get * depth;
            let ids = &self.streams.ids[first..first + depth];
            request = &self.streams.get_wire[first * GET_LEN..(first + depth) * GET_LEN];
            self.next_get = (self.next_get + 1) % (self.streams.ids.len() / depth);
            let (mut found, mut wrong) = (0, 0);
            start = Instant::now();
            self.conn.send(request).unwrap_or_else(|e| lost(&e));
            sent = spans.is_some().then(Instant::now);
            self.conn
                .read_gets(depth, |i, reply| {
                    let (hit, bad) = check_get(ids[i], &reply, deep, self.evicts);
                    found += hit;
                    wrong += bad;
                })
                .unwrap_or_else(|e| lost(&e));
            end = Instant::now();
            (hits, failed) = (found, wrong);
        }
        push_spans(spans, kind, (start, sent, end), unit_id);
        let outcome = Outcome {
            kind,
            ops: depth as u64,
            hits,
            failed,
        };
        (start, end, outcome)
    }
}

struct EvictDriver<'a> {
    conn: &'a mut Conn,
    streams: &'a ServerStreams,
    next: usize,
    /// The key the last `get` missed, to be stored by the next unit.
    missed: Option<u32>,
}

impl Driver for EvictDriver<'_> {
    fn step(&mut self, unit_id: u64, spans: Option<&mut SpanLog>) -> (Instant, Instant, Outcome) {
        let (kind, start, sent, end, hits, failed);
        if let Some(id) = self.missed.take() {
            kind = Kind::Write;
            let at = id as usize * SET_LEN;
            start = Instant::now();
            self.conn
                .send(&self.streams.set_wire[at..at + SET_LEN])
                .unwrap_or_else(|e| lost(&e));
            sent = spans.is_some().then(Instant::now);
            self.conn.read_stored(1).unwrap_or_else(|e| lost(&e));
            end = Instant::now();
            (hits, failed) = (0, 0);
        } else {
            kind = Kind::Read;
            let id = self.streams.ids[self.next];
            let at = self.next * GET_LEN;
            self.next = (self.next + 1) % self.streams.ids.len();
            let deep = unit_id.is_multiple_of(SAMPLE_EVERY);
            let (mut found, mut wrong) = (0, 0);
            start = Instant::now();
            self.conn
                .send(&self.streams.get_wire[at..at + GET_LEN])
                .unwrap_or_else(|e| lost(&e));
            sent = spans.is_some().then(Instant::now);
            self.conn
                .read_gets(1, |_, reply| match reply {
                    // Not resident: what a cache is allowed to say.
                    GetReply::Miss => {}
                    hit => (found, wrong) = check_get(id, &hit, deep, true),
                })
                .unwrap_or_else(|e| lost(&e));
            end = Instant::now();
            if found + wrong == 0 {
                self.missed = Some(id);
            }
            (hits, failed) = (found, wrong);
        }
        push_spans(spans, kind, (start, sent, end), unit_id);
        let outcome = Outcome {
            kind,
            ops: 1,
            hits,
            failed,
        };
        (start, end, outcome)
    }
}

/// A lost or malformed reply leaves the connection out of step; nothing
/// measured after it would mean anything. The panic unwinds through
/// [`run`], which ends the child on the way, and the process exits non-zero
/// without a result.
fn lost(message: &str) -> ! {
    panic!("{message}")
}

/// The spans of one sampled unit: the unit, and under it the request going
/// out and the replies coming back.
fn push_spans(
    spans: Option<&mut SpanLog>,
    kind: Kind,
    (start, sent, end): (Instant, Option<Instant>, Instant),
    unit_id: u64,
) {
    if let (Some(spans), Some(sent)) = (spans, sent) {
        let name = match kind {
            Kind::Read => "server.read_unit",
            Kind::Write => "server.write_unit",
        };
        let unit = spans.push(name, start, end, -1, unit_id);
        spans.push("kvcached.request", start, sent, unit, unit_id);
        spans.push("kvcached.reply", sent, end, unit, unit_id);
    }
}

/// What the client sends.
#[derive(Clone, Copy)]
pub enum Traffic {
    /// The workload's own units.
    Workload,
    /// Batches of this many `get`s and nothing else (the `net` rungs).
    Gets(usize),
}

pub struct ServerRun {
    /// Spawn, connect, prefill and counted warm-up.
    pub setup: Duration,
    /// The warm-up's units.
    pub warm: UnitLog,
    pub connect: Duration,
    pub windows: Vec<Window>,
    /// The `STATS JSON` scrapes taken after the warm-up and after the last
    /// window, and how long the second took.
    pub stats_before: String,
    pub stats_json: String,
    pub scrape: Duration,
    /// Peak RSS of the child at the end, MiB.
    pub mem_mb: f64,
    /// Violations found after the last window.
    pub failed_after: u64,
}

/// A driver that holds the client's connection while it runs.
trait ClientDriver: Driver {
    fn conn(&mut self) -> &mut Conn;
}

impl ClientDriver for GetDriver<'_> {
    fn conn(&mut self) -> &mut Conn {
        self.conn
    }
}

impl ClientDriver for EvictDriver<'_> {
    fn conn(&mut self) -> &mut Conn {
        self.conn
    }
}

/// The counted warm-up, a `STATS JSON` scrape, then every phase: what the
/// server counts between that scrape and the one after the last window is
/// what the windows made it do.
fn drive<D: ClientDriver>(
    mut driver: D,
    spec: &ServerSpec,
    sync: &PhaseSync,
    phases: &[Phase],
) -> Result<(String, ThreadRun), Fatal> {
    let warmed = warm_up(&mut driver, Warm::Units(spec.warm_units, None));
    let (stats_before, _) = driver.conn().stats_json()?;
    Ok((stats_before, run_phases(&mut driver, warmed, sync, phases)))
}

/// One set-up, then one window per phase. With no phases this is a set-up
/// alone.
pub fn run(
    binary: &Path,
    spec: &ServerSpec,
    streams: &ServerStreams,
    traffic: Traffic,
    phases: &[Phase],
) -> Result<ServerRun, Fatal> {
    let begin = Instant::now();
    let server = Kvcached::spawn(binary, spec.capacity)?;
    let connecting = Instant::now();
    let mut conn = Conn::connect(server.addr)?;
    let connect = connecting.elapsed();
    conn.prefill(&streams.prefill, 256)?;
    let sync = PhaseSync::new(1, server.pid());
    let gets = |conn, depth, write_every| GetDriver {
        conn,
        streams,
        depth,
        write_every,
        evicts: spec.capacity < spec.keys,
        next_get: 0,
        next_set: 0,
    };
    let (stats_before, client) = match (traffic, spec.shape) {
        (Traffic::Gets(depth), _) => drive(gets(&mut conn, depth, None), spec, &sync, phases),
        (Traffic::Workload, ServerShape::Get) => {
            let driver = gets(&mut conn, spec.depth, Some(WRITE_EVERY));
            drive(driver, spec, &sync, phases)
        }
        (Traffic::Workload, ServerShape::Evict) => {
            let driver = EvictDriver {
                conn: &mut conn,
                streams,
                next: streams.start,
                missed: None,
            };
            drive(driver, spec, &sync, phases)
        }
    }?;
    let setup = sync.first_start().unwrap_or_else(Instant::now) - begin;
    let (stats_json, scrape) = conn.stats_json()?;
    let mut failed_after = 0;
    let items = stat(&stats_json, "engine_items")?;
    if items > spec.capacity as f64 {
        eprintln!("kvcached holds {items} items, capacity {}", spec.capacity);
        failed_after += 1;
    }
    if stat(&stats_json, "kv_decode_errors_total")? != 0.0 {
        eprintln!("kvcached counted decode errors");
        failed_after += 1;
    }
    let mem_mb = crate::measure::peak_rss_mb(server.pid());
    drop(conn);
    if let Err(message) = server.stop() {
        eprintln!("{message}");
        failed_after += 1;
    }
    Ok(ServerRun {
        setup,
        warm: client.warm,
        connect,
        windows: sync.windows(vec![client.phases]),
        stats_before,
        stats_json,
        scrape,
        mem_mb,
        failed_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_replies_frame_and_reject() {
        let hit = b"VALUE key:00000001 0 3\r\nabc\r\nEND\r\nEND\r\n";
        match parse_get(hit).unwrap() {
            Parsed::Done(used, GetReply::Hit { key, data }) => {
                assert_eq!(
                    (used, key, data),
                    (hit.len() - 5, &b"key:00000001"[..], &b"abc"[..])
                );
            }
            _ => panic!("expected a hit"),
        }
        assert!(matches!(parse_get(&hit[..20]).unwrap(), Parsed::NeedMore));
        assert!(matches!(
            parse_get(b"END\r\n").unwrap(),
            Parsed::Done(5, GetReply::Miss)
        ));
        assert!(parse_get(b"SERVER_ERROR busy\r\n").is_err());
        assert!(parse_get(b"VALUE k 0 3\r\nabcd\r\nEND\r\n").is_err());
        assert!(matches!(parse_stored(b"STO").unwrap(), Parsed::NeedMore));
        assert!(parse_stored(b"NOT_STORED\r\n").is_err());
    }

    #[test]
    fn stats_numbers_are_found() {
        let json = r#"{"net":{"net_flush_syscalls_total":12,"net_batch_size":{"p50":3,"p90":4}}}"#;
        assert_eq!(stat(json, "net_flush_syscalls_total").unwrap(), 12.0);
        assert_eq!(stat(json, "net_batch_size").unwrap(), 3.0);
        assert!(stat(json, "absent").is_err());
    }

    #[test]
    fn evict_prefill_is_the_lru_content_oldest_first() {
        let spec = ServerSpec {
            shape: ServerShape::Evict,
            keys: 64,
            capacity: 8,
            dist: KeyDist {
                zipf: Some(0.99),
                absent_permille: 0,
            },
            depth: 1,
            stream_len: 4096,
            warm_units: 0,
        };
        let streams = ServerStreams::new(&spec, 5);
        assert_eq!(streams.prefill.len(), 8);
        // Replaying the prefix through an LRU of that capacity ends with
        // the same keys in the same order.
        let mut lru: Vec<u32> = Vec::new();
        for &id in &streams.ids[..streams.start] {
            lru.retain(|&held| held != id);
            lru.push(id);
        }
        assert_eq!(lru, streams.prefill);
    }
}
