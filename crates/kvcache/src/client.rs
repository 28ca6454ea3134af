//! A small blocking client speaking the memcached text protocol, plus a
//! resilience wrapper ([`RetryClient`]) with per-op deadlines, reconnects
//! and bounded, seeded-jitter exponential backoff.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A blocking connection to an [`EventServer`](crate::EventServer) (or to
/// real memcached — the protocol subset is compatible).
pub struct CacheClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl CacheClient {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(CacheClient { stream, reader })
    }

    /// Writes one entire request.
    ///
    /// Every request is pre-assembled into a single buffer before this
    /// call, so an error part-way can no longer tear a header from its
    /// payload (the old code issued three separate writes per `set`);
    /// `write_all` then guarantees the short-write/`EINTR` retry loop —
    /// it resumes partial writes, retries on `Interrupted`, and turns a
    /// zero-length write into `WriteZero` instead of spinning.
    fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(request)
    }

    /// Issues `set` and waits for the reply. Returns `true` when the server
    /// answered `STORED`.
    pub fn set(
        &mut self,
        key: &str,
        flags: u32,
        exptime_secs: u64,
        data: &[u8],
    ) -> std::io::Result<bool> {
        let mut request =
            format!("set {key} {flags} {exptime_secs} {}\r\n", data.len()).into_bytes();
        request.extend_from_slice(data);
        request.extend_from_slice(b"\r\n");
        self.send(&request)?;
        let line = self.read_line()?;
        Ok(line.trim_end() == "STORED")
    }

    /// Reads one `VALUE <key> <flags> <bytes>` block (header already read);
    /// returns the key and payload.
    fn read_value_block(&mut self, header: &str) -> std::io::Result<(String, Vec<u8>)> {
        let mut fields = header.split_ascii_whitespace().skip(1);
        let key = fields.next().map(str::to_string);
        let nbytes: Option<usize> = fields.nth(1).and_then(|s| s.parse().ok());
        let (Some(key), Some(nbytes)) = (key, nbytes) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "bad VALUE header",
            ));
        };
        let mut data = vec![0_u8; nbytes + 2];
        std::io::Read::read_exact(&mut self.reader, &mut data)?;
        data.truncate(nbytes);
        Ok((key, data))
    }

    /// Issues `get` for a single key and returns the value bytes if present.
    pub fn get(&mut self, key: &str) -> std::io::Result<Option<Vec<u8>>> {
        self.send(format!("get {key}\r\n").as_bytes())?;
        let header = self.read_line()?;
        let header = header.trim_end();
        if header == "END" {
            return Ok(None);
        }
        let (_, data) = self.read_value_block(header)?;
        // Trailing "END\r\n".
        let end = self.read_line()?;
        if end.trim_end() != "END" {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "missing END after VALUE block",
            ));
        }
        Ok(Some(data))
    }

    /// Issues one multi-key `get`, returning the `(key, value)` pairs the
    /// server found (missing keys are simply absent, as in the protocol).
    pub fn get_many(&mut self, keys: &[&str]) -> std::io::Result<Vec<(String, Vec<u8>)>> {
        let mut request = String::from("get");
        for key in keys {
            request.push(' ');
            request.push_str(key);
        }
        request.push_str("\r\n");
        self.send(request.as_bytes())?;
        let mut hits = Vec::new();
        loop {
            let line = self.read_line()?;
            let line = line.trim_end();
            if line == "END" {
                return Ok(hits);
            }
            hits.push(self.read_value_block(line)?);
        }
    }

    /// Issues `delete`; returns `true` when the server answered `DELETED`.
    pub fn delete(&mut self, key: &str) -> std::io::Result<bool> {
        self.send(format!("delete {key}\r\n").as_bytes())?;
        let line = self.read_line()?;
        Ok(line.trim_end() == "DELETED")
    }

    /// Issues `version` and returns the server's version string.
    pub fn version(&mut self) -> std::io::Result<String> {
        self.send(b"version\r\n")?;
        let line = self.read_line()?;
        Ok(line.trim_end().trim_start_matches("VERSION ").to_string())
    }

    /// Issues `stats` and returns the `STAT` pairs.
    pub fn stats(&mut self) -> std::io::Result<Vec<(String, String)>> {
        self.send(b"stats\r\n")?;
        let mut out = Vec::new();
        loop {
            let line = self.read_line()?;
            let line = line.trim_end();
            if line == "END" {
                return Ok(out);
            }
            if let Some(rest) = line.strip_prefix("STAT ") {
                if let Some((name, value)) = rest.split_once(' ') {
                    out.push((name.to_string(), value.to_string()));
                }
            }
        }
    }

    /// Issues one of the uppercase `STATS` telemetry commands (`""`,
    /// `"RESET"` or `"TRACE"` as the subcommand) and returns the reply text
    /// up to (excluding) the `END` frame marker. `STATS RESET` answers a
    /// single `RESET` line instead of an `END`-framed body, so it is
    /// handled on either terminator.
    pub fn stats_text(&mut self, subcommand: &str) -> std::io::Result<String> {
        if subcommand.is_empty() {
            self.send(b"STATS\r\n")?;
        } else {
            self.send(format!("STATS {subcommand}\r\n").as_bytes())?;
        }
        let mut text = String::new();
        loop {
            let line = self.read_line()?;
            let trimmed = line.trim_end();
            if trimmed == "END" || trimmed == "RESET" {
                return Ok(text);
            }
            text.push_str(&line);
        }
    }

    /// Sends `quit`, closing the connection server-side.
    pub fn quit(&mut self) -> std::io::Result<()> {
        self.send(b"quit\r\n")
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line)
    }
}

/// How a [`RetryClient`] retries failed operations.
///
/// Backoff is exponential (`base_backoff · 2^n`, capped at `max_backoff`)
/// with **seeded** jitter: the delay actually slept is a deterministic
/// pseudo-random fraction (50–100%) of the exponential target, so chaos
/// runs reproduce exactly while a fleet of real clients still desynchronizes
/// instead of thundering back in lockstep.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per operation (the first try included). `1` means
    /// fail fast: no retry, no reconnect.
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound for any single backoff.
    pub max_backoff: Duration,
    /// Wall-clock budget for one operation across all of its attempts
    /// (connect time and backoff sleeps included). An attempt is not
    /// started once the deadline has passed.
    pub op_deadline: Duration,
    /// Seed for the jitter stream; same seed, same delays.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            op_deadline: Duration::from_secs(5),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// A fail-fast policy: one attempt, no reconnect (the `--no-reconnect`
    /// escape hatch).
    pub fn no_reconnect() -> Self {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The delay before retry number `retry` (0-based), advancing the
    /// caller's jitter stream.
    fn backoff(&self, retry: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1_u32.checked_shl(retry).unwrap_or(u32::MAX))
            .min(self.max_backoff);
        // Jitter: sleep 50–100% of the exponential target.
        let ppm = 500_000 + (xorshift64star(rng) % 500_001);
        exp.mul_f64(ppm as f64 / 1_000_000.0)
    }
}

fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 12;
    x ^= x >> 25;
    x ^= x << 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A [`CacheClient`] that survives connection failures.
///
/// Every operation runs under the [`RetryPolicy`]: on an I/O error the
/// connection is dropped, the client backs off, reconnects and retries
/// until the attempt or deadline budget is exhausted. Semantics are
/// **at-least-once** — an errored attempt may still have been applied by
/// the server before the connection died, which is safe here because every
/// cache operation (`set`, `get`, `delete`, `stats`) is idempotent.
pub struct RetryClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    rng: u64,
    conn: Option<CacheClient>,
    ever_connected: bool,
    reconnects: u64,
}

impl RetryClient {
    /// Creates a client for `addr`; the first connection is established
    /// lazily by the first operation (under its retry budget).
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> RetryClient {
        let rng = if policy.jitter_seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            policy.jitter_seed
        };
        RetryClient {
            addr,
            policy,
            rng,
            conn: None,
            ever_connected: false,
            reconnects: 0,
        }
    }

    /// The address this client (re)connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Times the client re-established its connection (the first connect is
    /// not counted).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Runs `op` against a live connection, reconnecting and retrying per
    /// the policy. The last error is returned once the attempt budget or
    /// the per-op deadline is exhausted.
    fn with_conn<T>(
        &mut self,
        mut op: impl FnMut(&mut CacheClient) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let start = Instant::now();
        let attempts = self.policy.attempts.max(1);
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let delay = self.policy.backoff(attempt - 1, &mut self.rng);
                if start.elapsed() + delay >= self.policy.op_deadline {
                    break;
                }
                std::thread::sleep(delay);
            }
            if self.conn.is_none() {
                match CacheClient::connect(self.addr) {
                    Ok(conn) => {
                        self.conn = Some(conn);
                        if self.ever_connected {
                            self.reconnects += 1;
                        }
                        self.ever_connected = true;
                    }
                    Err(e) => {
                        last_err = Some(e);
                        continue;
                    }
                }
            }
            let conn = self.conn.as_mut().expect("connection established above");
            match op(conn) {
                Ok(value) => return Ok(value),
                Err(e) => {
                    // The stream state is unknown after any error (a reply
                    // may be half-read); reconnect rather than resynchronize.
                    self.conn = None;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "operation deadline exhausted before any attempt",
            )
        }))
    }

    /// [`CacheClient::set`] with retries.
    pub fn set(
        &mut self,
        key: &str,
        flags: u32,
        exptime_secs: u64,
        data: &[u8],
    ) -> std::io::Result<bool> {
        self.with_conn(|c| c.set(key, flags, exptime_secs, data))
    }

    /// [`CacheClient::get`] with retries.
    pub fn get(&mut self, key: &str) -> std::io::Result<Option<Vec<u8>>> {
        self.with_conn(|c| c.get(key))
    }

    /// [`CacheClient::get_many`] with retries.
    pub fn get_many(&mut self, keys: &[&str]) -> std::io::Result<Vec<(String, Vec<u8>)>> {
        self.with_conn(|c| c.get_many(keys))
    }

    /// [`CacheClient::delete`] with retries.
    pub fn delete(&mut self, key: &str) -> std::io::Result<bool> {
        self.with_conn(|c| c.delete(key))
    }

    /// [`CacheClient::version`] with retries.
    pub fn version(&mut self) -> std::io::Result<String> {
        self.with_conn(|c| c.version())
    }

    /// [`CacheClient::stats`] with retries.
    pub fn stats(&mut self) -> std::io::Result<Vec<(String, String)>> {
        self.with_conn(|c| c.stats())
    }

    /// [`CacheClient::stats_text`] with retries.
    pub fn stats_text(&mut self, subcommand: &str) -> std::io::Result<String> {
        self.with_conn(|c| c.stats_text(subcommand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventServer, LockEngine, RpEngine, ServerConfig};
    use std::sync::Arc;

    fn start(engine: Arc<dyn crate::CacheEngine>, port: u16) -> EventServer {
        let config = ServerConfig {
            port,
            ..ServerConfig::default()
        };
        EventServer::start(engine, &config).expect("bind")
    }

    fn round_trip(engine: Arc<dyn crate::CacheEngine>) {
        let mut server = start(engine, 0);
        let mut client = CacheClient::connect(server.addr()).expect("connect");

        assert!(client.get("missing").unwrap().is_none());
        assert!(client.set("key", 5, 0, b"payload").unwrap());
        assert_eq!(client.get("key").unwrap().as_deref(), Some(&b"payload"[..]));
        assert!(client.delete("key").unwrap());
        assert!(!client.delete("key").unwrap());
        assert!(client.version().unwrap().contains("relativist"));
        let stats = client.stats().unwrap();
        assert!(stats.iter().any(|(k, _)| k == "get_hits"));
        client.quit().unwrap();
        server.shutdown();
    }

    #[test]
    fn tcp_round_trip_against_lock_engine() {
        round_trip(Arc::new(LockEngine::new()));
    }

    #[test]
    fn tcp_round_trip_against_rp_engine() {
        round_trip(Arc::new(RpEngine::new()));
    }

    #[test]
    fn binary_values_survive_the_protocol() {
        let mut server = start(Arc::new(RpEngine::new()), 0);
        let mut client = CacheClient::connect(server.addr()).unwrap();
        let payload: Vec<u8> = (0_u16..512).map(|b| (b % 256) as u8).collect();
        assert!(client.set("bin", 0, 0, &payload).unwrap());
        assert_eq!(client.get("bin").unwrap().unwrap(), payload);
        server.shutdown();
    }

    #[test]
    fn retry_client_reconnects_across_a_server_restart() {
        let server = start(Arc::new(RpEngine::new()), 0);
        let addr = server.addr();
        let mut client = RetryClient::new(
            addr,
            RetryPolicy {
                base_backoff: Duration::from_millis(5),
                ..RetryPolicy::default()
            },
        );
        assert!(client.set("sticky", 0, 0, b"before").unwrap());
        // Dropping the server drains and closes every connection and frees
        // the port, so the retried ops below cannot reach the old server.
        drop(server);

        // Restart on the same port (std listeners set SO_REUSEADDR); the
        // next operation must transparently reconnect. The value is gone —
        // it lived in the old process's engine — but the *operation*
        // succeeds, which is the property under test.
        let mut server = start(Arc::new(RpEngine::new()), addr.port());
        assert!(client.set("sticky", 0, 0, b"after").unwrap());
        assert_eq!(
            client.get("sticky").unwrap().as_deref(),
            Some(&b"after"[..])
        );
        assert!(
            client.reconnects() >= 1,
            "the restart must have forced a reconnect"
        );
        server.shutdown();
    }

    #[test]
    fn no_reconnect_policy_fails_fast() {
        let mut server = start(Arc::new(RpEngine::new()), 0);
        let addr = server.addr();
        let mut client = RetryClient::new(addr, RetryPolicy::no_reconnect());
        assert!(client.set("k", 0, 0, b"v").unwrap());
        server.shutdown();
        let started = std::time::Instant::now();
        assert!(client.get("k").is_err(), "one attempt, no retry");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "fail-fast must not sit in a backoff loop"
        );
        assert_eq!(client.reconnects(), 0);
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let mut rng_a = policy.jitter_seed;
        let mut rng_b = policy.jitter_seed;
        for retry in 0..16 {
            let a = policy.backoff(retry, &mut rng_a);
            let b = policy.backoff(retry, &mut rng_b);
            assert_eq!(a, b, "same seed, same delays (retry {retry})");
            assert!(a <= policy.max_backoff, "delay capped (retry {retry})");
            assert!(
                a >= policy.base_backoff / 2,
                "jitter stays above half the target (retry {retry})"
            );
        }
        // A different seed produces a different jitter stream.
        let mut rng_c = 42;
        let diverged = (0..16).any(|retry| {
            let mut rng_a2 = policy.jitter_seed;
            for _ in 0..retry {
                let _ = policy.backoff(0, &mut rng_a2);
            }
            policy.backoff(retry, &mut rng_c) != policy.backoff(retry, &mut rng_a2)
        });
        assert!(diverged, "seeds must actually steer the jitter");
    }

    #[test]
    fn multiple_clients_share_one_server() {
        let mut server = start(Arc::new(RpEngine::new()), 0);
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|id| {
                std::thread::spawn(move || {
                    let mut client = CacheClient::connect(addr).unwrap();
                    let key = format!("key-{id}");
                    // The raw reply, so a failure shows what the server said.
                    let set = format!("set {key} 0 0 {}\r\n{key}\r\n", key.len());
                    client.send(set.as_bytes()).unwrap();
                    assert_eq!(
                        client.read_line().unwrap(),
                        "STORED\r\n",
                        "reply to {set:?}"
                    );
                    assert_eq!(client.get(&key).unwrap().as_deref(), Some(key.as_bytes()));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }
}
