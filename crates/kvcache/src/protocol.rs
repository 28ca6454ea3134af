//! A subset of the memcached text protocol.
//!
//! Supported commands:
//!
//! ```text
//! get <key> [<key>...]\r\n
//! set <key> <flags> <exptime> <bytes> [noreply]\r\n<data>\r\n
//! delete <key> [noreply]\r\n
//! stats\r\n
//! version\r\n
//! quit\r\n
//! ```
//!
//! Responses follow the memcached conventions (`VALUE`, `END`, `STORED`,
//! `DELETED`, `NOT_FOUND`, `ERROR`, ...).
//!
//! Requests are decoded in **borrowed** form ([`RequestRef`]): keys and `set`
//! payloads are `&[u8]` slices into the connection's read buffer, parsing
//! allocates nothing, and malformed input is reported as a [`BadRequest`]
//! code whose message is a static string. [`parse_request_ref`] is the
//! grammar; [`RefDecoder`] adds the defensive limits a network-facing
//! server needs. Replies are written straight into a [`BufWrite`] sink by
//! [`crate::server::execute_ref`].

use rp_net::BufWrite;

/// Which `STATS` telemetry view the client asked for.
///
/// The uppercase `STATS` verb is this server's live-telemetry endpoint
/// (Prometheus-style text from the `rp-obs` subsystem); the lowercase
/// memcached `stats` command keeps its classic `STAT <name> <value>`
/// reply, byte for byte. The verbs are distinct on the wire, so the two
/// never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsSub {
    /// `STATS` — render every metric as Prometheus exposition text.
    Render,
    /// `STATS RESET` — zero the counters and histograms (level gauges keep
    /// their value) and mark the trace ring.
    Reset,
    /// `STATS TRACE` / `STATS TRACE <n>` — dump the timestamped event
    /// ring (bare form: everything retained; with a count: only the most
    /// recent `n` events). The reply header documents the ring capacity.
    Trace(Option<usize>),
    /// `STATS SLOW` — dump the slow-request log: sampled request spans
    /// over the slow threshold, with their per-phase breakdown
    /// (decode/index/serialize).
    Slow,
    /// `STATS JSON` — render the whole registry (plus the engine metrics)
    /// as a single JSON object, same data as the Prometheus text form.
    Json,
    /// `STATS WORKER <n>` — render one worker's per-shard metrics verbatim
    /// (requests, decode errors, latency and batch-size summaries), so
    /// accept-shard imbalance is directly observable instead of being
    /// averaged away by the merged `STATS` scrape. Ordinals beyond the
    /// shard count wrap, exactly as recording does.
    Worker(usize),
}

/// Why a request was rejected.
///
/// The hot path constructs these freely — they are a plain `Copy` code, so
/// rejection costs nothing until the error is actually serialised by
/// [`BadRequest::write_wire`] (and even then the message is a static
/// string: error rendering never allocates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadRequest {
    /// The command line contained invalid UTF-8.
    NotUtf8,
    /// The line held no command at all.
    Empty,
    /// `get` with no keys.
    GetNeedsKey,
    /// `set` missing one of `<key> <flags> <exptime> <bytes>`.
    SetNeedsFields,
    /// A numeric field of `set` did not parse.
    BadNumber,
    /// A `set` byte count so large the frame arithmetic would overflow.
    AbsurdByteCount,
    /// The `set` data block was not terminated by CRLF.
    DataUnterminated,
    /// `delete` with no key.
    DeleteNeedsKey,
    /// Unrecognised verb.
    UnknownCommand,
    /// A command line longer than [`MAX_LINE`].
    LineTooLong,
    /// A `set` frame declaring more than [`MAX_FRAME`] payload bytes.
    FrameTooLarge,
}

impl BadRequest {
    /// The human-readable reason, as a static string.
    pub fn message(self) -> &'static str {
        match self {
            BadRequest::NotUtf8 => "command line is not valid UTF-8",
            BadRequest::Empty => "empty command",
            BadRequest::GetNeedsKey => "get requires at least one key",
            BadRequest::SetNeedsFields => "set requires <key> <flags> <exptime> <bytes>",
            BadRequest::BadNumber => "bad numeric field in set",
            BadRequest::AbsurdByteCount => "set byte count is absurdly large",
            BadRequest::DataUnterminated => "data block not terminated by CRLF",
            BadRequest::DeleteNeedsKey => "delete requires a key",
            BadRequest::UnknownCommand => "unknown command",
            BadRequest::LineTooLong => "command line exceeds the 8 KiB line limit",
            BadRequest::FrameTooLarge => "object larger than the 16 MiB frame limit",
        }
    }

    /// Writes the exact `CLIENT_ERROR <msg>\r\n` wire bytes, with no
    /// intermediate allocation.
    pub fn write_wire(self, out: &mut impl BufWrite) {
        out.put(b"CLIENT_ERROR ");
        out.put(self.message().as_bytes());
        out.put(b"\r\n");
    }
}

/// The keys of a multi-key `get`, borrowed from the command line.
///
/// Iteration re-tokenises the stored line tail lazily, so a multi-key GET
/// never materialises a `Vec` of keys. Keys are yielded as byte slices but
/// are guaranteed valid UTF-8 (they are sub-slices of a validated line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetKeys<'a> {
    rest: &'a [u8],
}

impl<'a> GetKeys<'a> {
    /// Iterates the keys in request order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        words(self.rest)
    }

    /// Number of keys (re-tokenises; cheap for protocol-sized lines).
    pub fn count(&self) -> usize {
        words(self.rest).count()
    }
}

/// A parsed request **borrowing** from the read buffer: keys and payloads
/// are slices into the bytes the connection received, so steady-state
/// parsing performs zero heap allocations.
///
/// All key slices (and the line-derived fields of every variant) are
/// guaranteed valid UTF-8 — the whole command line is validated before
/// tokenisation. `set` payloads are arbitrary bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// Single-key `get`/`gets` — the dominant request, kept `Vec`-free.
    Get {
        /// The key, borrowed from the read buffer.
        key: &'a [u8],
    },
    /// Multi-key `get`/`gets`.
    GetMulti(GetKeys<'a>),
    /// `set` plus its data block.
    Set {
        /// Item key, borrowed from the read buffer.
        key: &'a [u8],
        /// Opaque client flags.
        flags: u32,
        /// Expiry as memcached reads it: 0 = never, up to 30 days a TTL in
        /// seconds, past that a Unix time, negative = already expired.
        exptime: i64,
        /// Payload bytes, borrowed from the read buffer.
        data: &'a [u8],
        /// Suppress the reply if set.
        noreply: bool,
    },
    /// `delete <key>`.
    Delete {
        /// Item key, borrowed from the read buffer.
        key: &'a [u8],
        /// Suppress the reply if set.
        noreply: bool,
    },
    /// `stats`.
    Stats,
    /// Uppercase `STATS` (live telemetry; see [`StatsSub`]).
    StatsProm(StatsSub),
    /// `version`.
    Version,
    /// `quit`.
    Quit,
}

/// `n` in decimal, formatted on the stack with no formatting machinery (20
/// bytes cover `u64::MAX`).
struct Decimal {
    digits: [u8; 20],
    start: usize,
}

impl Decimal {
    fn new(mut n: u64) -> Decimal {
        let mut digits = [0_u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        Decimal { digits, start }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.digits[self.start..]
    }
}

/// Writes `n` in decimal.
pub(crate) fn put_decimal(out: &mut impl BufWrite, n: u64) {
    out.put(Decimal::new(n).as_bytes());
}

/// Writes `VALUE <key> <flags> <len>\r\n`, then `body` and `tail`, in one
/// [`BufWrite::put_parts`] call with no intermediate buffer — a whole GET
/// hit's reply when `body` is its payload, the bare header when both are
/// empty.
pub(crate) fn write_value(
    out: &mut impl BufWrite,
    key: &[u8],
    flags: u32,
    len: usize,
    body: &[u8],
    tail: &[u8],
) {
    let (flags, len) = (Decimal::new(u64::from(flags)), Decimal::new(len as u64));
    out.put_parts(&[
        b"VALUE ",
        key,
        b" ",
        flags.as_bytes(),
        b" ",
        len.as_bytes(),
        b"\r\n",
        body,
        tail,
    ]);
}

/// The outcome of attempting to parse one borrowed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefOutcome<'a> {
    /// A complete request was parsed; `consumed` bytes should be drained.
    Complete {
        /// The parsed request, borrowing from the input buffer.
        request: RequestRef<'a>,
        /// Number of bytes consumed from the front of the buffer.
        consumed: usize,
    },
    /// More bytes are needed before a request can be parsed.
    Incomplete,
    /// The buffer starts with a malformed command; `consumed` bytes (up to
    /// and including the offending line) should be drained and the error
    /// reported to the client.
    Invalid {
        /// Number of bytes to drain.
        consumed: usize,
        /// Rejection reason (rendered lazily; see [`BadRequest`]).
        error: BadRequest,
    },
}

/// Attempts to parse one request from the front of `buf`, borrowing keys
/// and payloads from it.
///
/// The command line is read as bytes: its end is the first `\n` with a
/// `\r` before it, it is checked to be ASCII a word at a time (and run
/// through `from_utf8` only if it is not), and it is split on ASCII
/// whitespace bytes — which never occur inside a multi-byte UTF-8
/// sequence, so the keys are exactly the whitespace-separated words of the
/// line as text.
pub fn parse_request_ref(buf: &[u8]) -> RefOutcome<'_> {
    let Some(line_end) = find_crlf(buf) else {
        return RefOutcome::Incomplete;
    };
    let after_line = line_end + 2;
    let invalid = |error| RefOutcome::Invalid {
        consumed: after_line,
        error,
    };
    let complete = |request| RefOutcome::Complete {
        request,
        consumed: after_line,
    };
    let line = &buf[..line_end];
    if !line.is_ascii() && std::str::from_utf8(line).is_err() {
        return invalid(BadRequest::NotUtf8);
    }
    let mut rest = line;
    let Some(verb) = next_word(&mut rest) else {
        return invalid(BadRequest::Empty);
    };
    let mut parts = words(rest);

    match verb {
        b"get" | b"gets" => {
            let Some(first) = parts.next() else {
                return invalid(BadRequest::GetNeedsKey);
            };
            complete(if parts.next().is_none() {
                RequestRef::Get { key: first }
            } else {
                RequestRef::GetMulti(GetKeys { rest })
            })
        }
        b"set" => {
            let (Some(key), Some(flags), Some(exptime), Some(bytes)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return invalid(BadRequest::SetNeedsFields);
            };
            let noreply = parts.next() == Some(b"noreply");
            let (Some(flags), Some(exptime), Some(nbytes)) = (
                parse_uint(flags).and_then(|n| u32::try_from(n).ok()),
                parse_int(exptime),
                parse_uint(bytes).and_then(|n| usize::try_from(n).ok()),
            ) else {
                return invalid(BadRequest::BadNumber);
            };
            // The data block is <bytes> bytes followed by \r\n. A byte
            // count near usize::MAX would overflow the frame arithmetic;
            // nothing legitimate comes within orders of magnitude of it.
            let Some(needed) = after_line
                .checked_add(nbytes)
                .and_then(|n| n.checked_add(2))
            else {
                return invalid(BadRequest::AbsurdByteCount);
            };
            if buf.len() < needed {
                return RefOutcome::Incomplete;
            }
            if &buf[after_line + nbytes..needed] != b"\r\n" {
                return RefOutcome::Invalid {
                    consumed: needed,
                    error: BadRequest::DataUnterminated,
                };
            }
            RefOutcome::Complete {
                request: RequestRef::Set {
                    key,
                    flags,
                    exptime,
                    data: &buf[after_line..after_line + nbytes],
                    noreply,
                },
                consumed: needed,
            }
        }
        b"delete" => {
            let Some(key) = parts.next() else {
                return invalid(BadRequest::DeleteNeedsKey);
            };
            let noreply = parts.next() == Some(b"noreply");
            complete(RequestRef::Delete { key, noreply })
        }
        b"stats" => complete(RequestRef::Stats),
        b"STATS" => {
            let count = |n| parse_uint(n).and_then(|n| usize::try_from(n).ok());
            let sub = match (parts.next(), parts.next(), parts.next()) {
                (None, _, _) => Some(StatsSub::Render),
                (Some(b"RESET"), None, _) => Some(StatsSub::Reset),
                (Some(b"TRACE"), None, _) => Some(StatsSub::Trace(None)),
                (Some(b"TRACE"), Some(n), None) => count(n).map(|n| StatsSub::Trace(Some(n))),
                (Some(b"SLOW"), None, _) => Some(StatsSub::Slow),
                (Some(b"JSON"), None, _) => Some(StatsSub::Json),
                (Some(b"WORKER"), Some(n), None) => count(n).map(StatsSub::Worker),
                _ => None,
            };
            match sub {
                Some(sub) => complete(RequestRef::StatsProm(sub)),
                None => invalid(BadRequest::UnknownCommand),
            }
        }
        b"version" => complete(RequestRef::Version),
        b"quit" => complete(RequestRef::Quit),
        _ => invalid(BadRequest::UnknownCommand),
    }
}

/// Where the first line of `buf` ends: the index of the `\r` of its first
/// `\r\n`. A `\n` with no `\r` before it is part of the line.
fn find_crlf(buf: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(at) = find_byte(&buf[from..], b'\n') {
        let lf = from + at;
        if lf > 0 && buf[lf - 1] == b'\r' {
            return Some(lf - 1);
        }
        from = lf + 1;
    }
    None
}

/// `0x01` in every byte lane of a word.
const LOW_BYTES: u64 = u64::from_le_bytes([0x01; 8]);
/// `0x80` in every byte lane of a word.
const HIGH_BITS: u64 = u64::from_le_bytes([0x80; 8]);

/// The index of the first `byte` in `haystack`, found eight bytes at a
/// time: a word XORed with `byte` in every lane has a zero lane where
/// `byte` was, and `(x - 0x01…01) & !x & 0x80…80` flags zero lanes — the
/// lowest flag exactly (a borrow only runs upward from a true zero).
fn find_byte(haystack: &[u8], byte: u8) -> Option<usize> {
    let pattern = LOW_BYTES * u64::from(byte);
    let mut words = haystack.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")) ^ pattern;
        let zero = x.wrapping_sub(LOW_BYTES) & !x & HIGH_BITS;
        if zero != 0 {
            return Some(8 * i + (zero.trailing_zeros() / 8) as usize);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == byte)?;
    Some(haystack.len() - tail.len() + at)
}

/// Splits the first word — a run of bytes other than ASCII whitespace —
/// off the front of `rest`, or returns `None` if only whitespace is left.
fn next_word<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let start = rest.iter().position(|byte| !byte.is_ascii_whitespace())?;
    let tail = &rest[start..];
    let len = find_whitespace(tail).unwrap_or(tail.len());
    let (word, after) = tail.split_at(len);
    *rest = after;
    Some(word)
}

/// The index of the first ASCII-whitespace byte of `bytes`, eight bytes at
/// a time: every ASCII-whitespace byte is below `0x21`, and
/// `(x - 0x21…21) & !x & 0x80…80` flags lanes below `0x21` — the lowest
/// flag exactly. From a flagged lane on, the word is searched byte by
/// byte, since a control byte below `0x21` need not be whitespace.
fn find_whitespace(bytes: &[u8]) -> Option<usize> {
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let below = x.wrapping_sub(LOW_BYTES * 0x21) & !x & HIGH_BITS;
        if below != 0 {
            let lane = (below.trailing_zeros() / 8) as usize;
            if let Some(at) = word[lane..].iter().position(u8::is_ascii_whitespace) {
                return Some(8 * i + lane + at);
            }
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(u8::is_ascii_whitespace)?;
    Some(bytes.len() - tail.len() + at)
}

/// The words of `line`, in order.
fn words(mut line: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || next_word(&mut line))
}

/// `str::parse` of an unsigned integer, over bytes: an optional `+`, then
/// one or more ASCII digits, with no overflow of `u64`.
fn parse_uint(word: &[u8]) -> Option<u64> {
    let digits = word.strip_prefix(b"+").unwrap_or(word);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0_u64, |n, &byte| {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// `str::parse` of a signed integer, over bytes, except that a magnitude
/// past `i64` saturates (the deadline it names does anyway): an optional
/// `+` or `-`, then one or more ASCII digits. memcached reads `exptime`
/// signed; the other numeric fields stay unsigned.
fn parse_int(word: &[u8]) -> Option<i64> {
    let (negative, digits) = match word.split_first() {
        Some((b'-', rest)) => (true, rest),
        Some((b'+', rest)) => (false, rest),
        _ => (false, word),
    };
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0_i64, |n, &byte| {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        let n = n.saturating_mul(10);
        let digit = i64::from(digit);
        Some(if negative {
            n.saturating_sub(digit)
        } else {
            n.saturating_add(digit)
        })
    })
}

/// Longest command line the decoder accepts before declaring the stream
/// malformed (memcached applies the same defence).
pub const MAX_LINE: usize = 8 * 1024;

/// Largest complete frame (command line + data block) the decoder buffers.
/// A `set` declaring more is rejected and its payload swallowed as it
/// arrives, without ever holding it in memory.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// One step of [`RefDecoder::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A complete request, borrowing from the presented buffer.
    Request(RequestRef<'a>),
    /// Malformed input; report the error and keep stepping (the offending
    /// bytes are accounted for in the step's `consumed`).
    Bad(BadRequest),
    /// No complete request available — feed more bytes, then step again.
    NeedMore,
}

/// The incremental decoder: bytes can arrive one at a time, split anywhere
/// (mid-verb, mid-CRLF, mid-data-block). The caller keeps ownership of the
/// read buffer (typically the connection's input buffer) and the decoder
/// holds only the defensive *skip* state — bytes of an abandoned oversized
/// frame, or an overlong line being discarded up to its eventual CRLF.
///
/// Each [`RefDecoder::step`] consumes from the front of the presented
/// slice and reports how many bytes it used; the caller advances its
/// offset, handles the decoded request **while it still borrows the
/// buffer**, and drains the consumed prefix when the batch is done:
///
/// ```
/// use rp_kvcache::protocol::{Decoded, RefDecoder, RequestRef};
///
/// let mut input: Vec<u8> = b"get hot-key\r\nversion\r\nqu".to_vec();
/// let mut decoder = RefDecoder::new();
/// let mut offset = 0;
/// loop {
///     let (used, decoded) = decoder.step(&input[offset..]);
///     offset += used;
///     match decoded {
///         Decoded::Request(RequestRef::Get { key }) => assert_eq!(key, b"hot-key"),
///         Decoded::Request(request) => assert_eq!(request, RequestRef::Version),
///         Decoded::Bad(error) => panic!("{}", error.message()),
///         Decoded::NeedMore => break,
///     }
/// }
/// input.drain(..offset); // "qu" stays buffered for the next read
/// assert_eq!(input, b"qu");
/// ```
#[derive(Debug, Default)]
pub struct RefDecoder {
    /// Bytes of an abandoned oversized frame still to swallow.
    skip: usize,
    /// When set, discard until the next CRLF (oversized command line).
    skip_line: bool,
}

impl RefDecoder {
    /// Creates a decoder with no pending skip state.
    pub fn new() -> RefDecoder {
        RefDecoder::default()
    }

    /// Decodes the next request from the front of `buf`, returning how many
    /// bytes were consumed alongside the outcome. A command line longer
    /// than [`MAX_LINE`] or a `set` frame declaring more than [`MAX_FRAME`]
    /// payload bytes yields one [`Decoded::Bad`] and the offending bytes are
    /// discarded as they stream through, without being buffered.
    pub fn step<'a>(&mut self, buf: &'a [u8]) -> (usize, Decoded<'a>) {
        let mut consumed = 0;
        // Swallow the remainder of an abandoned oversized frame.
        if self.skip > 0 {
            let n = self.skip.min(buf.len());
            consumed += n;
            self.skip -= n;
            if self.skip > 0 {
                return (consumed, Decoded::NeedMore);
            }
        }
        // Discard an overlong line up to its (eventual) CRLF.
        if self.skip_line {
            match find_crlf(&buf[consumed..]) {
                Some(pos) => {
                    consumed += pos + 2;
                    self.skip_line = false;
                }
                None => {
                    // Keep a trailing '\r': its '\n' may be next.
                    let rest = &buf[consumed..];
                    let keep = usize::from(rest.last() == Some(&b'\r'));
                    consumed += rest.len() - keep;
                    return (consumed, Decoded::NeedMore);
                }
            }
        }
        let rest = &buf[consumed..];
        match parse_request_ref(rest) {
            RefOutcome::Complete {
                request,
                consumed: n,
            } => (consumed + n, Decoded::Request(request)),
            RefOutcome::Invalid { consumed: n, error } => (consumed + n, Decoded::Bad(error)),
            RefOutcome::Incomplete => match find_crlf(rest) {
                None if rest.len() > MAX_LINE => {
                    self.skip_line = true;
                    (consumed, Decoded::Bad(BadRequest::LineTooLong))
                }
                Some(line_end) => {
                    // A complete line that still parses Incomplete is a
                    // `set` waiting for its data block; bound what we are
                    // willing to buffer for it.
                    match set_frame_len(&rest[..line_end], line_end) {
                        Some(total) if total > MAX_FRAME => {
                            self.skip = total;
                            (consumed, Decoded::Bad(BadRequest::FrameTooLarge))
                        }
                        _ => (consumed, Decoded::NeedMore),
                    }
                }
                None => (consumed, Decoded::NeedMore),
            },
        }
    }
}

/// For a complete `set` command line, the total frame length (line + CRLF +
/// data block + CRLF). `None` for any other line, or on overflow (which
/// [`parse_request_ref`] has already rejected as `Invalid` by then).
fn set_frame_len(line: &[u8], line_end: usize) -> Option<usize> {
    let mut parts = words(line);
    if parts.next() != Some(b"set") {
        return None;
    }
    let nbytes = usize::try_from(parse_uint(parts.nth(3)?)?).ok()?;
    line_end.checked_add(2)?.checked_add(nbytes)?.checked_add(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(buf: &[u8]) -> (RequestRef<'_>, usize) {
        match parse_request_ref(buf) {
            RefOutcome::Complete { request, consumed } => (request, consumed),
            other => panic!("expected complete request, got {other:?}"),
        }
    }

    fn invalid(buf: &[u8]) -> (BadRequest, usize) {
        match parse_request_ref(buf) {
            RefOutcome::Invalid { consumed, error } => (error, consumed),
            other => panic!("expected invalid request, got {other:?}"),
        }
    }

    /// A connection's decode loop: append `bytes` to `buf`, step until the
    /// decoder needs more, drain what was consumed. Returns one line per
    /// decoded request (`verb key...`) or rejection (`bad: <message>`).
    fn feed(decoder: &mut RefDecoder, buf: &mut Vec<u8>, bytes: &[u8]) -> Vec<String> {
        let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
        buf.extend_from_slice(bytes);
        let mut events = Vec::new();
        let mut offset = 0;
        loop {
            let (used, decoded) = decoder.step(&buf[offset..]);
            offset += used;
            events.push(match decoded {
                Decoded::Request(RequestRef::Get { key }) => format!("get {}", text(key)),
                Decoded::Request(RequestRef::GetMulti(keys)) => {
                    let keys: Vec<String> = keys.iter().map(text).collect();
                    format!("get {}", keys.join(" "))
                }
                Decoded::Request(RequestRef::Set { key, data, .. }) => {
                    format!("set {} {}", text(key), text(data))
                }
                Decoded::Request(RequestRef::Delete { key, .. }) => {
                    format!("delete {}", text(key))
                }
                Decoded::Request(other) => format!("{other:?}"),
                Decoded::Bad(error) => format!("bad: {}", error.message()),
                Decoded::NeedMore => break,
            });
        }
        buf.drain(..offset);
        events
    }

    #[test]
    fn parses_get_with_multiple_keys() {
        let (request, consumed) = complete(b"get a bb ccc\r\n");
        match request {
            RequestRef::GetMulti(keys) => {
                let keys: Vec<&[u8]> = keys.iter().collect();
                assert_eq!(keys, [&b"a"[..], b"bb", b"ccc"]);
            }
            other => panic!("unexpected request {other:?}"),
        }
        assert_eq!(consumed, 14);
    }

    #[test]
    fn parses_set_with_data_block() {
        let (request, consumed) = complete(b"set key 7 60 5\r\nhello\r\nget x\r\n");
        assert_eq!(
            request,
            RequestRef::Set {
                key: b"key",
                flags: 7,
                exptime: 60,
                data: b"hello",
                noreply: false,
            }
        );
        assert_eq!(consumed, b"set key 7 60 5\r\nhello\r\n".len());
    }

    #[test]
    fn only_exptime_reads_a_sign() {
        for (wire, exptime) in [
            (&b"set k 0 -1 1\r\nv\r\n"[..], -1),
            (b"set k 0 +5 1\r\nv\r\n", 5),
            (b"set k 0 -99999999999999999999 1\r\nv\r\n", i64::MIN),
            (b"set k 0 18446744073709551615 1\r\nv\r\n", i64::MAX),
        ] {
            match complete(wire) {
                (RequestRef::Set { exptime: read, .. }, consumed) => {
                    assert_eq!((read, consumed), (exptime, wire.len()));
                }
                other => panic!("unexpected request {other:?}"),
            }
        }
        for wire in [
            &b"set k -1 0 1\r\n"[..],
            b"set k 0 0 -1\r\n",
            b"set k 0 - 1\r\n",
            b"set k 0 -+1 1\r\n",
        ] {
            assert_eq!(invalid(wire).0, BadRequest::BadNumber);
        }
    }

    #[test]
    fn set_with_binary_payload_and_noreply() {
        let mut buf = b"set k 0 0 3 noreply\r\n".to_vec();
        buf.extend_from_slice(&[0, 255, 10]);
        buf.extend_from_slice(b"\r\n");
        match complete(&buf).0 {
            RequestRef::Set { data, noreply, .. } => {
                assert_eq!(data, &[0, 255, 10]);
                assert!(noreply);
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn incomplete_inputs_ask_for_more() {
        assert_eq!(parse_request_ref(b"get a"), RefOutcome::Incomplete);
        assert_eq!(
            parse_request_ref(b"set k 0 0 5\r\nhel"),
            RefOutcome::Incomplete
        );
        assert_eq!(parse_request_ref(b""), RefOutcome::Incomplete);
    }

    #[test]
    fn malformed_commands_are_rejected_with_reason() {
        assert!(invalid(b"set k x 0 5\r\n").0.message().contains("numeric"));
        assert!(invalid(b"bogus\r\n").0.message().contains("unknown"));
        assert!(invalid(b"get\r\n").0.message().contains("at least one key"));
    }

    #[test]
    fn delete_stats_version_quit_parse() {
        assert_eq!(
            complete(b"delete k noreply\r\n").0,
            RequestRef::Delete {
                key: b"k",
                noreply: true
            }
        );
        assert_eq!(complete(b"stats\r\n").0, RequestRef::Stats);
        assert_eq!(complete(b"version\r\n").0, RequestRef::Version);
        assert_eq!(complete(b"quit\r\n").0, RequestRef::Quit);
    }

    #[test]
    fn uppercase_stats_telemetry_verbs_parse() {
        for (wire, sub) in [
            (&b"STATS\r\n"[..], StatsSub::Render),
            (b"STATS RESET\r\n", StatsSub::Reset),
            (b"STATS TRACE\r\n", StatsSub::Trace(None)),
            (b"STATS TRACE 25\r\n", StatsSub::Trace(Some(25))),
            (b"STATS SLOW\r\n", StatsSub::Slow),
            (b"STATS JSON\r\n", StatsSub::Json),
            (b"STATS WORKER 3\r\n", StatsSub::Worker(3)),
        ] {
            assert_eq!(complete(wire).0, RequestRef::StatsProm(sub));
        }
        // Lowercase `stats` stays the classic memcached command — the verbs
        // are case-sensitive and must not shadow each other.
        assert_eq!(complete(b"stats\r\n").0, RequestRef::Stats);
        // Unknown or lowercase subcommands are rejected, not guessed at.
        for junk in [
            &b"STATS bogus\r\n"[..],
            b"STATS reset\r\n",
            b"STATS RESET now\r\n",
            b"STATS TRACE x\r\n",
            b"STATS TRACE 1 2\r\n",
            b"STATS SLOW 5\r\n",
            b"STATS JSON pretty\r\n",
            b"STATS WORKER\r\n",
            b"STATS WORKER x\r\n",
            b"STATS WORKER 1 2\r\n",
        ] {
            assert_eq!(invalid(junk).1, junk.len());
        }
    }

    #[test]
    fn borrowed_requests_borrow_from_the_buffer() {
        let buf = b"get hot\r\n".to_vec();
        match parse_request_ref(&buf) {
            RefOutcome::Complete {
                request: RequestRef::Get { key },
                consumed,
            } => {
                assert_eq!(key, b"hot");
                assert_eq!(consumed, buf.len());
                // The key is a sub-slice of the input, not a copy.
                let buf_range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
                assert!(buf_range.contains(&(key.as_ptr() as usize)));
            }
            other => panic!("unexpected {other:?}"),
        }

        let buf = b"set k 1 0 3\r\nxyz\r\n".to_vec();
        match parse_request_ref(&buf) {
            RefOutcome::Complete {
                request: RequestRef::Set { key, data, .. },
                ..
            } => {
                assert_eq!(key, b"k");
                assert_eq!(data, b"xyz");
                let buf_range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
                assert!(buf_range.contains(&(data.as_ptr() as usize)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_key_get_iterates_lazily() {
        match parse_request_ref(b"gets a  bb\tccc\r\n") {
            RefOutcome::Complete {
                request: RequestRef::GetMulti(keys),
                ..
            } => {
                assert_eq!(keys.count(), 3);
                let collected: Vec<&[u8]> = keys.iter().collect();
                assert_eq!(collected, vec![&b"a"[..], &b"bb"[..], &b"ccc"[..]]);
                // Iteration is repeatable (the response writer re-walks).
                assert_eq!(keys.iter().count(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn client_error_wire_bytes_are_exact_and_static() {
        let mut out = Vec::new();
        BadRequest::Empty.write_wire(&mut out);
        assert_eq!(out, b"CLIENT_ERROR empty command\r\n");

        out.clear();
        BadRequest::UnknownCommand.write_wire(&mut out);
        assert_eq!(out, b"CLIENT_ERROR unknown command\r\n");

        out.clear();
        BadRequest::LineTooLong.write_wire(&mut out);
        assert_eq!(
            out,
            b"CLIENT_ERROR command line exceeds the 8 KiB line limit\r\n"
        );
    }

    #[test]
    fn word_at_a_time_searches_match_a_byte_loop() {
        // Every byte value at every offset of a 20-byte haystack (two
        // words and a tail), on a background of key bytes, and behind a
        // decoy below 0x21 that is not whitespace.
        for background in [b'k', 0x0b] {
            for at in 0..20 {
                for byte in 0..=255_u8 {
                    let mut haystack = [background; 20];
                    haystack[at] = byte;
                    let find = haystack.iter().position(|&b| b == byte);
                    assert_eq!(find_byte(&haystack, byte), find, "{haystack:?}");
                    let space = haystack.iter().position(u8::is_ascii_whitespace);
                    assert_eq!(find_whitespace(&haystack), space, "{haystack:?}");
                }
            }
        }
    }

    #[test]
    fn value_header_writes_exact_wire_bytes() {
        let mut out = Vec::new();
        write_value(&mut out, b"k", 5, 3, &[], &[]);
        assert_eq!(out, b"VALUE k 5 3\r\n");
        out.clear();
        write_value(&mut out, b"long-key:123", 0, 1048576, &[], &[]);
        assert_eq!(out, b"VALUE long-key:123 0 1048576\r\n");
        out.clear();
        write_value(&mut out, b"m", u32::MAX, 0, &[], &[]);
        assert_eq!(out, b"VALUE m 4294967295 0\r\n");
        out.clear();
        write_value(&mut out, b"k", 0, 2, b"hi", b"\r\nEND\r\n");
        assert_eq!(out, b"VALUE k 0 2\r\nhi\r\nEND\r\n");
    }

    #[test]
    fn decoder_handles_byte_at_a_time_streams() {
        let stream = b"set k 1 0 5\r\nhello\r\nget k missing\r\ndelete k\r\nquit\r\n";
        let mut decoder = RefDecoder::new();
        let mut buf = Vec::new();
        let mut decoded = Vec::new();
        for &b in stream.iter() {
            decoded.extend(feed(&mut decoder, &mut buf, &[b]));
        }
        assert_eq!(
            decoded,
            ["set k hello", "get k missing", "delete k", "Quit"]
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn decoder_rejects_and_skips_overlong_lines() {
        let mut decoder = RefDecoder::new();
        let mut buf = Vec::new();
        // An endless line, fed in chunks: exactly one rejection, bounded memory.
        let chunk = vec![b'a'; 4096];
        let mut rejections = Vec::new();
        for _ in 0..16 {
            rejections.extend(feed(&mut decoder, &mut buf, &chunk));
            assert!(buf.len() <= MAX_LINE + chunk.len() + 2);
        }
        assert_eq!(rejections.len(), 1);
        assert!(rejections[0].starts_with("bad: ") && rejections[0].contains("exceeds"));
        // The stream recovers at the next CRLF.
        assert_eq!(feed(&mut decoder, &mut buf, b"\r\nstats\r\n"), ["Stats"]);
    }

    #[test]
    fn decoder_swallows_oversized_set_payloads_without_buffering() {
        let huge = MAX_FRAME + 100;
        let mut decoder = RefDecoder::new();
        let mut buf = Vec::new();
        let rejected = feed(
            &mut decoder,
            &mut buf,
            format!("set big 0 0 {huge}\r\n").as_bytes(),
        );
        assert_eq!(rejected.len(), 1);
        assert!(rejected[0].contains("larger"), "{rejected:?}");
        // Stream the payload through; it must not accumulate in the buffer.
        let chunk = vec![b'x'; 1 << 20];
        let mut sent = 0;
        while sent < huge {
            let n = chunk.len().min(huge - sent);
            assert!(feed(&mut decoder, &mut buf, &chunk[..n]).is_empty());
            assert!(buf.len() < 2 * chunk.len());
            sent += n;
        }
        assert_eq!(
            feed(&mut decoder, &mut buf, b"\r\nversion\r\n"),
            ["Version"]
        );
    }

    #[test]
    fn absurd_set_byte_counts_are_rejected_without_panicking() {
        // A byte count near usize::MAX would overflow the frame arithmetic
        // (`after_line + nbytes + 2`) and panic the worker thread.
        let line = format!("set k 0 0 {}\r\n", usize::MAX - 2);
        assert_eq!(invalid(line.as_bytes()).0, BadRequest::AbsurdByteCount);
        let mut decoder = RefDecoder::new();
        let mut buf = Vec::new();
        let rejected = feed(&mut decoder, &mut buf, line.as_bytes());
        assert_eq!(rejected.len(), 1);
        assert!(rejected[0].contains("absurdly"), "{rejected:?}");
        // The stream recovers at the next command.
        assert_eq!(feed(&mut decoder, &mut buf, b"version\r\n"), ["Version"]);
    }

    #[test]
    fn decoder_split_crlf_while_skipping_line() {
        let mut decoder = RefDecoder::new();
        let mut buf = Vec::new();
        let rejected = feed(&mut decoder, &mut buf, &vec![b'j'; MAX_LINE + 1]);
        assert_eq!(rejected.len(), 1);
        // CRLF split across feeds while in skip-line mode.
        assert!(feed(&mut decoder, &mut buf, b"more junk\r").is_empty());
        assert_eq!(feed(&mut decoder, &mut buf, b"\nquit\r\n"), ["Quit"]);
    }
}
