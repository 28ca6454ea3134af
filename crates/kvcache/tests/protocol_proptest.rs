//! Property-based tests for the memcached text protocol: serialised
//! commands decode back to themselves regardless of how the byte stream is
//! chunked, malformed lines are rejected one by one without derailing the
//! stream, and arbitrary junk never panics the decoder.

use proptest::prelude::*;

use rp_kvcache::protocol::{
    parse_request_ref, BadRequest, Decoded, RefDecoder, RefOutcome, RequestRef, StatsSub,
    MAX_FRAME, MAX_LINE,
};

/// The test's model of a request: what the generators produce, `encode`
/// serialises and a decoded [`RequestRef`] is copied into for comparison
/// (it borrows a buffer that is drained between chunks).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Request {
    Get(Vec<String>),
    Set {
        key: String,
        flags: u32,
        exptime: i64,
        data: Vec<u8>,
        noreply: bool,
    },
    Delete {
        key: String,
        noreply: bool,
    },
    Stats,
    StatsProm(StatsSub),
    Version,
    Quit,
}

impl Request {
    fn of(request: &RequestRef<'_>) -> Request {
        let text = |key: &[u8]| String::from_utf8(key.to_vec()).expect("keys are UTF-8");
        match *request {
            RequestRef::Get { key } => Request::Get(vec![text(key)]),
            RequestRef::GetMulti(keys) => Request::Get(keys.iter().map(text).collect()),
            RequestRef::Set {
                key,
                flags,
                exptime,
                data,
                noreply,
            } => Request::Set {
                key: text(key),
                flags,
                exptime,
                data: data.to_vec(),
                noreply,
            },
            RequestRef::Delete { key, noreply } => Request::Delete {
                key: text(key),
                noreply,
            },
            RequestRef::Stats => Request::Stats,
            RequestRef::StatsProm(sub) => Request::StatsProm(sub),
            RequestRef::Version => Request::Version,
            RequestRef::Quit => Request::Quit,
        }
    }
}

/// The char-wise parser that `parse_request_ref` replaced, kept verbatim as
/// the oracle the byte-wise one is held to. Its request types mirror the
/// crate's, with `GetKeys` holding the `&str` line tail it held then.
mod charwise {
    use rp_kvcache::protocol::{BadRequest, StatsSub};

    #[derive(Debug, Clone, Copy)]
    pub struct GetKeys<'a> {
        pub rest: &'a str,
    }

    #[derive(Debug, Clone, Copy)]
    pub enum RequestRef<'a> {
        Get {
            key: &'a [u8],
        },
        GetMulti(GetKeys<'a>),
        Set {
            key: &'a [u8],
            flags: u32,
            exptime: i64,
            data: &'a [u8],
            noreply: bool,
        },
        Delete {
            key: &'a [u8],
            noreply: bool,
        },
        Stats,
        StatsProm(StatsSub),
        Version,
        Quit,
    }

    #[derive(Debug, Clone, Copy)]
    pub enum RefOutcome<'a> {
        Complete {
            request: RequestRef<'a>,
            consumed: usize,
        },
        Incomplete,
        Invalid {
            consumed: usize,
            error: BadRequest,
        },
    }

    /// Attempts to parse one request from the front of `buf`, borrowing keys
    /// and payloads from it.
    pub fn parse_request_ref(buf: &[u8]) -> RefOutcome<'_> {
        let Some(line_end) = find_crlf(buf) else {
            return RefOutcome::Incomplete;
        };
        let after_line = line_end + 2;
        let Ok(line) = std::str::from_utf8(&buf[..line_end]) else {
            return RefOutcome::Invalid {
                consumed: after_line,
                error: BadRequest::NotUtf8,
            };
        };
        let trimmed = line.trim_start_matches(|c: char| c.is_ascii_whitespace());
        if trimmed.is_empty() {
            return RefOutcome::Invalid {
                consumed: after_line,
                error: BadRequest::Empty,
            };
        }
        let verb_end = trimmed
            .find(|c: char| c.is_ascii_whitespace())
            .unwrap_or(trimmed.len());
        let (verb, rest) = trimmed.split_at(verb_end);

        match verb {
            "get" | "gets" => {
                let mut keys = rest.split_ascii_whitespace();
                let Some(first) = keys.next() else {
                    return RefOutcome::Invalid {
                        consumed: after_line,
                        error: BadRequest::GetNeedsKey,
                    };
                };
                let request = if keys.next().is_none() {
                    RequestRef::Get {
                        key: first.as_bytes(),
                    }
                } else {
                    RequestRef::GetMulti(GetKeys { rest })
                };
                RefOutcome::Complete {
                    request,
                    consumed: after_line,
                }
            }
            "set" => {
                let mut parts = rest.split_ascii_whitespace();
                let (Some(key), Some(flags), Some(exptime), Some(bytes)) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    return RefOutcome::Invalid {
                        consumed: after_line,
                        error: BadRequest::SetNeedsFields,
                    };
                };
                let noreply = matches!(parts.next(), Some("noreply"));
                // `exptime` is signed, and a magnitude past `i64` saturates.
                let exptime = exptime.parse::<i64>().or_else(|e| match e.kind() {
                    std::num::IntErrorKind::PosOverflow => Ok(i64::MAX),
                    std::num::IntErrorKind::NegOverflow => Ok(i64::MIN),
                    _ => Err(e),
                });
                let (Ok(flags), Ok(exptime), Ok(nbytes)) =
                    (flags.parse::<u32>(), exptime, bytes.parse::<usize>())
                else {
                    return RefOutcome::Invalid {
                        consumed: after_line,
                        error: BadRequest::BadNumber,
                    };
                };
                // The data block is <bytes> bytes followed by \r\n. A byte
                // count near usize::MAX would overflow the frame arithmetic;
                // nothing legitimate comes within orders of magnitude of it.
                let Some(needed) = after_line
                    .checked_add(nbytes)
                    .and_then(|n| n.checked_add(2))
                else {
                    return RefOutcome::Invalid {
                        consumed: after_line,
                        error: BadRequest::AbsurdByteCount,
                    };
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
                        key: key.as_bytes(),
                        flags,
                        exptime,
                        data: &buf[after_line..after_line + nbytes],
                        noreply,
                    },
                    consumed: needed,
                }
            }
            "delete" => {
                let mut parts = rest.split_ascii_whitespace();
                let Some(key) = parts.next() else {
                    return RefOutcome::Invalid {
                        consumed: after_line,
                        error: BadRequest::DeleteNeedsKey,
                    };
                };
                let noreply = matches!(parts.next(), Some("noreply"));
                RefOutcome::Complete {
                    request: RequestRef::Delete {
                        key: key.as_bytes(),
                        noreply,
                    },
                    consumed: after_line,
                }
            }
            "stats" => RefOutcome::Complete {
                request: RequestRef::Stats,
                consumed: after_line,
            },
            "STATS" => {
                let mut parts = rest.split_ascii_whitespace();
                let sub = match (parts.next(), parts.next(), parts.next()) {
                    (None, _, _) => Some(StatsSub::Render),
                    (Some("RESET"), None, _) => Some(StatsSub::Reset),
                    (Some("TRACE"), None, _) => Some(StatsSub::Trace(None)),
                    (Some("TRACE"), Some(n), None) => {
                        n.parse().ok().map(|n| StatsSub::Trace(Some(n)))
                    }
                    (Some("SLOW"), None, _) => Some(StatsSub::Slow),
                    (Some("JSON"), None, _) => Some(StatsSub::Json),
                    (Some("WORKER"), Some(n), None) => n.parse().ok().map(StatsSub::Worker),
                    _ => None,
                };
                match sub {
                    Some(sub) => RefOutcome::Complete {
                        request: RequestRef::StatsProm(sub),
                        consumed: after_line,
                    },
                    None => RefOutcome::Invalid {
                        consumed: after_line,
                        error: BadRequest::UnknownCommand,
                    },
                }
            }
            "version" => RefOutcome::Complete {
                request: RequestRef::Version,
                consumed: after_line,
            },
            "quit" => RefOutcome::Complete {
                request: RequestRef::Quit,
                consumed: after_line,
            },
            _ => RefOutcome::Invalid {
                consumed: after_line,
                error: BadRequest::UnknownCommand,
            },
        }
    }

    fn find_crlf(buf: &[u8]) -> Option<usize> {
        buf.windows(2).position(|w| w == b"\r\n")
    }
}

fn key_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9:_-]{1,32}"
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..256)
}

/// Renders a command back into wire format (the inverse of the parser).
fn encode(cmd: &Request) -> Vec<u8> {
    match cmd {
        Request::Get(keys) => format!("get {}\r\n", keys.join(" ")).into_bytes(),
        Request::Set {
            key,
            flags,
            exptime,
            data,
            noreply,
        } => {
            let mut out = format!(
                "set {key} {flags} {exptime} {}{}\r\n",
                data.len(),
                if *noreply { " noreply" } else { "" }
            )
            .into_bytes();
            out.extend_from_slice(data);
            out.extend_from_slice(b"\r\n");
            out
        }
        Request::Delete { key, noreply } => {
            format!("delete {key}{}\r\n", if *noreply { " noreply" } else { "" }).into_bytes()
        }
        Request::Stats => b"stats\r\n".to_vec(),
        Request::StatsProm(StatsSub::Render) => b"STATS\r\n".to_vec(),
        Request::StatsProm(StatsSub::Reset) => b"STATS RESET\r\n".to_vec(),
        Request::StatsProm(StatsSub::Trace(None)) => b"STATS TRACE\r\n".to_vec(),
        Request::StatsProm(StatsSub::Trace(Some(n))) => format!("STATS TRACE {n}\r\n").into_bytes(),
        Request::StatsProm(StatsSub::Slow) => b"STATS SLOW\r\n".to_vec(),
        Request::StatsProm(StatsSub::Json) => b"STATS JSON\r\n".to_vec(),
        Request::StatsProm(StatsSub::Worker(n)) => format!("STATS WORKER {n}\r\n").into_bytes(),
        Request::Version => b"version\r\n".to_vec(),
        Request::Quit => b"quit\r\n".to_vec(),
    }
}

fn command_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        proptest::collection::vec(key_strategy(), 1..4).prop_map(Request::Get),
        (
            key_strategy(),
            any::<u32>(),
            // Negative too: memcached reads `exptime` signed.
            (0_u64..200_000).prop_map(|n| n as i64 - 100_000),
            value_strategy(),
            any::<bool>()
        )
            .prop_map(|(key, flags, exptime, data, noreply)| Request::Set {
                key,
                flags,
                exptime,
                data,
                noreply,
            }),
        (key_strategy(), any::<bool>()).prop_map(|(key, noreply)| Request::Delete { key, noreply }),
        Just(Request::Stats),
        Just(Request::StatsProm(StatsSub::Render)),
        Just(Request::StatsProm(StatsSub::Reset)),
        Just(Request::StatsProm(StatsSub::Trace(None))),
        any::<usize>().prop_map(|n| Request::StatsProm(StatsSub::Trace(Some(n)))),
        Just(Request::StatsProm(StatsSub::Slow)),
        Just(Request::StatsProm(StatsSub::Json)),
        any::<usize>().prop_map(|n| Request::StatsProm(StatsSub::Worker(n))),
        Just(Request::Version),
        Just(Request::Quit),
    ]
}

/// A complete line the grammar rejects (never one it could still be
/// waiting on), with the rejection it must draw.
fn junk_line_strategy() -> impl Strategy<Value = (Vec<u8>, BadRequest)> {
    prop_oneof![
        Just((b"bogus nonsense\r\n".to_vec(), BadRequest::UnknownCommand)),
        Just((b"get\r\n".to_vec(), BadRequest::GetNeedsKey)),
        Just((b"delete\r\n".to_vec(), BadRequest::DeleteNeedsKey)),
        Just((b"set k x 0 5\r\n".to_vec(), BadRequest::BadNumber)),
        Just((
            b"set missing fields\r\n".to_vec(),
            BadRequest::SetNeedsFields
        )),
        Just((b"\r\n".to_vec(), BadRequest::Empty)),
        Just((
            format!("set k 0 0 {}\r\n", usize::MAX - 2).into_bytes(),
            BadRequest::AbsurdByteCount
        )),
    ]
}

/// One element of a test stream — a valid command or a malformed line —
/// as its wire bytes and what the decoder must report for it.
fn stream_element() -> impl Strategy<Value = (Vec<u8>, Result<Request, BadRequest>)> {
    prop_oneof![
        3 => command_strategy().prop_map(|cmd| (encode(&cmd), Ok(cmd))),
        1 => junk_line_strategy().prop_map(|(line, error)| (line, Err(error))),
    ]
}

/// Runs the decoder over `chunks` the way a connection does: append the
/// chunk to the input buffer, decode in place until more bytes are needed,
/// drain what was consumed. Returns what was decoded and the bytes left
/// buffered.
fn decode_chunks(chunks: &[&[u8]]) -> (Vec<Result<Request, BadRequest>>, usize) {
    let mut decoder = RefDecoder::new();
    let mut input: Vec<u8> = Vec::new();
    let mut decoded = Vec::new();
    for chunk in chunks {
        input.extend_from_slice(chunk);
        let mut offset = 0;
        loop {
            let (used, step) = decoder.step(&input[offset..]);
            offset += used;
            assert!(offset <= input.len(), "consumed past the buffer");
            match step {
                Decoded::Request(request) => decoded.push(Ok(Request::of(&request))),
                Decoded::Bad(error) => decoded.push(Err(error)),
                Decoded::NeedMore => break,
            }
        }
        input.drain(..offset);
    }
    (decoded, input.len())
}

/// What a parse came to, in a form both parsers' outcomes convert to: a
/// complete request as the test's model (and whether it was the multi-key
/// form), or the rejection, each with the bytes consumed.
#[derive(Debug, PartialEq, Eq)]
enum Parsed {
    Complete {
        request: Request,
        multi: bool,
        consumed: usize,
    },
    Incomplete,
    Invalid {
        error: BadRequest,
        consumed: usize,
    },
}

impl Parsed {
    fn of(outcome: RefOutcome<'_>) -> Parsed {
        match outcome {
            RefOutcome::Complete { request, consumed } => Parsed::Complete {
                request: Request::of(&request),
                multi: matches!(request, RequestRef::GetMulti(_)),
                consumed,
            },
            RefOutcome::Incomplete => Parsed::Incomplete,
            RefOutcome::Invalid { consumed, error } => Parsed::Invalid { error, consumed },
        }
    }

    fn of_charwise(outcome: charwise::RefOutcome<'_>) -> Parsed {
        use charwise::RequestRef as Old;
        let text = |key: &[u8]| String::from_utf8(key.to_vec()).expect("keys are UTF-8");
        match outcome {
            charwise::RefOutcome::Complete { request, consumed } => Parsed::Complete {
                request: match request {
                    Old::Get { key } => Request::Get(vec![text(key)]),
                    Old::GetMulti(keys) => Request::Get(
                        keys.rest
                            .split_ascii_whitespace()
                            .map(|key| text(key.as_bytes()))
                            .collect(),
                    ),
                    Old::Set {
                        key,
                        flags,
                        exptime,
                        data,
                        noreply,
                    } => Request::Set {
                        key: text(key),
                        flags,
                        exptime,
                        data: data.to_vec(),
                        noreply,
                    },
                    Old::Delete { key, noreply } => Request::Delete {
                        key: text(key),
                        noreply,
                    },
                    Old::Stats => Request::Stats,
                    Old::StatsProm(sub) => Request::StatsProm(sub),
                    Old::Version => Request::Version,
                    Old::Quit => Request::Quit,
                },
                multi: matches!(request, Old::GetMulti(_)),
                consumed,
            },
            charwise::RefOutcome::Incomplete => Parsed::Incomplete,
            charwise::RefOutcome::Invalid { consumed, error } => {
                Parsed::Invalid { error, consumed }
            }
        }
    }
}

/// Both parsers on `buf` and on every prefix of it — so a `set` whose
/// data block is cut anywhere is checked too; the first disagreement, if
/// any, as `(prefix length, byte-wise, char-wise)`.
fn disagreement(buf: &[u8]) -> Option<(usize, Parsed, Parsed)> {
    (0..=buf.len()).find_map(|len| {
        let prefix = &buf[..len];
        let new = Parsed::of(parse_request_ref(prefix));
        let old = Parsed::of_charwise(charwise::parse_request_ref(prefix));
        (new != old).then_some((len, new, old))
    })
}

/// Pieces of near-valid command lines: what the byte-wise parser must
/// split, trim and compare exactly as the char-wise one did.
const VERBS: &[&str] = &[
    "get", "gets", "set", "delete", "stats", "STATS", "version", "quit", "GET", "ge", "sets", "",
];
const SEPARATORS: &[&[u8]] = &[
    b" ", b" ", b" ", b"  ", b"\t", b" \t ", b"\x0c", b"\r", b"\n", b"\x0b",
];
const WORDS: &[&[u8]] = &[
    b"k",
    b"key:000123",
    b"a-b_c",
    b"0",
    b"5",
    b"+7",
    b"-1",
    b"-",
    b"-0",
    b"42",
    b"4294967295",
    b"4294967296",
    b"18446744073709551615",
    b"18446744073709551616",
    b"-9223372036854775808",
    b"-9223372036854775809",
    b"+",
    b"x1",
    b"noreply",
    b"RESET",
    b"TRACE",
    b"SLOW",
    b"JSON",
    b"WORKER",
    // Valid UTF-8 beyond ASCII.
    "\u{e9}t\u{e9}".as_bytes(),
    "\u{65e5}\u{672c}".as_bytes(),
    "k\u{1f600}".as_bytes(),
    // Invalid UTF-8: a stray continuation byte, a truncated sequence, 0xff.
    b"k\x80",
    b"\xe6\x97",
    b"\xff\xfe",
    b"\xc3",
];
const ENDINGS: &[&[u8]] = &[b"\r\n", b"\r\n", b"\r\n", b"\n", b"\r", b"", b"\n\r\n"];
const TAILS: &[&[u8]] = &[
    b"",
    b"hello\r\n",
    b"hello\r\nget k\r\n",
    b"hel",
    b"hello\r",
    b"helloXY",
    b"\r\n",
    b"get k\r\n",
];

/// A near-valid line as its parts: optional leading separator, verb,
/// `(separator, word)` pairs, optional trailing separator, line ending, and
/// what follows the line. Indices into the tables above; a word index past
/// `WORDS` is a 250-byte key.
type LineParts = (
    Option<usize>,
    usize,
    Vec<(usize, usize)>,
    Option<usize>,
    usize,
    usize,
);

fn near_valid_line() -> impl Strategy<Value = LineParts> {
    let separator = 0..SEPARATORS.len();
    (
        prop_oneof![Just(None), (0..SEPARATORS.len()).prop_map(Some)],
        0..VERBS.len(),
        proptest::collection::vec((separator, 0..WORDS.len() + 1), 0..7),
        prop_oneof![Just(None), (0..SEPARATORS.len()).prop_map(Some)],
        0..ENDINGS.len(),
        0..TAILS.len(),
    )
}

fn render_line((leading, verb, words, trailing, ending, tail): &LineParts) -> Vec<u8> {
    let long_key = vec![b'k'; 250];
    let mut line = Vec::new();
    if let Some(sep) = leading {
        line.extend_from_slice(SEPARATORS[*sep]);
    }
    line.extend_from_slice(VERBS[*verb].as_bytes());
    for &(sep, word) in words {
        line.extend_from_slice(SEPARATORS[sep]);
        line.extend_from_slice(WORDS.get(word).copied().unwrap_or(&long_key));
    }
    if let Some(sep) = trailing {
        line.extend_from_slice(SEPARATORS[*sep]);
    }
    line.extend_from_slice(ENDINGS[*ending]);
    line.extend_from_slice(TAILS[*tail]);
    line
}

/// A `set` line, well-formed or nearly, with its data block: the declared
/// and the actual payload length may differ, and the block's terminator
/// may be right, wrong or missing — cut at every prefix by `disagreement`.
fn set_frame() -> impl Strategy<Value = Vec<u8>> {
    (
        (0..WORDS.len() + 1, 0..WORDS.len(), 0..WORDS.len()),
        0_usize..12,
        0_usize..12,
        any::<bool>(),
        prop_oneof![Just(&b"\r\n"[..]), Just(&b"XY"[..]), Just(&b"\r"[..])],
        0..SEPARATORS.len(),
    )
        .prop_map(
            |((key, flags, exptime), declared, actual, noreply, terminator, sep)| {
                let long_key = vec![b'k'; 250];
                let sep = SEPARATORS[sep];
                let mut frame = b"set".to_vec();
                for word in [
                    WORDS.get(key).copied().unwrap_or(&long_key),
                    WORDS[flags],
                    WORDS[exptime],
                    declared.to_string().as_bytes(),
                ] {
                    frame.extend_from_slice(sep);
                    frame.extend_from_slice(word);
                }
                if noreply {
                    frame.extend_from_slice(b" noreply");
                }
                frame.extend_from_slice(b"\r\n");
                frame.extend(std::iter::repeat_n(b'd', actual));
                frame.extend_from_slice(terminator);
                frame
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn encode_parse_round_trip(cmd in command_strategy()) {
        let wire = encode(&cmd);
        match parse_request_ref(&wire) {
            RefOutcome::Complete { request, consumed } => {
                prop_assert_eq!(Request::of(&request), cmd);
                prop_assert_eq!(consumed, wire.len());
            }
            other => prop_assert!(false, "expected Complete, got {:?}", other),
        }
    }

    #[test]
    fn decoding_is_chunking_independent(
        elements in proptest::collection::vec(stream_element(), 1..8),
        split in 1_usize..64
    ) {
        // Concatenate several commands and malformed lines, feed the bytes
        // in arbitrary chunk sizes, and check the same sequence comes out.
        let stream: Vec<u8> = elements.iter().flat_map(|(wire, _)| wire.clone()).collect();
        let expected: Vec<_> = elements.into_iter().map(|(_, outcome)| outcome).collect();
        let chunks: Vec<&[u8]> = stream.chunks(split).collect();
        let (decoded, buffered) = decode_chunks(&chunks);
        prop_assert_eq!(decoded, expected);
        prop_assert_eq!(buffered, 0, "unconsumed trailing bytes");
    }

    #[test]
    fn decoder_handles_one_byte_at_a_time(cmds in proptest::collection::vec(command_strategy(), 1..6)) {
        // The strictest chunking there is: every read(2) delivers a single
        // byte. The decoder must produce the identical command sequence and
        // never report a valid stream as invalid.
        let stream: Vec<u8> = cmds.iter().flat_map(encode).collect();
        let chunks: Vec<&[u8]> = stream.chunks(1).collect();
        let (decoded, buffered) = decode_chunks(&chunks);
        prop_assert_eq!(decoded, cmds.into_iter().map(Ok).collect::<Vec<_>>());
        prop_assert_eq!(buffered, 0, "unconsumed trailing bytes");
    }

    #[test]
    fn decoder_handles_a_split_at_every_boundary(
        elements in proptest::collection::vec(stream_element(), 1..4)
    ) {
        // For a stream of N bytes, try all N+1 two-chunk splits — including
        // splits inside a verb, inside a length field, between '\r' and
        // '\n', inside a set data block and inside a rejected line.
        let stream: Vec<u8> = elements.iter().flat_map(|(wire, _)| wire.clone()).collect();
        let expected: Vec<_> = elements.into_iter().map(|(_, outcome)| outcome).collect();
        for split in 0..=stream.len() {
            let (decoded, buffered) = decode_chunks(&[&stream[..split], &stream[split..]]);
            prop_assert_eq!(&decoded, &expected, "split at byte {}", split);
            prop_assert_eq!(buffered, 0);
        }
    }

    #[test]
    fn overlong_lines_are_rejected_once_and_skipped(
        len in MAX_LINE + 1..MAX_LINE + 64,
        split in 1_usize..MAX_LINE + 64,
        then in command_strategy()
    ) {
        // A line over the limit draws exactly one rejection wherever the
        // read boundary falls — as too long if the limit was reached before
        // its CRLF came into view, as an unknown command otherwise — and the
        // command behind it decodes normally.
        let mut stream = vec![b'j'; len];
        stream.extend_from_slice(b"\r\n");
        stream.extend_from_slice(&encode(&then));
        let split = split.min(stream.len());
        let (decoded, buffered) = decode_chunks(&[&stream[..split], &stream[split..]]);
        prop_assert_eq!(decoded.len(), 2, "{:?}", decoded);
        prop_assert!(matches!(
            decoded[0],
            Err(BadRequest::LineTooLong | BadRequest::UnknownCommand)
        ));
        prop_assert_eq!(&decoded[1], &Ok(then));
        prop_assert_eq!(buffered, 0);
    }

    #[test]
    fn oversized_set_frames_are_rejected_once_and_swallowed(
        excess in 1_usize..4096,
        split in 4096_usize..(1 << 20),
        then in command_strategy()
    ) {
        // A `set` declaring more than MAX_FRAME payload bytes draws exactly
        // one rejection; its payload streams through without being held,
        // and the command behind it decodes normally.
        let declared = MAX_FRAME + excess;
        let mut decoder = RefDecoder::new();
        let header = format!("set big 0 0 {declared}\r\n");
        let (used, step) = decoder.step(header.as_bytes());
        prop_assert_eq!((used, step), (0, Decoded::Bad(BadRequest::FrameTooLarge)));
        // The header and payload stream through in `split`-byte reads.
        let mut remaining = header.len() + declared + 2;
        let chunk = vec![b'x'; split];
        while remaining > 0 {
            let n = split.min(remaining);
            prop_assert_eq!(decoder.step(&chunk[..n]), (n, Decoded::NeedMore));
            remaining -= n;
        }
        let wire = encode(&then);
        match decoder.step(&wire) {
            (used, Decoded::Request(request)) => {
                prop_assert_eq!(used, wire.len());
                prop_assert_eq!(Request::of(&request), then);
            }
            other => prop_assert!(false, "stream did not recover: {:?}", other),
        }
    }

    #[test]
    fn arbitrary_chunks_never_panic_the_decoder(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..16)
    ) {
        // Junk streams may produce rejections, but the decoder must neither
        // panic nor consume more than it was given (`decode_chunks` asserts
        // the latter), whatever the chunking.
        let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        let (_, buffered) = decode_chunks(&refs);
        let total: usize = chunks.iter().map(Vec::len).sum();
        prop_assert!(buffered <= total);
        // And the same bytes in one piece decode to the same sequence.
        let whole: Vec<u8> = chunks.concat();
        prop_assert_eq!(decode_chunks(&refs).0, decode_chunks(&[&whole]).0);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(junk in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Whatever happens, the parser must not panic and must not claim to
        // have consumed more bytes than it was given.
        match parse_request_ref(&junk) {
            RefOutcome::Complete { consumed, .. } | RefOutcome::Invalid { consumed, .. } => {
                prop_assert!(consumed <= junk.len());
            }
            RefOutcome::Incomplete => {}
        }
    }

    #[test]
    fn the_bytewise_parser_agrees_with_the_charwise_one_on_arbitrary_bytes(
        junk in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let new = Parsed::of(parse_request_ref(&junk));
        let old = Parsed::of_charwise(charwise::parse_request_ref(&junk));
        prop_assert_eq!(new, old, "{:?}", junk);
    }

    #[test]
    fn the_bytewise_parser_agrees_with_the_charwise_one_on_near_valid_lines(
        parts in near_valid_line(),
        then in near_valid_line()
    ) {
        let mut wire = render_line(&parts);
        wire.extend_from_slice(&render_line(&then));
        if let Some(diff) = disagreement(&wire) {
            prop_assert!(false, "{:?}: {:?}", String::from_utf8_lossy(&wire), diff);
        }
    }

    #[test]
    fn the_bytewise_parser_agrees_with_the_charwise_one_on_set_frames(frame in set_frame()) {
        if let Some(diff) = disagreement(&frame) {
            prop_assert!(false, "{:?}: {:?}", String::from_utf8_lossy(&frame), diff);
        }
    }
}
