//! Property tests for the hand-rolled HTTP parser and reply decoder:
//! framing must be invariant under arbitrary byte-boundary splits,
//! header-name case, and hostile `Content-Length` values.

use dg_serve::http::{
    read_reply, write_chunk, write_response, write_stream_head, HttpError, ParserLimits, RawReply,
    Request, RequestParser, LAST_CHUNK,
};
use proptest::prelude::*;
use std::io::{self, ErrorKind, Read};

/// Parses `raw` delivered in the chunks produced by splitting at every
/// position in `cuts` (sorted, deduped).
fn parse_split(raw: &[u8], cuts: &[usize]) -> Result<Option<Request>, HttpError> {
    let mut parser = RequestParser::new(ParserLimits::default());
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (raw.len() + 1)).collect();
    bounds.push(0);
    bounds.push(raw.len());
    bounds.sort_unstable();
    bounds.dedup();
    let mut last = None;
    for pair in bounds.windows(2) {
        if let [a, b] = pair {
            last = parser.feed(&raw[*a..*b])?;
        }
    }
    Ok(last)
}

fn whole(raw: &[u8]) -> Result<Option<Request>, HttpError> {
    RequestParser::new(ParserLimits::default()).feed(raw)
}

/// A well-formed POST with a body of `len` bytes and an arbitrarily cased
/// Content-Length header name.
fn framed_post(path_seed: u8, casing: u8, len: usize) -> Vec<u8> {
    let name: String = "Content-Length"
        .chars()
        .enumerate()
        .map(|(i, c)| {
            if casing >> (i % 8) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect();
    let mut raw =
        format!("POST /v1/p{path_seed} HTTP/1.1\r\nHost: t\r\n{name}: {len}\r\n\r\n").into_bytes();
    raw.resize(raw.len() + len, b'x');
    raw
}

/// Maps seed bytes in `0..26` to an uppercase ASCII word (candidate method).
fn upper_word(seed: &[u8]) -> String {
    seed.iter().map(|&b| char::from(b'A' + b)).collect()
}

/// Maps seed bytes in `0..36` to a `/`-prefixed lowercase-alnum path.
fn lower_path(seed: &[u8]) -> String {
    std::iter::once('/')
        .chain(seed.iter().map(|&b| {
            if b < 26 {
                char::from(b'a' + b)
            } else {
                char::from(b'0' + (b - 26))
            }
        }))
        .collect()
}

/// A reader that hands `wire` out in the pieces `bounds` cut it into,
/// never more than one piece per `read`.
struct Pieces<'a> {
    wire: &'a [u8],
    bounds: Vec<usize>,
    at: usize,
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let next = self.bounds.iter().copied().find(|&b| b > self.at);
        let n = (next.unwrap_or(self.wire.len()) - self.at).min(buf.len());
        buf[..n].copy_from_slice(&self.wire[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// What a decode leaves: the reply's bytes, status, close verdict and
/// de-chunked body, and every byte of `wire` past the reply — or the
/// error's kind.
type Decoded = Result<(Vec<u8>, u16, bool, Vec<u8>, Vec<u8>), ErrorKind>;

/// Decodes the first reply of `wire` delivered in the pieces `cuts`
/// (taken modulo its length) split it into.
fn decode_split(wire: &[u8], cuts: &[usize]) -> (Decoded, Option<RawReply>) {
    let bounds = cuts.iter().map(|&c| c % (wire.len() + 1)).collect();
    let mut pieces = Pieces {
        wire,
        bounds,
        at: 0,
    };
    let mut leftover = Vec::new();
    match read_reply(&mut pieces, &mut leftover) {
        Ok(reply) => {
            leftover.extend_from_slice(&wire[pieces.at..]);
            let body = reply.body().into_owned();
            let decoded = (
                reply.bytes.clone(),
                reply.status,
                reply.close,
                body,
                leftover,
            );
            (Ok(decoded), Some(reply))
        }
        Err(e) => (Err(e.kind()), None),
    }
}

/// One reply as a server frames it: chunked with one chunk per payload,
/// or the payloads joined under a `Content-Length`.
fn framed_reply(status: u16, close: bool, chunked: bool, payloads: &[Vec<u8>]) -> Vec<u8> {
    if !chunked {
        return write_response(
            status,
            "Status",
            "text/plain",
            &[],
            &payloads.concat(),
            close,
        );
    }
    let mut wire = write_stream_head(status, "Status", "application/x-ndjson", close);
    for payload in payloads {
        wire.extend_from_slice(&write_chunk(payload));
    }
    wire.extend_from_slice(LAST_CHUNK);
    wire
}

/// Payload bytes rich in framing look-alikes.
fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let byte = prop::sample::select(b"ab0\r\n{}:".to_vec());
    prop::collection::vec(prop::collection::vec(byte, 1..40), 0..=8)
}

proptest! {
    /// A reply read in arbitrary pieces decodes to the same bytes,
    /// status, close verdict, body and leftover as one whole read, with
    /// or without a pipelined reply after it.
    #[test]
    fn reply_decode_is_invariant_under_read_splits(
        status in prop::sample::select(vec![200u16, 400, 404, 503]),
        close in prop::bool::ANY,
        chunked in prop::bool::ANY,
        payloads in payloads(),
        pipelined in prop::bool::ANY,
        cuts in prop::collection::vec(0usize..2_000, 0..8),
    ) {
        let reply = framed_reply(status, close, chunked, &payloads);
        let next = if pipelined {
            write_response(204, "No Content", "text/plain", &[], b"", false)
        } else {
            Vec::new()
        };
        let wire = [&reply[..], &next[..]].concat();
        let (whole, _) = decode_split(&wire, &[]);
        let want = (reply, status, close, payloads.concat(), next);
        prop_assert_eq!(&whole, &Ok(want));
        let (split, _) = decode_split(&wire, &cuts);
        prop_assert_eq!(split, whole);
    }

    /// Every strict prefix of a reply is a reply cut short.
    #[test]
    fn every_strict_prefix_of_a_reply_is_unexpected_eof(
        close in prop::bool::ANY,
        chunked in prop::bool::ANY,
        payloads in payloads(),
    ) {
        let reply = framed_reply(200, close, chunked, &payloads);
        for cut in 0..reply.len() {
            let (decoded, _) = decode_split(&reply[..cut], &[cut / 2]);
            prop_assert_eq!(decoded, Err(ErrorKind::UnexpectedEof), "cut at {}", cut);
        }
    }

    /// Splitting the byte stream at every combination of positions never
    /// changes the parse: same request, same body, same errors.
    #[test]
    fn split_at_every_byte_is_invariant(
        path_seed in 0u8..50,
        casing in 0u8..=255,
        len in 0usize..200,
        cuts in prop::collection::vec(0usize..400, 0..6),
    ) {
        let raw = framed_post(path_seed, casing, len);
        let reference = whole(&raw);
        let split = parse_split(&raw, &cuts);
        prop_assert_eq!(&reference, &split);
        let req = reference.expect("well-formed").expect("complete");
        prop_assert_eq!(req.body.len(), len);
        prop_assert_eq!(req.method, "POST");
    }

    /// Exhaustive single-split sweep: one cut at *every* byte boundary.
    #[test]
    fn every_single_split_point_parses_identically(
        casing in 0u8..=255,
        len in 0usize..60,
    ) {
        let raw = framed_post(1, casing, len);
        let reference = whole(&raw);
        for cut in 0..=raw.len() {
            let split = parse_split(&raw, &[cut]);
            prop_assert_eq!(&reference, &split, "cut at {}", cut);
        }
    }

    /// Header-name case never affects semantics (RFC 9110).
    #[test]
    fn header_case_is_insensitive(casing_a in 0u8..=255, casing_b in 0u8..=255, len in 0usize..50) {
        let a = whole(&framed_post(2, casing_a, len));
        let b = whole(&framed_post(2, casing_b, len));
        prop_assert_eq!(a, b);
    }

    /// A missing Content-Length means an empty body, whatever trails the
    /// head stays buffered, and the parse still completes.
    #[test]
    fn missing_content_length_means_empty_body(trailing in 0usize..100) {
        let mut raw = b"POST /v1/droop HTTP/1.1\r\nHost: t\r\n\r\n".to_vec();
        raw.resize(raw.len() + trailing, b'y');
        let req = whole(&raw).expect("valid").expect("complete");
        prop_assert!(req.body.is_empty());
    }

    /// Duplicate Content-Length headers are always rejected with 400,
    /// whether the values agree or not, at any split point.
    #[test]
    fn duplicate_content_length_always_rejected(
        a in 0usize..100,
        b in 0usize..100,
        cut in 0usize..80,
    ) {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {a}\r\nContent-Length: {b}\r\n\r\n"
        )
        .into_bytes();
        let whole_err = whole(&raw).expect_err("duplicate must be rejected");
        prop_assert_eq!(whole_err.clone(), HttpError::DuplicateContentLength);
        prop_assert_eq!(whole_err.status().0, 400);
        let split_err = parse_split(&raw, &[cut]).expect_err("split parse agrees");
        prop_assert_eq!(split_err, HttpError::DuplicateContentLength);
    }

    /// Any declared length beyond the cap is rejected with 413 before a
    /// single body byte arrives, for any split of the head.
    #[test]
    fn body_too_large_rejected_before_body_bytes(
        excess in 1usize..1_000_000,
        cut in 0usize..60,
    ) {
        let declared = dg_serve::http::DEFAULT_MAX_BODY_BYTES + excess;
        let raw = format!(
            "POST /v1/droop HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n"
        )
        .into_bytes();
        let err = parse_split(&raw, &[cut]).expect_err("oversized body");
        prop_assert_eq!(err.status().0, 413);
        prop_assert!(matches!(err, HttpError::BodyTooLarge { declared: d, .. } if d == declared));
    }

    /// Junk that is not HTTP at all never parses into a request and never
    /// panics, however it is split.
    #[test]
    fn arbitrary_junk_never_panics(
        junk in prop::collection::vec(0u8..=255, 0..300),
        cuts in prop::collection::vec(0usize..300, 0..4),
    ) {
        // Either an error or "still incomplete" — both are acceptable;
        // completing as a request requires actual HTTP framing.
        let _ = parse_split(&junk, &cuts);
    }

    /// Regression for the request-line fall-through bug: a request line
    /// with fewer than three space-separated parts (no HTTP version, bare
    /// method, trailing space) must always be rejected with 400 — it must
    /// never parse into empty method/target strings.
    #[test]
    fn request_line_missing_version_is_always_400(
        method_seed in prop::collection::vec(0u8..26, 1..=8usize),
        path_seed in prop::collection::vec(0u8..36, 0..=12usize),
        trailing_space in prop::bool::ANY,
        cut in 0usize..40,
    ) {
        let method = upper_word(&method_seed);
        let path = lower_path(&path_seed);
        let line = if trailing_space {
            format!("{method} {path} ")
        } else {
            format!("{method} {path}")
        };
        let raw = format!("{line}\r\nHost: t\r\n\r\n").into_bytes();
        let err = parse_split(&raw, &[cut]).expect_err("no version must be rejected");
        prop_assert_eq!(err.clone(), HttpError::BadRequestLine);
        prop_assert_eq!(err.status().0, 400);
    }

    /// Control bytes and DEL in the target are always rejected, wherever
    /// they sit in the path.
    #[test]
    fn control_bytes_in_target_are_always_400(
        prefix_seed in prop::collection::vec(0u8..26, 0..=6usize),
        suffix_seed in prop::collection::vec(0u8..26, 0..=6usize),
        ctl in prop::sample::select(vec![0x01u8, 0x08, 0x0B, 0x0C, 0x1F, 0x7F]),
    ) {
        let prefix: String = prefix_seed.iter().map(|&b| char::from(b'a' + b)).collect();
        let suffix: String = suffix_seed.iter().map(|&b| char::from(b'a' + b)).collect();
        let mut raw = format!("GET /{prefix}").into_bytes();
        raw.push(ctl);
        raw.extend_from_slice(suffix.as_bytes());
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let err = whole(&raw).expect_err("control byte in target");
        prop_assert_eq!(err, HttpError::BadRequestLine);
    }

    /// Well-formed request lines always parse, and the parsed method and
    /// target round-trip exactly. Targets draw from the full visible-ASCII
    /// range (0x21..=0x7E) minus the space separator.
    #[test]
    fn well_formed_request_lines_round_trip(
        method_seed in prop::collection::vec(0u8..26, 1..=7usize),
        path_seed in prop::collection::vec(0x21u8..=0x7E, 0..=20usize),
    ) {
        let method = upper_word(&method_seed);
        let path: String = std::iter::once('/')
            .chain(path_seed.iter().filter(|&&b| b != b' ').map(|&b| char::from(b)))
            .collect();
        let raw = format!("{method} {path} HTTP/1.1\r\n\r\n").into_bytes();
        let req = whole(&raw).expect("well-formed").expect("complete");
        prop_assert_eq!(req.method, method);
        prop_assert_eq!(req.target, path);
    }
}

#[test]
fn pipelined_requests_survive_splits() {
    let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
    for cut in 0..=raw.len() {
        let mut parser = RequestParser::new(ParserLimits::default());
        let mut got = Vec::new();
        for chunk in [&raw[..cut], &raw[cut..]] {
            let mut bytes = chunk;
            while let Some(req) = parser.feed(bytes).expect("valid") {
                bytes = b"";
                got.push(req.target.clone());
            }
        }
        assert_eq!(got, ["/a", "/b"], "cut at {cut}");
    }
}

/// The crafted replies of the stream-replay unit tests decode the same,
/// verdict included, at every single split point.
#[test]
fn crafted_stream_replies_decode_alike_at_every_split() {
    const RESULT: &[u8] = b"{\"ok\":true,\"result\":{\"lanes\":[1.5,2.5]}}\n";
    let progress = &b"{\"completed\":1,\"total\":2,\"droop_mv\":[1.5]}\n"[..];
    let failed = &b"{\"ok\":false,\"error\":\"internal\"}\n"[..];
    let stream = |close, chunks: &[&[u8]]| {
        let chunks: Vec<Vec<u8>> = chunks.iter().map(|c| c.to_vec()).collect();
        framed_reply(200, close, true, &chunks)
    };
    let replay = stream(false, &[RESULT]);
    let head_len = write_stream_head(200, "Status", "application/x-ndjson", false).len();
    let mut cases = vec![
        (replay.clone(), true),
        (stream(false, &[progress, progress, RESULT]), false),
        (stream(false, &[failed]), false),
        (stream(false, &[&[RESULT, RESULT].concat()]), false),
        (stream(false, &[&[progress, RESULT].concat()]), false),
        (stream(false, &[RESULT.trim_ascii_end()]), false),
        (stream(true, &[RESULT]), false),
        (stream(false, &[]), false),
        (framed_reply(500, false, true, &[RESULT.to_vec()]), false),
        (framed_reply(200, false, false, &[RESULT.to_vec()]), false),
    ];
    for trailing in [&b"x"[..], b"\r\n", b"HTTP/1.1 200 OK\r\n"] {
        cases.push(([&replay[..], trailing].concat(), true));
    }
    for size_line in ["28", "2a", "zz"] {
        let mut bytes = replay.clone();
        bytes.splice(head_len..head_len + 2, size_line.bytes());
        cases.push((bytes, false));
    }
    for (wire, replays) in cases {
        let (whole, reply) = decode_split(&wire, &[]);
        let verdict = reply.is_some_and(|r| r.is_stream_replay());
        assert_eq!(verdict, replays, "{}", String::from_utf8_lossy(&wire));
        for cut in 0..=wire.len() {
            let (split, reply) = decode_split(&wire, &[cut]);
            assert_eq!(split, whole, "cut at {cut}");
            assert_eq!(reply.is_some_and(|r| r.is_stream_replay()), verdict);
        }
    }
}
