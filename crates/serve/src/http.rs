//! A hand-rolled, hardened HTTP/1.1 message layer.
//!
//! [`RequestParser`] is incremental: bytes arrive in arbitrary fragments
//! (`feed` can be called with one byte at a time) and a request is
//! returned only when its framing is complete. Hardening, in order of the
//! attacks it blunts:
//!
//! * **partial reads** — state is buffered across `feed` calls; a split at
//!   any byte boundary yields the identical parse (property-tested),
//! * **oversized heads/bodies** — the head is bounded before a terminator
//!   is ever searched for, and a declared `Content-Length` beyond the body
//!   cap is rejected *before* any body byte is read,
//! * **malformed framing** — bad request lines, non-token methods, header
//!   lines without `:`, missing-CR line endings, duplicate or non-numeric
//!   `Content-Length`, and `Transfer-Encoding` (unimplemented) all yield
//!   typed [`HttpError`]s that map onto 4xx/5xx statuses.
//!
//! Header names are case-insensitive per RFC 9110 and are normalised to
//! lowercase at parse time.
//!
//! Replies are framed once, by [`read_reply`]: it finds where a reply
//! ends on a persistent connection and hands back its exact bytes. Every
//! serve-crate client reads its replies through it, via
//! [`crate::client::Conn`].

use std::fmt;
use std::io::{self, ErrorKind, Read};

/// Default cap on the request head (request line + headers).
const DEFAULT_MAX_HEAD_BYTES: usize = 8 * 1024;

/// Default cap on a request body.
// dg-analyze: allow(unreached-pub, reason = "live (the default body limit); crates/serve/tests/http_proptests.rs names it")
pub const DEFAULT_MAX_BODY_BYTES: usize = 64 * 1024;

/// Default cap on the number of headers.
const DEFAULT_MAX_HEADERS: usize = 64;

/// Framing limits for [`RequestParser`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParserLimits {
    /// Maximum bytes of request line + headers (431 beyond this).
    pub max_head_bytes: usize,
    /// Maximum declared body size (413 beyond this).
    pub max_body_bytes: usize,
    /// Maximum number of header fields (431 beyond this).
    pub max_headers: usize,
}

impl Default for ParserLimits {
    fn default() -> Self {
        ParserLimits {
            max_head_bytes: DEFAULT_MAX_HEAD_BYTES,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            max_headers: DEFAULT_MAX_HEADERS,
        }
    }
}

/// A complete, framed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method token, upper-cased as received (`GET`, `POST`, …).
    pub method: String,
    /// The request target (path, plus query string if any).
    pub target: String,
    /// Header fields in arrival order; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open.
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close` is sent.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A framing violation; maps to an HTTP status via [`HttpError::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HttpError {
    /// The request line was not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// A header line had no `:` separator or a malformed name.
    BadHeader {
        /// 1-indexed header line within the head.
        line: usize,
    },
    /// The head exceeded [`ParserLimits::max_head_bytes`].
    HeadTooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// More than [`ParserLimits::max_headers`] header fields.
    TooManyHeaders {
        /// The configured cap.
        limit: usize,
    },
    /// More than one `Content-Length` header was sent.
    DuplicateContentLength,
    /// `Content-Length` was not a plain decimal number.
    InvalidContentLength,
    /// The declared body exceeds [`ParserLimits::max_body_bytes`].
    BodyTooLarge {
        /// What the request declared.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// `Transfer-Encoding` framing is not implemented by this server.
    UnsupportedTransferEncoding,
}

impl HttpError {
    /// The `(status, reason)` this error maps onto.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequestLine
            | HttpError::BadHeader { .. }
            | HttpError::DuplicateContentLength
            | HttpError::InvalidContentLength => (400, "Bad Request"),
            HttpError::HeadTooLarge { .. } | HttpError::TooManyHeaders { .. } => {
                (431, "Request Header Fields Too Large")
            }
            HttpError::BodyTooLarge { .. } => (413, "Content Too Large"),
            HttpError::UnsupportedTransferEncoding => (501, "Not Implemented"),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::BadHeader { line } => write!(f, "malformed header on line {line}"),
            HttpError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            HttpError::TooManyHeaders { limit } => {
                write!(f, "more than {limit} header fields")
            }
            HttpError::DuplicateContentLength => write!(f, "duplicate Content-Length"),
            HttpError::InvalidContentLength => write!(f, "non-numeric Content-Length"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds the {limit} byte cap"
                )
            }
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "Transfer-Encoding framing is not supported")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Incremental request parser; one per connection.
///
/// Bytes left over after a completed request (pipelining) stay buffered
/// and seed the next parse.
#[derive(Debug)]
pub struct RequestParser {
    limits: ParserLimits,
    buf: Vec<u8>,
    /// Set once a framing error is returned; the connection is poisoned
    /// because the byte stream can no longer be trusted.
    dead: bool,
}

impl RequestParser {
    /// A parser enforcing `limits`.
    pub fn new(limits: ParserLimits) -> Self {
        RequestParser {
            limits,
            buf: Vec::new(),
            dead: false,
        }
    }

    /// Appends freshly read bytes and attempts to complete one request.
    ///
    /// Returns `Ok(None)` while the framing is still incomplete.
    ///
    /// # Errors
    ///
    /// Returns a typed [`HttpError`] on any framing violation; after an
    /// error the parser refuses further input (the stream is ambiguous).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        if self.dead {
            return Err(HttpError::BadRequestLine);
        }
        self.buf.extend_from_slice(bytes);
        match self.try_parse() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.dead = true;
                Err(e)
            }
        }
    }

    /// Bytes currently buffered but not yet consumed by a parse.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    fn try_parse(&mut self) -> Result<Option<Request>, HttpError> {
        let Some(head_end) = find_head_end(&self.buf) else {
            // No terminator yet: the head must still fit in the cap.
            if self.buf.len() > self.limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge {
                    limit: self.limits.max_head_bytes,
                });
            }
            return Ok(None);
        };
        if head_end.head_len > self.limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge {
                limit: self.limits.max_head_bytes,
            });
        }

        let head = self.buf.get(..head_end.head_len).unwrap_or_default();
        let head_text = std::str::from_utf8(head).map_err(|_| HttpError::BadRequestLine)?;
        let mut lines = head_text.split("\r\n").flat_map(|l| l.split('\n'));

        let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
        let (method, target) = parse_request_line(request_line)?;

        let mut headers: Vec<(String, String)> = Vec::new();
        let mut content_length: Option<usize> = None;
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            if headers.len() >= self.limits.max_headers {
                return Err(HttpError::TooManyHeaders {
                    limit: self.limits.max_headers,
                });
            }
            let (name, value) = line
                .split_once(':')
                .ok_or(HttpError::BadHeader { line: i + 2 })?;
            // Per RFC 9112 no whitespace is allowed between name and ':'.
            if name.is_empty()
                || name.ends_with(' ')
                || name.ends_with('\t')
                || !name.bytes().all(is_token_byte)
            {
                return Err(HttpError::BadHeader { line: i + 2 });
            }
            let name = name.to_ascii_lowercase();
            let value = value.trim().to_owned();
            if name == "content-length" {
                if content_length.is_some() {
                    return Err(HttpError::DuplicateContentLength);
                }
                if !value.bytes().all(|b| b.is_ascii_digit()) || value.is_empty() {
                    return Err(HttpError::InvalidContentLength);
                }
                let parsed: usize = value.parse().map_err(|_| HttpError::InvalidContentLength)?;
                content_length = Some(parsed);
            }
            if name == "transfer-encoding" {
                return Err(HttpError::UnsupportedTransferEncoding);
            }
            headers.push((name, value));
        }

        let body_len = content_length.unwrap_or(0);
        if body_len > self.limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge {
                declared: body_len,
                limit: self.limits.max_body_bytes,
            });
        }
        let total = head_end.consumed + body_len;
        if self.buf.len() < total {
            return Ok(None); // body still arriving
        }
        let body = self
            .buf
            .get(head_end.consumed..total)
            .unwrap_or_default()
            .to_vec();
        self.buf.drain(..total);
        Ok(Some(Request {
            method,
            target,
            headers,
            body,
        }))
    }
}

/// Where the head ends: `head_len` excludes the blank-line terminator,
/// `consumed` includes it.
struct HeadEnd {
    head_len: usize,
    consumed: usize,
}

/// Finds the head terminator, accepting `\r\n\r\n` and the lenient `\n\n`.
fn find_head_end(buf: &[u8]) -> Option<HeadEnd> {
    let mut i = 0;
    while i < buf.len() {
        if buf.get(i..i + 4) == Some(b"\r\n\r\n") {
            return Some(HeadEnd {
                head_len: i,
                consumed: i + 4,
            });
        }
        if buf.get(i..i + 2) == Some(b"\n\n") {
            return Some(HeadEnd {
                head_len: i,
                consumed: i + 2,
            });
        }
        i += 1;
    }
    None
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Bytes allowed in a request target: visible ASCII only (RFC 3986's
/// printable range). Control bytes, spaces, and DEL never belong in a
/// target and are rejected rather than smuggled into route matching.
fn is_target_byte(b: u8) -> bool {
    (0x21..=0x7E).contains(&b)
}

fn parse_request_line(line: &str) -> Result<(String, String), HttpError> {
    // Structural split first: a request line that is not exactly
    // `METHOD SP TARGET SP VERSION` is malformed — a missing version or
    // an empty method/target must never fall through as empty strings.
    let (method, rest) = line.split_once(' ').ok_or(HttpError::BadRequestLine)?;
    let (target, version) = rest.split_once(' ').ok_or(HttpError::BadRequestLine)?;
    if method.is_empty() || !method.bytes().all(is_token_byte) {
        return Err(HttpError::BadRequestLine);
    }
    if !target.starts_with('/') || !target.bytes().all(is_target_byte) {
        return Err(HttpError::BadRequestLine);
    }
    // An embedded space in the target lands in `version` and fails here.
    if !(version == "HTTP/1.1" || version == "HTTP/1.0") {
        return Err(HttpError::BadRequestLine);
    }
    Ok((method.to_owned(), target.to_owned()))
}

/// Serialises an HTTP/1.1 response.
///
/// `extra_headers` are emitted verbatim after the standard set; the body
/// is framed with `Content-Length`.
pub fn write_response(
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
    close: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 256);
    out.extend_from_slice(format!("HTTP/1.1 {status} {reason}\r\n").as_bytes());
    out.extend_from_slice(format!("Content-Type: {content_type}\r\n").as_bytes());
    out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    for (k, v) in extra_headers {
        out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
    }
    if close {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// The terminal zero-length chunk of a chunked response (no trailers).
pub const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// Serialises the head of a chunked (streaming) HTTP/1.1 response.
///
/// No `Content-Length` is emitted — the body is framed as
/// `Transfer-Encoding: chunked` and the caller appends [`write_chunk`]
/// frames followed by [`LAST_CHUNK`]. Used by `POST /v1/explore`, whose
/// progress records exist before the final body length does.
pub fn write_stream_head(status: u16, reason: &str, content_type: &str, close: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(format!("HTTP/1.1 {status} {reason}\r\n").as_bytes());
    out.extend_from_slice(format!("Content-Type: {content_type}\r\n").as_bytes());
    out.extend_from_slice(b"Transfer-Encoding: chunked\r\n");
    if close {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out
}

/// Frames one non-empty chunk of a chunked response body
/// (`{len:x}\r\n{payload}\r\n`). An empty payload yields no bytes — a
/// zero-length chunk would terminate the stream early.
pub fn write_chunk(payload: &[u8]) -> Vec<u8> {
    if payload.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(format!("{:x}\r\n", payload.len()).as_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\r\n");
    out
}

/// Largest chunk size the decoders will honour (matches the spirit of
/// the request-body cap: our own streams emit far smaller chunks).
const MAX_CHUNK_BYTES: usize = 16 * 1024 * 1024;

/// Parses one chunk-size line at `buf[at..]`: returns
/// `(payload_start, size)`. `None` while the line is incomplete or on
/// malformed framing (callers treat both as "not a complete message").
fn chunk_size_at(buf: &[u8], at: usize) -> Option<(usize, usize)> {
    let rest = buf.get(at..)?;
    let line_end = rest.windows(2).position(|w| w == b"\r\n")?;
    let digits = rest.get(..line_end)?;
    if digits.is_empty() || digits.len() > 8 {
        return None;
    }
    let mut size = 0usize;
    for &b in digits {
        let d = (b as char).to_digit(16)?;
        size = size.checked_mul(16)?.checked_add(d as usize)?;
    }
    if size > MAX_CHUNK_BYTES {
        return None;
    }
    Some((at + line_end + 2, size))
}

/// Finds the end of a chunked message body starting at `buf[0]`:
/// returns the total encoded length (through the terminal `0\r\n\r\n`)
/// once the whole message has arrived, `None` while incomplete. Used by
/// [`read_reply`] to frame streamed replies.
fn chunked_body_end(buf: &[u8]) -> Option<usize> {
    let mut at = 0usize;
    loop {
        let (payload_start, size) = chunk_size_at(buf, at)?;
        if size == 0 {
            // Terminal chunk: we never emit trailers, so the next two
            // bytes close the message.
            if buf.get(payload_start..payload_start + 2)? == b"\r\n" {
                return Some(payload_start + 2);
            }
            return None;
        }
        let after = payload_start.checked_add(size)?;
        if buf.get(after..after + 2)? != b"\r\n" {
            return None;
        }
        at = after + 2;
    }
}

/// Decodes a complete chunked body into its payload bytes, returning
/// `(payload, encoded_len)`. `None` while the message is incomplete.
/// Used by the load/differential clients to read `/v1/explore` streams.
pub fn decode_chunked(buf: &[u8]) -> Option<(Vec<u8>, usize)> {
    let total = chunked_body_end(buf)?;
    let mut payload = Vec::new();
    let mut at = 0usize;
    loop {
        let (payload_start, size) = chunk_size_at(buf, at)?;
        if size == 0 {
            return Some((payload, total));
        }
        payload.extend_from_slice(buf.get(payload_start..payload_start + size)?);
        at = payload_start + size + 2;
    }
}

/// One HTTP/1.1 reply exactly as it came off the wire.
#[derive(Debug)]
pub struct RawReply {
    /// The complete reply — head, body, and any chunk framing — byte for
    /// byte.
    pub bytes: Vec<u8>,
    /// The status code from the status line.
    pub status: u16,
    /// Whether the sender closes its side after this reply
    /// (`Connection: close`).
    pub close: bool,
}

/// Finds the end of a reply head (`\r\n\r\n`), returning the offset just
/// past it.
// dg-analyze: allow(unreached-pub, reason = "live (read_reply frames reply heads with it); crates/serve/tests/router.rs names it")
pub fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Case-insensitively finds a header's trimmed value in a raw head.
fn header_value<'a>(head: &'a [u8], name: &str) -> Option<&'a str> {
    for line in head.split(|&b| b == b'\n') {
        let line = std::str::from_utf8(line).ok()?.trim_end_matches('\r');
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case(name) {
                return Some(v.trim());
            }
        }
    }
    None
}

/// Reads one reply off `stream` without parsing it into headers: only its
/// status, its framing (`Content-Length` or chunked) and its
/// `Connection: close` verdict are scanned. `leftover` is the
/// connection's read buffer: bytes already read past this reply stay in
/// it for the next call.
///
/// # Errors
///
/// Socket errors, a close before the reply is complete
/// (`UnexpectedEof`), or a head that is not an HTTP/1.x status line
/// (`InvalidData`).
pub fn read_reply(stream: &mut impl Read, leftover: &mut Vec<u8>) -> io::Result<RawReply> {
    let mut chunk = [0u8; 16 * 1024];
    let head_len = fill_until(stream, leftover, &mut chunk, head_end)?;
    let head = leftover.get(..head_len).unwrap_or_default();
    let status: u16 = head
        .strip_prefix(b"HTTP/1.1 ")
        .or_else(|| head.strip_prefix(b"HTTP/1.0 "))
        .and_then(|rest| std::str::from_utf8(rest.get(..3)?).ok()?.parse().ok())
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "reply is not HTTP"))?;
    let close = header_value(head, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    let total = if header_value(head, "transfer-encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    {
        fill_until(stream, leftover, &mut chunk, |buf| {
            chunked_body_end(buf.get(head_len..)?).map(|n| head_len + n)
        })?
    } else {
        let body_len: usize = header_value(head, "content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let total = head_len.saturating_add(body_len);
        fill_until(stream, leftover, &mut chunk, |buf| {
            (buf.len() >= total).then_some(total)
        })?
    };
    Ok(RawReply {
        bytes: leftover.drain(..total).collect(),
        status,
        close,
    })
}

/// Reads from `stream` into `buf` until `done(buf)` has an answer.
fn fill_until<T>(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    chunk: &mut [u8],
    done: impl Fn(&[u8]) -> Option<T>,
) -> io::Result<T> {
    loop {
        if let Some(answer) = done(buf) {
            return Ok(answer);
        }
        match stream.read(chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-reply",
                ))
            }
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or_default()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        RequestParser::new(ParserLimits::default()).feed(bytes)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse_all(b"POST /v1/droop HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .expect("valid")
            .expect("complete");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/droop");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive());
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let req = parse_all(b"POST / HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\n\r\nhi")
            .expect("valid")
            .expect("complete");
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn incomplete_frames_return_none() {
        let mut p = RequestParser::new(ParserLimits::default());
        assert_eq!(p.feed(b"GET / HT").expect("partial"), None);
        assert_eq!(p.feed(b"TP/1.1\r\nHost: a\r\n").expect("partial"), None);
        let req = p.feed(b"\r\n").expect("valid").expect("complete");
        assert_eq!(req.method, "GET");
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn pipelined_requests_keep_leftover_bytes() {
        let mut p = RequestParser::new(ParserLimits::default());
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let first = p.feed(two).expect("valid").expect("complete");
        assert_eq!(first.target, "/a");
        let second = p.feed(b"").expect("valid").expect("complete");
        assert_eq!(second.target, "/b");
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        let err = parse_all(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi")
            .expect_err("duplicate");
        assert_eq!(err, HttpError::DuplicateContentLength);
        assert_eq!(err.status().0, 400);
    }

    #[test]
    fn non_numeric_content_length_is_rejected() {
        for v in ["abc", "-1", "1 2", ""] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {v}\r\n\r\n");
            let err = parse_all(raw.as_bytes()).expect_err("invalid length");
            assert_eq!(err, HttpError::InvalidContentLength, "{v:?}");
        }
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_body_bytes() {
        let limits = ParserLimits {
            max_body_bytes: 16,
            ..ParserLimits::default()
        };
        let mut p = RequestParser::new(limits);
        let err = p
            .feed(b"POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n")
            .expect_err("too large");
        assert_eq!(
            err,
            HttpError::BodyTooLarge {
                declared: 1_000_000,
                limit: 16
            }
        );
        assert_eq!(err.status().0, 413);
    }

    #[test]
    fn unbounded_head_is_rejected_without_a_terminator() {
        let limits = ParserLimits {
            max_head_bytes: 64,
            ..ParserLimits::default()
        };
        let mut p = RequestParser::new(limits);
        let err = p.feed(&[b'A'; 100]).expect_err("head too large");
        assert!(matches!(err, HttpError::HeadTooLarge { limit: 64 }));
        assert_eq!(err.status().0, 431);
    }

    #[test]
    fn transfer_encoding_is_not_implemented() {
        let err = parse_all(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
            .expect_err("unsupported");
        assert_eq!(err, HttpError::UnsupportedTransferEncoding);
        assert_eq!(err.status().0, 501);
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET  / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"G@T / HTTP/1.1\r\n\r\n",
            b"\r\n\r\n",
            // Regression: a request line with no HTTP version (or nothing
            // but a method) must be 400, not parsed into empty strings.
            b"GET /\r\n\r\n",
            b"GET\r\n\r\n",
            b"GET \r\n\r\n",
            b"GET  \r\n\r\n",
            b" / HTTP/1.1\r\n\r\n",
            b"GET /\x01path HTTP/1.1\r\n\r\n",
            b"GET /pa\tth HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 junk\r\n\r\n",
        ] {
            let err = parse_all(bad).expect_err("malformed line");
            assert_eq!(err, HttpError::BadRequestLine, "{bad:?}");
        }
    }

    #[test]
    fn malformed_headers_are_rejected() {
        for bad in [
            &b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",
            b"GET / HTTP/1.1\r\nName : x\r\n\r\n",
            b"GET / HTTP/1.1\r\n: x\r\n\r\n",
        ] {
            let err = parse_all(bad).expect_err("malformed header");
            assert!(matches!(err, HttpError::BadHeader { .. }), "{bad:?}");
        }
    }

    #[test]
    fn parser_poisons_after_an_error() {
        let mut p = RequestParser::new(ParserLimits::default());
        assert!(p.feed(b"JUNK\r\n\r\n").is_err());
        assert!(p.feed(b"GET / HTTP/1.1\r\n\r\n").is_err());
    }

    #[test]
    fn connection_close_is_honoured() {
        let req = parse_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("valid")
            .expect("complete");
        assert!(!req.keep_alive());
    }

    #[test]
    fn response_writer_frames_correctly() {
        let out = write_response(200, "OK", "application/json", &[], b"{}", true);
        let text = String::from_utf8(out).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn stream_head_declares_chunked_framing_without_a_length() {
        let head = write_stream_head(200, "OK", "application/x-ndjson", false);
        let text = String::from_utf8(head).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(!text.contains("Connection: close"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn chunk_round_trips_through_the_decoder() {
        let mut body = write_chunk(b"{\"a\":1}\n");
        body.extend_from_slice(&write_chunk(b"{\"b\":22}\n"));
        body.extend_from_slice(LAST_CHUNK);
        assert!(body.starts_with(b"8\r\n"));
        let (payload, consumed) = decode_chunked(&body).expect("complete");
        assert_eq!(payload, b"{\"a\":1}\n{\"b\":22}\n");
        assert_eq!(consumed, body.len());
        assert_eq!(chunked_body_end(&body), Some(body.len()));
        // Empty payloads frame to nothing rather than a premature
        // terminator.
        assert!(write_chunk(b"").is_empty());
    }

    #[test]
    fn incomplete_or_malformed_chunked_bodies_are_not_decoded() {
        let mut body = write_chunk(b"hello");
        assert_eq!(chunked_body_end(&body), None, "no terminator yet");
        body.extend_from_slice(b"0\r\n");
        assert_eq!(chunked_body_end(&body), None, "terminator still partial");
        body.extend_from_slice(b"\r\n");
        assert!(chunked_body_end(&body).is_some());
        // Trailing pipelined bytes after the terminator don't confuse the
        // end finder.
        let end = chunked_body_end(&body).expect("complete");
        body.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
        assert_eq!(chunked_body_end(&body), Some(end));
        for bad in [&b"zz\r\nhi\r\n0\r\n\r\n"[..], b"5\r\nhelloXX0\r\n\r\n"] {
            assert_eq!(decode_chunked(bad), None, "{bad:?}");
        }
    }

    /// A reader that hands out one byte per `read`, so every framing
    /// decision runs across read boundaries.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let (Some(byte), Some(slot)) = (self.0.first(), buf.first_mut()) else {
                return Ok(0);
            };
            *slot = *byte;
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn read_reply_leaves_a_pipelined_second_reply_in_leftover() {
        let first = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirst";
        let second = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno";
        let wire = [&first[..], &second[..]].concat();
        let mut stream = io::Cursor::new(wire);
        let mut leftover = Vec::new();
        let reply = read_reply(&mut stream, &mut leftover).expect("first reply");
        assert_eq!((reply.status, reply.close), (200, false));
        assert_eq!(reply.bytes, first);
        assert_eq!(leftover, second, "the second reply waits in leftover");
        let reply = read_reply(&mut stream, &mut leftover).expect("second reply");
        assert_eq!(reply.status, 404);
        assert_eq!(reply.bytes, second);
        assert!(leftover.is_empty());
    }

    #[test]
    fn read_reply_frames_a_chunked_reply_through_its_terminal_chunk() {
        let reply = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let wire = [&reply[..], b"HTTP/1.1 200 OK\r\n"].concat();
        let mut leftover = Vec::new();
        let framed = read_reply(&mut io::Cursor::new(&wire), &mut leftover).expect("reply");
        assert_eq!(framed.bytes, reply);
        assert_eq!(leftover, b"HTTP/1.1 200 OK\r\n");
        // The same reply arriving a byte at a time frames identically.
        let mut leftover = Vec::new();
        let trickled = read_reply(&mut Trickle(reply), &mut leftover).expect("reply");
        assert_eq!(trickled.bytes, reply);
        assert!(leftover.is_empty());
    }

    #[test]
    fn read_reply_reports_connection_close() {
        for (head, close) in [
            ("Connection: close", true),
            ("connection: Close", true),
            ("Connection: keep-alive", false),
            ("X-Other: close", false),
        ] {
            let wire =
                format!("HTTP/1.1 503 Service Unavailable\r\n{head}\r\nContent-Length: 0\r\n\r\n");
            let reply = read_reply(&mut wire.as_bytes(), &mut Vec::new()).expect("reply");
            assert_eq!((reply.status, reply.close), (503, close), "{head}");
        }
    }

    #[test]
    fn read_reply_cut_mid_body_is_unexpected_eof() {
        for cut in [
            &b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"[..],
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel",
            b"HTTP/1.1 200 OK\r\nContent-",
        ] {
            let err = read_reply(&mut Trickle(cut), &mut Vec::new()).expect_err("cut reply");
            assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{cut:?}");
        }
    }

    #[test]
    fn read_reply_rejects_a_non_http_head() {
        for junk in [
            &b"NOT HTTP AT ALL\r\n\r\nbody"[..],
            b"HTTP/2 200\r\n\r\n",
            b"HTTP/1.1 2xx OK\r\n\r\n",
        ] {
            let err = read_reply(&mut &junk[..], &mut Vec::new()).expect_err("junk head");
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{junk:?}");
        }
    }
}
