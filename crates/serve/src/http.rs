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
//! Replies are decoded once, by [`read_reply`]: one forward pass finds
//! where a reply ends on a persistent connection and records its status,
//! headers and chunk spans, and the [`RawReply`] it returns hands out the
//! exact bytes, the de-chunked body and the stream-replay verdict. Every
//! serve-crate client and `dg-chaos` read replies through it, the
//! clients via [`crate::client::Conn`].

use std::borrow::Cow;
use std::fmt;
use std::io::{self, ErrorKind, Read};
use std::ops::Range;

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

/// One HTTP/1.1 reply exactly as it came off the wire, with what
/// [`read_reply`] recorded while it framed it: where the head ends, each
/// header's name and value, and each data chunk's payload.
#[derive(Debug, Clone, Default)]
pub struct RawReply {
    /// The complete reply — head, body, and any chunk framing — byte for
    /// byte.
    pub bytes: Vec<u8>,
    /// The status code from the status line.
    pub status: u16,
    /// Whether the sender closes its side after this reply
    /// (`Connection: close`).
    pub close: bool,
    /// The offset just past the head's blank line.
    head_len: usize,
    /// Each header line's name and value, as spans of `bytes`.
    headers: Vec<(Range<usize>, Range<usize>)>,
    /// Each data chunk's payload span; `None` for a `Content-Length` body.
    chunks: Option<Vec<Range<usize>>>,
}

impl RawReply {
    /// The first value of header `name`, compared case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        std::str::from_utf8(header_in(&self.bytes, &self.headers, name)?).ok()
    }

    /// The body with any chunk framing removed.
    pub fn body(&self) -> Cow<'_, [u8]> {
        let span = |s: &Range<usize>| self.bytes.get(s.clone()).unwrap_or_default();
        match &self.chunks {
            None => Cow::Borrowed(span(&(self.head_len..self.bytes.len()))),
            Some(chunks) => Cow::Owned(chunks.iter().flat_map(span).copied().collect()),
        }
    }

    /// Whether this is a stream in the form a shard replays a cached
    /// result in: a `200` keep-alive chunked reply whose one data chunk
    /// holds one newline-terminated line that starts `{"ok":true`. A
    /// shard sends these exact bytes for every later request on the
    /// stream's key, so `dg-router` may cache them. A computed stream
    /// (progress lines before its result) never matches, and neither does
    /// a failed one, whose `{"ok":false…}` result rides a head that still
    /// says keep-alive.
    pub fn is_stream_replay(&self) -> bool {
        let Some([span]) = self.chunks.as_deref() else {
            return false;
        };
        let line = self.bytes.get(span.clone()).unwrap_or_default();
        // One line: its only newline is its last byte.
        self.status == 200
            && !self.close
            && line.starts_with(br#"{"ok":true"#)
            && line.iter().position(|&b| b == b'\n') == Some(line.len() - 1)
    }

    /// Carries the one pass over a reply as far as `buf` goes, from
    /// `stage`, where the last call stopped: `Some(total)` once the reply
    /// is complete, `None` while it needs more bytes. Every head and
    /// chunk frame is parsed here, once.
    fn advance(&mut self, stage: &mut Stage, buf: &[u8]) -> io::Result<Option<usize>> {
        loop {
            *stage = match *stage {
                Stage::Head { scanned } => {
                    let from = scanned.saturating_sub(3);
                    let rest = buf.get(from..).unwrap_or_default();
                    let Some(i) = rest.windows(4).position(|w| w == b"\r\n\r\n") else {
                        *stage = Stage::Head { scanned: buf.len() };
                        return Ok(None);
                    };
                    self.head_len = from + i + 4;
                    self.parse_head(buf.get(..self.head_len).unwrap_or_default())?
                }
                Stage::Sized { end } => return Ok((buf.len() >= end).then_some(end)),
                Stage::Size { at } => {
                    let line = buf.get(at..).unwrap_or_default();
                    let hex_digit = |b: &&u8| b.is_ascii_hexdigit();
                    let digits = line.iter().take(9).take_while(hex_digit).count();
                    if digits > 8 {
                        return Err(bad_framing("a chunk size longer than 8 digits"));
                    }
                    if !crlf(line.get(digits..).unwrap_or_default())? {
                        return Ok(None);
                    }
                    let hex = std::str::from_utf8(line.get(..digits).unwrap_or_default());
                    let size = hex.ok().and_then(|h| usize::from_str_radix(h, 16).ok());
                    let start = at + digits + 2;
                    let size = size.ok_or_else(|| bad_framing("an empty chunk size"))?;
                    let end = start.saturating_add(size);
                    if end.saturating_add(2) > MAX_REPLY_BYTES {
                        return Err(too_long());
                    }
                    Stage::Data { start, end }
                }
                Stage::Data { start, end } => {
                    if !crlf(buf.get(end..).unwrap_or_default())? {
                        return Ok(None);
                    }
                    if start == end {
                        // The terminal chunk: we never send trailers.
                        return Ok(Some(end + 2));
                    }
                    self.chunks.get_or_insert_with(Vec::new).push(start..end);
                    Stage::Size { at: end + 2 }
                }
            };
        }
    }

    /// Records what the complete `head` says — status, headers, the
    /// `Connection: close` verdict — and returns the stage its body
    /// framing starts in.
    fn parse_head(&mut self, head: &[u8]) -> io::Result<Stage> {
        self.status = status_of(head).ok_or_else(|| bad_framing("a head that is not HTTP"))?;
        let mut at = 0;
        for line in head.split(|&b| b == b'\n') {
            let start = at;
            at += line.len() + 1;
            // The status line, at 0, is no header even if it holds a ':'.
            let colon = line.iter().position(|&b| b == b':').filter(|_| start > 0);
            if let Some(colon) = colon {
                let end = start + line.len();
                self.headers
                    .push((start..start + colon, start + colon + 1..end));
            }
        }
        let is = |name, value: &str| {
            header_in(head, &self.headers, name)
                .is_some_and(|v| v.eq_ignore_ascii_case(value.as_bytes()))
        };
        self.close = is("connection", "close");
        if is("transfer-encoding", "chunked") {
            self.chunks = Some(Vec::new());
            return Ok(Stage::Size { at: head.len() });
        }
        let body_len = match header_in(head, &self.headers, "content-length") {
            None => 0,
            Some(v) => std::str::from_utf8(v)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| bad_framing("a Content-Length that is not a number"))?,
        };
        let end = head.len().saturating_add(body_len);
        if end > MAX_REPLY_BYTES {
            return Err(too_long());
        }
        Ok(Stage::Sized { end })
    }
}

/// The first value of header `name`, compared case-insensitively, among
/// `headers` (name and value spans of `buf`), trimmed.
fn header_in<'a>(
    buf: &'a [u8],
    headers: &[(Range<usize>, Range<usize>)],
    name: &str,
) -> Option<&'a [u8]> {
    let span = |s: &Range<usize>| buf.get(s.clone()).unwrap_or_default().trim_ascii();
    let (_, value) = headers
        .iter()
        .find(|(k, _)| span(k).eq_ignore_ascii_case(name.as_bytes()))?;
    Some(span(value))
}

/// Where [`read_reply`]'s one pass over a reply stands between reads.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Looking for the blank line that ends the head; none ends before
    /// `scanned`.
    Head { scanned: usize },
    /// A `Content-Length` body that ends at `end`.
    Sized { end: usize },
    /// A chunk-size line starts at `at`.
    Size { at: usize },
    /// A chunk's payload spans `start..end`, and a CRLF follows it. An
    /// empty payload is the terminal chunk.
    Data { start: usize, end: usize },
}

/// Whether `rest` opens with a CRLF: `false` while only part of one has
/// arrived, `InvalidData` when anything else is there.
fn crlf(rest: &[u8]) -> io::Result<bool> {
    let n = rest.len().min(2);
    if rest.get(..n) != b"\r\n".get(..n) {
        return Err(bad_framing("a chunk frame without its CRLF"));
    }
    Ok(n == 2)
}

/// The status code of a raw head's `HTTP/1.x` status line.
fn status_of(head: &[u8]) -> Option<u16> {
    head.strip_prefix(b"HTTP/1.1 ")
        .or_else(|| head.strip_prefix(b"HTTP/1.0 "))
        .and_then(|rest| std::str::from_utf8(rest.get(..3)?).ok()?.parse().ok())
}

/// Most bytes [`read_reply`] buffers for one reply, head and body
/// together. A shard's largest reply, a 20,000-point `/v1/sweep` at
/// `decimate` 1, is under 1 MiB.
const MAX_REPLY_BYTES: usize = 16 * 1024 * 1024;

/// Reads one reply off `stream` in one forward pass that resumes where
/// the last read stopped, recording its status, headers, `Connection:
/// close` verdict and body framing (`Content-Length` or chunked) as it
/// goes. This is the only code that parses a reply. `leftover` is the
/// connection's read buffer: bytes already read past this reply stay in
/// it for the next call.
///
/// # Errors
///
/// Socket errors, a close before the reply is complete
/// (`UnexpectedEof`), or `InvalidData` for a head that is not an
/// HTTP/1.x status line, a `Content-Length` that is not a number,
/// malformed chunk framing, or a reply longer than `MAX_REPLY_BYTES`
/// (16 MiB) — declared or read so far. An oversized reply is refused
/// before more of it is read.
pub fn read_reply(stream: &mut impl Read, leftover: &mut Vec<u8>) -> io::Result<RawReply> {
    let mut reply = RawReply::default();
    let mut stage = Stage::Head { scanned: 0 };
    let mut chunk = [0u8; 16 * 1024];
    let total = loop {
        if let Some(total) = reply.advance(&mut stage, leftover)? {
            break total;
        }
        if leftover.len() >= MAX_REPLY_BYTES {
            return Err(too_long());
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-reply",
                ))
            }
            Ok(n) => leftover.extend_from_slice(chunk.get(..n).unwrap_or_default()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    let rest = leftover.split_off(total);
    reply.bytes = std::mem::replace(leftover, rest);
    Ok(reply)
}

/// The error for a reply that does not frame.
fn bad_framing(what: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, format!("reply has {what}"))
}

/// The error for a reply past `MAX_REPLY_BYTES`.
fn too_long() -> io::Error {
    io::Error::new(ErrorKind::InvalidData, "reply exceeds 16 MiB")
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

    /// Reads one reply off `wire`, returning it with the bytes left
    /// unread after it. (`tests/http_proptests.rs` reads the stream-replay
    /// cases below at every split point.)
    fn decode(wire: &[u8]) -> io::Result<(RawReply, Vec<u8>)> {
        let mut rest = Vec::new();
        let reply = read_reply(&mut &wire[..], &mut rest)?;
        Ok((reply, rest))
    }

    #[test]
    fn chunk_round_trips_through_the_decoder() {
        let mut body = write_chunk(b"{\"a\":1}\n");
        body.extend_from_slice(&write_chunk(b"{\"b\":22}\n"));
        body.extend_from_slice(LAST_CHUNK);
        assert!(body.starts_with(b"8\r\n"));
        let wire = [
            write_stream_head(200, "OK", "application/x-ndjson", false),
            body,
        ]
        .concat();
        let (reply, rest) = decode(&wire).expect("complete");
        assert_eq!(&*reply.body(), b"{\"a\":1}\n{\"b\":22}\n");
        assert_eq!((reply.bytes, rest), (wire, Vec::new()));
        // Empty payloads frame to nothing rather than a premature
        // terminator.
        assert!(write_chunk(b"").is_empty());
    }

    #[test]
    fn incomplete_or_malformed_chunked_bodies_are_not_decoded() {
        let head = write_stream_head(200, "OK", "text/plain", false);
        let mut wire = [&head[..], &write_chunk(b"hello")].concat();
        let eof = |wire: &[u8]| decode(wire).expect_err("incomplete").kind();
        assert_eq!(eof(&wire), ErrorKind::UnexpectedEof, "no terminator yet");
        wire.extend_from_slice(b"0\r\n");
        assert_eq!(eof(&wire), ErrorKind::UnexpectedEof, "terminator partial");
        wire.extend_from_slice(b"\r\n");
        // Pipelined bytes after the terminator stay unread.
        let next = b"HTTP/1.1 200 OK\r\n";
        let (reply, rest) = decode(&[&wire[..], next].concat()).expect("complete");
        assert_eq!((reply.bytes, &rest[..]), (wire, &next[..]));
        for bad in [&b"zz\r\nhi\r\n0\r\n\r\n"[..], b"5\r\nhelloXX0\r\n\r\n"] {
            let err = decode(&[&head[..], bad].concat()).expect_err("malformed");
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{bad:?}");
        }
    }

    /// A whole NDJSON stream as a shard frames it: the head, one chunk
    /// per entry of `chunks`, then the terminal chunk.
    fn stream(close: bool, chunks: &[&[u8]]) -> Vec<u8> {
        let mut bytes = write_stream_head(200, "OK", "application/x-ndjson", close);
        for chunk in chunks {
            bytes.extend_from_slice(&write_chunk(chunk));
        }
        bytes.extend_from_slice(LAST_CHUNK);
        bytes
    }

    const RESULT: &[u8] = b"{\"ok\":true,\"result\":{\"lanes\":[1.5,2.5]}}\n";

    /// Whether `wire` decodes to a reply in the replay form.
    fn is_replay(wire: &[u8]) -> bool {
        decode(wire).expect("a framed reply").0.is_stream_replay()
    }

    #[test]
    fn stream_replay_form_is_recognized() {
        // A shard's framing of a cached result, spelled out by hand.
        let mut replay = write_stream_head(200, "OK", "application/x-ndjson", false);
        replay.extend_from_slice(b"29\r\n");
        replay.extend_from_slice(RESULT);
        replay.extend_from_slice(b"\r\n0\r\n\r\n");
        assert!(is_replay(&replay));
        assert_eq!(replay, stream(false, &[RESULT]), "the helper frames it too");
    }

    #[test]
    fn computed_and_failed_streams_are_not_replays() {
        let progress = &b"{\"completed\":1,\"total\":2,\"droop_mv\":[1.5]}\n"[..];
        let failed = &b"{\"ok\":false,\"error\":\"internal\"}\n"[..];
        for (what, bytes) in [
            (
                "progress then result",
                stream(false, &[progress, progress, RESULT]),
            ),
            ("a failed result", stream(false, &[failed])),
            (
                "two lines in one chunk",
                stream(false, &[&[RESULT, RESULT].concat()]),
            ),
            (
                "progress and result in one chunk",
                stream(false, &[&[progress, RESULT].concat()]),
            ),
            (
                "a result without its newline",
                stream(false, &[RESULT.trim_ascii_end()]),
            ),
            ("a closing head", stream(true, &[RESULT])),
            ("no data chunk", stream(false, &[])),
        ] {
            assert!(!is_replay(&bytes), "{what}");
        }
        let mut not_ok = stream(false, &[RESULT]);
        not_ok.splice(9..12, b"500".iter().copied());
        assert!(!is_replay(&not_ok), "a non-200 status");
        let plain = write_response(200, "OK", "application/x-ndjson", &[], RESULT, false);
        assert!(!is_replay(&plain), "Content-Length framing");
    }

    #[test]
    fn malformed_replay_framing_is_not_a_replay() {
        let whole = stream(false, &[RESULT]);
        let head_len = write_stream_head(200, "OK", "application/x-ndjson", false).len();
        // Cut anywhere: inside the head, the size line, the line, or the
        // terminal chunk. No reply frames, so nothing can be cached.
        for cut in 0..whole.len() {
            let err = decode(&whole[..cut]).expect_err("a cut reply");
            assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        for (what, size_line) in [("short", "28"), ("long", "2a"), ("not hex", "zz")] {
            let mut bytes = whole.clone();
            bytes.splice(head_len..head_len + 2, size_line.bytes());
            let err = decode(&bytes).expect_err("a mis-sized chunk");
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{what} chunk size");
        }
        // Bytes after the terminal chunk are never part of the reply.
        for trailing in [&b"x"[..], b"\r\n", b"HTTP/1.1 200 OK\r\n"] {
            let (reply, rest) = decode(&[&whole[..], trailing].concat()).expect("framed");
            assert_eq!((&reply.bytes, &rest[..]), (&whole, trailing));
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

    /// A finite upstream: `head`, then `frame` repeated `frames` times,
    /// counting the bytes `read_reply` pulled off it.
    struct Upstream {
        head: &'static [u8],
        frame: Vec<u8>,
        frames: usize,
        served: usize,
    }

    impl Read for Upstream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let total = self.head.len() + self.frames * self.frame.len();
            if self.served >= total {
                return Ok(0);
            }
            let (src, at) = match self.served.checked_sub(self.head.len()) {
                None => (self.head, self.served),
                Some(body) => (&self.frame[..], body % self.frame.len()),
            };
            let n = (src.len() - at).min(buf.len());
            buf[..n].copy_from_slice(&src[at..at + n]);
            self.served += n;
            Ok(n)
        }
    }

    #[test]
    fn read_reply_caps_what_it_buffers() {
        // A declared body past the cap is refused before any of it is read.
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n";
        let mut upstream = Upstream {
            head,
            frame: vec![b'x'; 1024],
            frames: 4,
            served: 0,
        };
        let err = read_reply(&mut upstream, &mut Vec::new()).expect_err("declared too long");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(upstream.served, head.len(), "no body byte may be read");

        // Well-formed 1 MiB chunks that run past the cap: reading stops
        // within one read of it.
        let mib = 1 << 20;
        let frame = [format!("{mib:x}\r\n").as_bytes(), &vec![b'x'; mib], b"\r\n"].concat();
        let mut upstream = Upstream {
            head: b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
            frame,
            frames: 20,
            served: 0,
        };
        let err = read_reply(&mut upstream, &mut Vec::new()).expect_err("chunks too long");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(
            upstream.served < MAX_REPLY_BYTES + 16 * 1024,
            "{}",
            upstream.served
        );

        // A length that is not a number frames nothing.
        let mut upstream = Upstream {
            head: b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n",
            frame: b"0123456789".to_vec(),
            frames: 1,
            served: 0,
        };
        let err = read_reply(&mut upstream, &mut Vec::new()).expect_err("bad length");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
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
