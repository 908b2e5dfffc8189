//! The benchmark's own HTTP/1.1 keep-alive client.
//!
//! It is deliberately independent of `dg_serve::client`, so a refactor of
//! the serve tier's client code never has to touch the benchmark. Replies
//! are decoded incrementally ([`ReplyDecoder`]): `Content-Length` and
//! chunked framing both, fed in whatever fragments the socket returns, so
//! the client can timestamp the moment the first NDJSON line of a
//! streaming reply is complete.

use crate::clock;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest reply head the decoder accepts.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Largest single chunk or `Content-Length` body the decoder accepts.
const MAX_BODY_BYTES: usize = 256 * 1024 * 1024;
/// Socket read/write timeout: far above any request the workloads send.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A framing violation in a reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad reply framing: {}", self.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Head,
    Fixed(usize),
    ChunkSize,
    ChunkData(usize),
    ChunkEnd,
    Trailer,
    Done,
}

/// Incremental decoder for one HTTP/1.1 reply.
///
/// Bytes past the end of the reply stay buffered; [`ReplyDecoder::finish`]
/// hands them back for the next reply on the same connection.
#[derive(Debug)]
pub struct ReplyDecoder {
    state: State,
    buf: Vec<u8>,
    /// Offset of the first unprocessed byte in `buf`.
    at: usize,
    status: u16,
    close: bool,
    body: Vec<u8>,
    body_has_newline: bool,
}

impl Default for ReplyDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplyDecoder {
    /// A decoder awaiting a reply head.
    pub fn new() -> Self {
        ReplyDecoder {
            state: State::Head,
            buf: Vec::new(),
            at: 0,
            status: 0,
            close: false,
            body: Vec::new(),
            body_has_newline: false,
        }
    }

    /// Appends `bytes` and decodes as far as they allow.
    ///
    /// # Errors
    ///
    /// A malformed or oversized head, chunk-size line or chunk terminator.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        self.buf.extend_from_slice(bytes);
        while self.step()? {}
        if self.at > 0 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        Ok(())
    }

    /// Whether the whole reply has arrived.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Whether the first body line is complete: the body holds a newline,
    /// or the reply has ended.
    pub fn first_line_done(&self) -> bool {
        self.body_has_newline || self.is_done()
    }

    /// The status code (0 until the head has arrived).
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Whether the server announced `Connection: close`.
    pub fn close(&self) -> bool {
        self.close
    }

    /// Consumes the decoder, returning the decoded body and any bytes
    /// received past the end of the reply.
    pub fn finish(mut self) -> (Vec<u8>, Vec<u8>) {
        let leftover = self.buf.split_off(self.at);
        (self.body, leftover)
    }

    fn pending(&self) -> &[u8] {
        self.buf.get(self.at..).unwrap_or_default()
    }

    fn line_end(&self) -> Option<usize> {
        self.pending().windows(2).position(|w| w == b"\r\n")
    }

    fn take_body(&mut self, want: usize) -> usize {
        let n = want.min(self.pending().len());
        let part = &self.buf[self.at..self.at + n];
        self.body_has_newline |= part.contains(&b'\n');
        self.body.extend_from_slice(part);
        self.at += n;
        n
    }

    /// One state transition; `Ok(false)` when more bytes are needed.
    fn step(&mut self) -> Result<bool, DecodeError> {
        match self.state {
            State::Done => Ok(false),
            State::Head => {
                let Some(end) = self.pending().windows(4).position(|w| w == b"\r\n\r\n") else {
                    if self.pending().len() > MAX_HEAD_BYTES {
                        return Err(DecodeError("head too large".into()));
                    }
                    return Ok(false);
                };
                let head = std::str::from_utf8(&self.buf[self.at..self.at + end])
                    .map_err(|_| DecodeError("head is not UTF-8".into()))?
                    .to_owned();
                self.at += end + 4;
                self.state = self.parse_head(&head)?;
                Ok(true)
            }
            State::Fixed(rem) => {
                let got = self.take_body(rem);
                self.state = if got == rem {
                    State::Done
                } else {
                    State::Fixed(rem - got)
                };
                Ok(got == rem)
            }
            State::ChunkSize => {
                let Some(end) = self.line_end() else {
                    return Ok(false);
                };
                let line = &self.buf[self.at..self.at + end];
                let digits = line.split(|&b| b == b';').next().unwrap_or_default();
                let size = std::str::from_utf8(digits)
                    .ok()
                    .and_then(|d| usize::from_str_radix(d.trim(), 16).ok())
                    .filter(|&n| n <= MAX_BODY_BYTES)
                    .ok_or_else(|| DecodeError("bad chunk size".into()))?;
                self.at += end + 2;
                self.state = if size == 0 {
                    State::Trailer
                } else {
                    State::ChunkData(size)
                };
                Ok(true)
            }
            State::ChunkData(rem) => {
                let got = self.take_body(rem);
                self.state = if got == rem {
                    State::ChunkEnd
                } else {
                    State::ChunkData(rem - got)
                };
                Ok(got == rem)
            }
            State::ChunkEnd => {
                if self.pending().len() < 2 {
                    return Ok(false);
                }
                if self.pending().get(..2) != Some(b"\r\n") {
                    return Err(DecodeError("chunk not followed by CRLF".into()));
                }
                self.at += 2;
                self.state = State::ChunkSize;
                Ok(true)
            }
            State::Trailer => {
                let Some(end) = self.line_end() else {
                    return Ok(false);
                };
                self.at += end + 2;
                if end == 0 {
                    self.state = State::Done;
                }
                Ok(true)
            }
        }
    }

    fn parse_head(&mut self, head: &str) -> Result<State, DecodeError> {
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or_default();
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(DecodeError(format!("bad status line {status_line:?}")));
        }
        self.status = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| DecodeError(format!("bad status line {status_line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(DecodeError(format!("bad header {line:?}")));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n <= MAX_BODY_BYTES)
                        .ok_or_else(|| DecodeError(format!("bad content-length {value:?}")))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                self.close = value.eq_ignore_ascii_case("close");
            }
        }
        match (chunked, length) {
            (true, _) => Ok(State::ChunkSize),
            (false, Some(0)) => Ok(State::Done),
            (false, Some(n)) => Ok(State::Fixed(n)),
            (false, None) => Err(DecodeError("reply carries no framing".into())),
        }
    }
}

/// Renders one request. A `None` body sends no `Content-Length`.
pub fn render_request(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: dg-benchmark\r\n");
    if let Some(body) = body {
        out.push_str("Content-Type: application/json\r\n");
        out.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    } else {
        out.push_str("\r\n");
    }
    out.into_bytes()
}

/// One completed request/reply exchange.
#[derive(Debug)]
pub struct Exchange {
    /// Reply status.
    pub status: u16,
    /// Decoded reply body.
    pub body: Vec<u8>,
    /// When the request's first byte was written.
    pub sent: Instant,
    /// When the first body line (or the whole reply) had arrived.
    pub first_line: Instant,
    /// When the whole reply had arrived.
    pub done: Instant,
}

/// One keep-alive connection, reopened when the server closes it.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    leftover: Vec<u8>,
}

impl Conn {
    /// A connection to `addr`; the socket opens on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            leftover: Vec::new(),
        }
    }

    /// Opens the socket now, so a timed request does not pay for it.
    ///
    /// # Errors
    ///
    /// Connect or socket-option failures.
    pub fn connect(&mut self) -> io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(stream);
            self.leftover.clear();
        }
        Ok(())
    }

    /// Sends one rendered request and reads its reply. A reused socket
    /// that the server closed before answering is reopened and the
    /// request sent once more (every benchmark request is idempotent).
    ///
    /// # Errors
    ///
    /// Transport failures and malformed replies.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Exchange> {
        let reused = self.stream.is_some();
        match self.try_send(request) {
            Err((_, false)) if reused => self.try_send(request).map_err(|(e, _)| e),
            other => other.map_err(|(e, _)| e),
        }
    }

    /// One attempt; the error carries whether any reply byte arrived.
    fn try_send(&mut self, request: &[u8]) -> Result<Exchange, (io::Error, bool)> {
        let sent = clock::now();
        self.connect().map_err(|e| (e, false))?;
        let result = self.exchange(request, sent);
        let keep = matches!(&result, Ok((_, false)));
        if !keep {
            self.stream = None;
        }
        result.map(|(exchange, _)| exchange)
    }

    /// Writes the request and decodes the reply; `Ok` carries whether the
    /// server is closing the connection.
    fn exchange(
        &mut self,
        request: &[u8],
        sent: Instant,
    ) -> Result<(Exchange, bool), (io::Error, bool)> {
        let Some(stream) = self.stream.as_mut() else {
            return Err((io::Error::other("not connected"), false));
        };
        stream.write_all(request).map_err(|e| (e, false))?;
        let mut decoder = ReplyDecoder::new();
        let mut got_bytes = !self.leftover.is_empty();
        decoder
            .feed(&std::mem::take(&mut self.leftover))
            .map_err(|e| (io::Error::other(e.to_string()), true))?;
        let mut first_line = None;
        let mut chunk = vec![0u8; 64 * 1024];
        while !decoder.is_done() {
            if first_line.is_none() && decoder.first_line_done() {
                first_line = Some(clock::now());
            }
            let n = stream.read(&mut chunk).map_err(|e| (e, got_bytes))?;
            if n == 0 {
                return Err((
                    io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-reply"),
                    got_bytes,
                ));
            }
            got_bytes = true;
            decoder
                .feed(&chunk[..n])
                .map_err(|e| (io::Error::other(e.to_string()), true))?;
        }
        let done = clock::now();
        let status = decoder.status();
        let close = decoder.close();
        let (body, leftover) = decoder.finish();
        self.leftover = leftover;
        Ok((
            Exchange {
                status,
                body,
                sent,
                first_line: first_line.unwrap_or(done),
                done,
            },
            close,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunked(parts: &[&str]) -> Vec<u8> {
        let mut out =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"
                .to_vec();
        for p in parts {
            out.extend_from_slice(format!("{:x}\r\n{p}\r\n", p.len()).as_bytes());
        }
        out.extend_from_slice(b"0\r\n\r\n");
        out
    }

    fn fixed(body: &str, close: bool) -> Vec<u8> {
        let conn = if close { "Connection: close\r\n" } else { "" };
        format!(
            "HTTP/1.1 503 Service Unavailable\r\ncontent-length: {}\r\n{conn}Retry-After: 1\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// Decodes `bytes` fed as two fragments split at `split`, returning
    /// `(status, close, body, first_line_done after the first fragment)`.
    fn decode_split(bytes: &[u8], split: usize) -> (u16, bool, Vec<u8>, bool, Vec<u8>) {
        let mut d = ReplyDecoder::new();
        d.feed(&bytes[..split]).expect("first fragment decodes");
        let early = d.first_line_done();
        d.feed(&bytes[split..]).expect("second fragment decodes");
        assert!(d.is_done(), "reply incomplete after all bytes");
        let (status, close) = (d.status(), d.close());
        let (body, leftover) = d.finish();
        (status, close, body, early, leftover)
    }

    #[test]
    fn every_split_point_decodes_identically() {
        let streaming = chunked(&[
            "{\"completed\":32,\"total\":64}\n",
            "{\"completed\":64,\"total\":64}\n",
            "{\"ok\":true,\"result\":{}}",
        ]);
        let plain = fixed("{\"ok\":false}", true);
        let first_line_end = streaming
            .windows(2)
            .position(|w| w == b"}\n")
            .expect("first line present")
            + 2;
        for bytes in [&streaming, &plain] {
            let whole = decode_split(bytes, bytes.len());
            for split in 0..=bytes.len() {
                let got = decode_split(bytes, split);
                assert_eq!(
                    (got.0, got.1, &got.2, &got.4),
                    (whole.0, whole.1, &whole.2, &whole.4),
                    "split at {split}"
                );
                if bytes == &streaming {
                    assert_eq!(
                        got.3,
                        split >= first_line_end,
                        "first line at split {split}"
                    );
                }
            }
        }
        let (status, close, body, _, _) = decode_split(&streaming, 0);
        assert_eq!((status, close), (200, false));
        assert_eq!(
            String::from_utf8(body).expect("utf-8"),
            "{\"completed\":32,\"total\":64}\n{\"completed\":64,\"total\":64}\n{\"ok\":true,\"result\":{}}"
        );
        let (status, close, body, early, _) = decode_split(&plain, 0);
        assert_eq!(
            (status, close, body.as_slice()),
            (503, true, &b"{\"ok\":false}"[..])
        );
        assert!(!early, "nothing decoded before any byte arrives");
    }

    #[test]
    fn byte_at_a_time_keeps_the_next_reply_buffered() {
        let mut two = fixed("{\"a\":1}", false);
        let second = chunked(&["x\n"]);
        two.extend_from_slice(&second);
        let mut d = ReplyDecoder::new();
        let mut fed = 0;
        while !d.is_done() {
            d.feed(&two[fed..=fed]).expect("decodes");
            fed += 1;
        }
        let (body, leftover) = d.finish();
        assert_eq!(body, b"{\"a\":1}");
        assert!(leftover.is_empty(), "nothing fed past the first reply yet");
        let mut next = ReplyDecoder::new();
        next.feed(&two[fed..]).expect("decodes");
        assert!(next.is_done());
        assert_eq!(next.finish().0, b"x\n");
    }

    #[test]
    fn malformed_framing_is_rejected() {
        for bad in [
            &b"HTTP/2 200 OK\r\n\r\n"[..],
            b"HTTP/1.1 abc OK\r\nContent-Length: 1\r\n\r\nx",
            b"HTTP/1.1 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nxyz",
        ] {
            assert!(ReplyDecoder::new().feed(bad).is_err(), "{bad:?} accepted");
        }
    }
}
