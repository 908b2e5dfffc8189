//! A minimal std-only HTTP client and deterministic load generator.
//!
//! Powers the `dg-load` binary and the integration smoke tests. The mix
//! generator is seeded (its own LCG, no wall-clock entropy), so a given
//! `(seed, n)` always produces the same request sequence — which is what
//! makes `BENCH_serve.json` comparable across runs and the CI smoke step
//! reproducible.

use crate::http::{chunked_body_end, decode_chunked, head_end, read_reply};
use crate::json::{obj, Json};
use crate::metrics::monotonic_us;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// Status code from the status line.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body as text.
    pub body: String,
}

impl HttpReply {
    /// The first header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Issues one request on a fresh connection (`Connection: close`).
///
/// # Errors
///
/// Any socket failure, or a response that is not parseable HTTP/1.1.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpReply> {
    let payload = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: dg-serve\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    raw_request(addr, raw.as_bytes())
}

/// Writes `raw` bytes verbatim and parses whatever comes back — the escape
/// hatch the malformed-framing probes use.
///
/// # Errors
///
/// Any socket failure, or an unparseable response.
pub fn raw_request(addr: SocketAddr, raw: &[u8]) -> std::io::Result<HttpReply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(raw)?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes)?;
    parse_reply(&bytes)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "unparseable reply"))
}

/// Why a request failed, and whether retrying can help.
///
/// The split drives the retry loop in [`request_with_retries`]: transport
/// faults where the server plausibly never processed the request
/// (connect refused/reset, truncated response) are [`Retryable`];
/// complete-but-garbled replies are [`Fatal`] because a retry would just
/// reproduce the same server-side bug; and [`DeadlineExpired`] reports
/// that the per-request wall-clock budget ran out, however many attempts
/// were made.
///
/// [`Retryable`]: ClientError::Retryable
/// [`Fatal`]: ClientError::Fatal
/// [`DeadlineExpired`]: ClientError::DeadlineExpired
#[derive(Debug)]
pub enum ClientError {
    /// A transport fault another attempt may clear.
    Retryable(std::io::Error),
    /// A fault no retry will fix (e.g. a complete but unparseable reply).
    Fatal(std::io::Error),
    /// The per-request deadline expired before any attempt succeeded.
    DeadlineExpired {
        /// Wall time spent on the request, µs.
        elapsed_us: u64,
        /// Attempts started before the budget ran out.
        attempts: u32,
    },
}

impl ClientError {
    /// Whether another attempt could plausibly succeed (with budget left).
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Retryable(_))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Retryable(e) => write!(f, "retryable transport fault: {e}"),
            ClientError::Fatal(e) => write!(f, "fatal client error: {e}"),
            ClientError::DeadlineExpired {
                elapsed_us,
                attempts,
            } => write!(
                f,
                "request deadline expired after {elapsed_us} us and {attempts} attempt(s)"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

/// Whether an I/O failure of this kind is worth another attempt.
///
/// Refused/reset/aborted connects, broken pipes, timeouts, and truncated
/// responses all describe a server that may simply have been busy or
/// mid-restart; everything else (notably `InvalidData`) is treated as
/// permanent.
pub fn is_retryable_kind(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind;
    matches!(
        kind,
        ErrorKind::ConnectionRefused
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::NotConnected
            | ErrorKind::BrokenPipe
            | ErrorKind::TimedOut
            | ErrorKind::WouldBlock
            | ErrorKind::UnexpectedEof
            | ErrorKind::Interrupted
    )
}

/// Per-request robustness knobs for [`http_request_with`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries); clamped to at least 1.
    pub max_attempts: u32,
    /// First retry's nominal backoff, µs (doubles per retry).
    pub base_backoff_us: u64,
    /// Cap on any single nominal backoff, µs.
    pub max_backoff_us: u64,
    /// Wall-clock budget for the whole request — connect, write, full
    /// response read, and every backoff pause — in µs.
    pub deadline_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 5_000,
            max_backoff_us: 100_000,
            deadline_us: 10_000_000,
        }
    }
}

/// The deterministic backoff pauses (µs) a `(policy, seed)` pair produces:
/// one entry per possible retry, exponentially growing and capped, with
/// "equal jitter" — half the nominal value fixed plus a seeded-uniform
/// half — so concurrent clients spread out without wall-clock entropy.
#[must_use]
pub fn backoff_schedule(policy: &RetryPolicy, seed: u64) -> Vec<u64> {
    let mut rng = Lcg::new(seed);
    let base = policy.base_backoff_us.max(1);
    let cap = policy.max_backoff_us.max(base);
    (0..policy.max_attempts.saturating_sub(1))
        .map(|k| {
            let nominal = base.checked_shl(k).unwrap_or(u64::MAX).min(cap);
            nominal / 2 + rng.below(nominal / 2 + 1)
        })
        .collect()
}

/// The pause (µs) before retry number `attempt` (0-based).
///
/// Attempts past the end of the schedule reuse its final — largest,
/// capped — pause instead of falling back to zero: a fallback of 0 would
/// turn any overrun into a busy retry loop hammering a server that is
/// by then demonstrably struggling.
fn backoff_pause(schedule: &[u64], attempt: usize) -> u64 {
    schedule
        .get(attempt)
        .or_else(|| schedule.last())
        .copied()
        .unwrap_or(0)
}

/// Converts a µs budget into a socket-timeout duration (never zero,
/// because a zero `Duration` is rejected by `set_read_timeout`).
fn us_timeout(us: u64) -> Duration {
    Duration::from_micros(us.max(1))
}

/// One deadline-bounded request attempt on a fresh connection.
///
/// The deadline applies to the connect, the write, and *every* read of
/// the response — a server that stalls mid-body fails the attempt with
/// `TimedOut` when the budget runs out, rather than hanging for the
/// 30-second defaults of [`raw_request`].
fn attempt_once(addr: SocketAddr, raw: &[u8], deadline_us: u64) -> std::io::Result<HttpReply> {
    use std::io::{Error, ErrorKind};
    let remaining = deadline_us.saturating_sub(monotonic_us());
    if remaining == 0 {
        return Err(Error::new(ErrorKind::TimedOut, "deadline expired"));
    }
    let mut stream = TcpStream::connect_timeout(&addr, us_timeout(remaining))?;
    let remaining = deadline_us.saturating_sub(monotonic_us());
    if remaining == 0 {
        return Err(Error::new(
            ErrorKind::TimedOut,
            "deadline expired after connect",
        ));
    }
    stream.set_write_timeout(Some(us_timeout(remaining)))?;
    stream.write_all(raw)?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let now = monotonic_us();
        if now >= deadline_us {
            return Err(Error::new(
                ErrorKind::TimedOut,
                "deadline expired mid-response",
            ));
        }
        stream.set_read_timeout(Some(us_timeout(deadline_us - now)))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => bytes.extend_from_slice(chunk.get(..n).unwrap_or_default()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(Error::new(
                    ErrorKind::TimedOut,
                    "deadline expired mid-response",
                ));
            }
            Err(e) => return Err(e),
        }
    }
    match parse_reply(&bytes) {
        Some(reply) => Ok(reply),
        // Nothing (or a truncated head) came back: the server closed
        // early, which a retry may well fix. A complete head over a
        // chunked stream whose terminal chunk never arrived is the same
        // kind of truncation, just later in the response. A complete head
        // that still does not parse is a server bug a retry will only
        // reproduce.
        None if !bytes.windows(4).any(|w| w == b"\r\n\r\n") => Err(Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed before a complete response",
        )),
        None if is_truncated_chunked(&bytes) => Err(Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed mid chunked stream",
        )),
        None => Err(Error::new(ErrorKind::InvalidData, "unparseable reply")),
    }
}

/// Whether `bytes` is a complete response head declaring a chunked body
/// whose terminal chunk never arrived — a stream cut mid-flight, not a
/// framing bug. [`attempt_once`] classifies this as `UnexpectedEof`
/// (retryable) rather than `InvalidData`: the leftover chunk bytes may
/// even decode to an empty or partial payload, but the truncation is the
/// server dying, which a retry may well fix.
fn is_truncated_chunked(bytes: &[u8]) -> bool {
    let Some(head_len) = head_end(bytes) else {
        return false;
    };
    let head = String::from_utf8_lossy(bytes.get(..head_len).unwrap_or_default()).into_owned();
    let headers: Vec<(String, String)> = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    is_chunked(&headers) && chunked_body_end(bytes.get(head_len..).unwrap_or_default()).is_none()
}

/// Issues `raw` with retries, deterministic jittered backoff, and a hard
/// per-request deadline, per `policy`. The retry pauses come from
/// [`backoff_schedule`]`(policy, seed)`, so a given `(policy, seed)`
/// always retries on the same schedule.
///
/// # Errors
///
/// [`ClientError::Fatal`] immediately on non-retryable faults,
/// [`ClientError::Retryable`] once attempts are exhausted, and
/// [`ClientError::DeadlineExpired`] when the budget runs out first.
pub fn request_with_retries(
    addr: SocketAddr,
    raw: &[u8],
    policy: &RetryPolicy,
    seed: u64,
) -> Result<HttpReply, ClientError> {
    let start = monotonic_us();
    let deadline = start.saturating_add(policy.deadline_us.max(1));
    let schedule = backoff_schedule(policy, seed);
    let attempts = policy.max_attempts.max(1);
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..attempts {
        if monotonic_us() >= deadline {
            return Err(ClientError::DeadlineExpired {
                elapsed_us: monotonic_us().saturating_sub(start),
                attempts: attempt,
            });
        }
        match attempt_once(addr, raw, deadline) {
            Ok(reply) => return Ok(reply),
            Err(e) => {
                if e.kind() == std::io::ErrorKind::TimedOut && monotonic_us() >= deadline {
                    return Err(ClientError::DeadlineExpired {
                        elapsed_us: monotonic_us().saturating_sub(start),
                        attempts: attempt + 1,
                    });
                }
                if !is_retryable_kind(e.kind()) {
                    return Err(ClientError::Fatal(e));
                }
                last = Some(e);
            }
        }
        if attempt + 1 < attempts {
            let pause = backoff_pause(&schedule, attempt as usize);
            if monotonic_us().saturating_add(pause) >= deadline {
                return Err(ClientError::DeadlineExpired {
                    elapsed_us: monotonic_us().saturating_sub(start),
                    attempts: attempt + 1,
                });
            }
            std::thread::sleep(Duration::from_micros(pause));
        }
    }
    match last {
        Some(e) => Err(ClientError::Retryable(e)),
        None => Err(ClientError::DeadlineExpired {
            elapsed_us: monotonic_us().saturating_sub(start),
            attempts,
        }),
    }
}

/// Like [`http_request`], but with the full robustness layer: per-request
/// deadline, bounded retries, deterministic backoff, and typed error
/// classification. This is what `dg-load` and the chaos driver use.
///
/// # Errors
///
/// See [`request_with_retries`].
pub fn http_request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
    seed: u64,
) -> Result<HttpReply, ClientError> {
    let payload = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: dg-serve\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    request_with_retries(addr, raw.as_bytes(), policy, seed)
}

/// Reads one HTTP/1.1 response from a persistent connection and parses
/// it, using (and refilling) `leftover` as the connection's read buffer
/// so bytes of a following response are preserved for the next call.
///
/// This is the keep-alive counterpart of `parse_reply`: where the
/// close-framed path can read to EOF, a persistent connection must stop
/// exactly where the reply ends, which [`read_reply`] finds.
/// [`KeepAliveClient`] reads every reply through it.
///
/// # Errors
///
/// Socket errors, a clean close before a complete response
/// (`UnexpectedEof`), or an unparseable reply (`InvalidData`).
pub fn read_framed_reply(
    stream: &mut TcpStream,
    leftover: &mut Vec<u8>,
) -> std::io::Result<HttpReply> {
    let reply = read_reply(stream, leftover)?;
    parse_reply(&reply.bytes)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "unparseable reply"))
}

/// A persistent HTTP/1.1 connection: requests are sent without
/// `Connection: close` and each response is framed by [`read_reply`], so
/// consecutive requests reuse one TCP connection.
///
/// The client reconnects lazily: a transport fault on a *reused*
/// connection (the server may simply have timed out the idle socket or
/// hit its per-connection request cap) is retried once on a fresh
/// connection before being reported.
#[derive(Debug)]
pub struct KeepAliveClient {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    leftover: Vec<u8>,
}

impl KeepAliveClient {
    /// A client for `addr` with a 30 s per-read socket timeout.
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_timeout(addr, Duration::from_secs(30))
    }

    /// A client for `addr` with an explicit socket timeout.
    pub fn with_timeout(addr: SocketAddr, timeout: Duration) -> Self {
        KeepAliveClient {
            addr,
            timeout,
            stream: None,
            leftover: Vec::new(),
        }
    }

    /// Ensures the connection is established (no-op when already up).
    ///
    /// # Errors
    ///
    /// Propagates connect / socket-option failures.
    pub fn connect(&mut self) -> std::io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.leftover.clear();
            self.stream = Some(stream);
        }
        Ok(())
    }

    /// Drops the connection; the next request reconnects.
    pub fn reset(&mut self) {
        self.stream = None;
        self.leftover.clear();
    }

    /// Issues one keep-alive request, retrying once on a fresh connection
    /// if a *reused* connection faults.
    ///
    /// # Errors
    ///
    /// Socket failures after the stale-connection retry, or an
    /// unparseable response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpReply> {
        let reused = self.stream.is_some();
        match self.request_once(method, path, body) {
            Ok(reply) => Ok(reply),
            Err(e) if reused && is_retryable_kind(e.kind()) => {
                self.reset();
                self.request_once(method, path, body)
            }
            Err(e) => {
                self.reset();
                Err(e)
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpReply> {
        self.connect()?;
        let payload = body.unwrap_or("");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: dg-serve\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        );
        let outcome = match self.stream.as_mut() {
            Some(stream) => stream
                .write_all(raw.as_bytes())
                .and_then(|()| read_framed_reply(stream, &mut self.leftover)),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "connect did not establish a stream",
            )),
        };
        match outcome {
            Ok(reply) => {
                // Honor the server's close decision (shed, drain, cap).
                if reply
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                {
                    self.reset();
                }
                Ok(reply)
            }
            Err(e) => {
                self.reset();
                Err(e)
            }
        }
    }
}

/// Whether a lowercased header list declares a chunked body.
fn is_chunked(headers: &[(String, String)]) -> bool {
    headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"))
}

fn parse_reply(bytes: &[u8]) -> Option<HttpReply> {
    let text = String::from_utf8_lossy(bytes);
    let (head, body) = match text.split_once("\r\n\r\n") {
        Some(pair) => pair,
        None => text.split_once("\n\n")?,
    };
    let mut lines = head.lines();
    let status_line = lines.next()?;
    let status: u16 = status_line.split(' ').nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    let body = if is_chunked(&headers) {
        // A streamed reply read to EOF: de-chunk so callers see the
        // NDJSON payload, not the chunk framing.
        let (payload, _) = decode_chunked(body.as_bytes())?;
        String::from_utf8_lossy(&payload).into_owned()
    } else {
        body.to_owned()
    };
    Some(HttpReply {
        status,
        headers,
        body,
    })
}

/// A deterministic linear-congruential generator (Knuth MMIX constants).
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1))
    }

    /// The next pseudo-random word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    /// A value in `[0, bound)` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// One request of the generated mix.
#[derive(Debug, Clone)]
enum MixItem {
    /// `(method, path, body, expected status)` of a well-formed request.
    /// The expectation is `None` when any success/shed outcome is fine,
    /// `Some(status)` for probes whose whole point is a specific rejection.
    Framed(&'static str, &'static str, String, Option<u16>),
    /// Raw bytes with intentionally broken framing; the expected status.
    Raw(Vec<u8>, u16),
}

/// Which slice of the probe population a run draws from.
///
/// The historical single mix interleaved well-formed traffic with
/// deliberately broken framing, which made the benchmark numbers measure
/// "valid work plus parser rejections" in one blur. The bench run now
/// uses [`Valid`] (every request is a well-formed computation or read)
/// and records a separate [`ErrorProbes`] pass; the smoke tests keep
/// [`Full`] so the rejection paths stay exercised under concurrency.
///
/// [`Valid`]: MixKind::Valid
/// [`ErrorProbes`]: MixKind::ErrorProbes
/// [`Full`]: MixKind::Full
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// Everything: valid traffic and error probes interleaved.
    Full,
    /// Only well-formed requests that expect success.
    Valid,
    /// Only the rejection probes (malformed, oversized, empty/huge batch).
    ErrorProbes,
}

fn droop_probe(rng: &mut Lcg) -> MixItem {
    // Four droop variants → heavy repetition across the burst.
    let to = 40 + 10 * rng.below(4);
    MixItem::Framed(
        "POST",
        "/v1/droop",
        format!("{{\"variant\":\"gated\",\"from_a\":10,\"to_a\":{to}}}"),
        None,
    )
}

fn sweep_probe(rng: &mut Lcg) -> MixItem {
    let variant = if rng.below(2) == 0 {
        "gated"
    } else {
        "bypassed"
    };
    MixItem::Framed(
        "POST",
        "/v1/sweep",
        format!("{{\"variant\":\"{variant}\",\"points\":128,\"decimate\":16}}"),
        None,
    )
}

fn product_spec_probe() -> MixItem {
    MixItem::Framed(
        "POST",
        "/v1/product",
        "{\"design\":\"desktop\",\"tdp_w\":91,\
         \"workload\":{\"kind\":\"spec\",\"benchmark\":\"444.namd\",\"mode\":\"base\"}}"
            .to_owned(),
        None,
    )
}

fn product_energy_probe() -> MixItem {
    MixItem::Framed(
        "POST",
        "/v1/product",
        "{\"design\":\"mobile\",\"tdp_w\":45,\
         \"workload\":{\"kind\":\"energy\",\"name\":\"energy-star\"}}"
            .to_owned(),
        None,
    )
}

fn valid_batch_probe(rng: &mut Lcg) -> MixItem {
    // A small valid batch (2–4 lanes from a fixed menu): few distinct
    // shapes → the coalescer and the batch kernel both see repetition.
    let lanes = 2 + rng.below(3);
    let steps: Vec<String> = (0..lanes)
        .map(|k| format!("{{\"from_a\":10,\"to_a\":{}}}", 40 + 10 * k))
        .collect();
    MixItem::Framed(
        "POST",
        "/v1/droop_batch",
        format!("{{\"variant\":\"gated\",\"steps\":[{}]}}", steps.join(",")),
        None,
    )
}

fn explore_probe(rng: &mut Lcg) -> MixItem {
    // A small 2x2 design-space sweep (8 points with two fuse modes):
    // streams chunked NDJSON, which the reply readers de-chunk. Two seeds
    // keep the response cache honest without splitting it per request.
    let seed = rng.below(2);
    MixItem::Framed(
        "POST",
        "/v1/explore",
        format!(
            "{{\"seed\":{seed},\"tech_nodes\":[45,22],\"tdp_w\":[45,91],\"big_perf\":[20],\
             \"small_perf\":[2],\"fraction_parallelism\":[0.9]}}"
        ),
        None,
    )
}

fn malformed_explore_probe() -> MixItem {
    // Well-framed HTTP around an unparseable spec document: the route
    // must 400 before any grid work.
    MixItem::Framed("POST", "/v1/explore", "{not a spec".to_owned(), Some(400))
}

fn oversized_explore_probe() -> MixItem {
    // A 32-value parallelism axis over the default Charm axes crosses to
    // 6*4*4*4*32*2 = 24576 points, past the serve tier's 20k cap: 413
    // before any evaluation.
    let fractions: Vec<String> = (0..32)
        .map(|i| format!("{:.6}", f64::from(i) / 32.0))
        .collect();
    MixItem::Framed(
        "POST",
        "/v1/explore",
        format!("{{\"fraction_parallelism\":[{}]}}", fractions.join(",")),
        Some(413),
    )
}

fn garbage_probe() -> MixItem {
    MixItem::Raw(b"THIS IS NOT HTTP\r\n\r\n".to_vec(), 400)
}

fn oversized_probe() -> MixItem {
    // Declares a body far beyond the server's cap: rejected with 413
    // before any body byte is transferred.
    MixItem::Raw(
        b"POST /v1/droop HTTP/1.1\r\nHost: x\r\nContent-Length: 10000000\r\n\r\n".to_vec(),
        413,
    )
}

fn empty_batch_probe() -> MixItem {
    // An empty batch is a client error, never a computation.
    MixItem::Framed(
        "POST",
        "/v1/droop_batch",
        "{\"steps\":[]}".to_owned(),
        Some(400),
    )
}

fn oversized_batch_probe() -> MixItem {
    // One lane beyond the admission limit: rejected with 400 before any
    // lane is integrated.
    let steps = vec!["{\"from_a\":10,\"to_a\":40}"; 257];
    MixItem::Framed(
        "POST",
        "/v1/droop_batch",
        format!("{{\"steps\":[{}]}}", steps.join(",")),
        Some(400),
    )
}

fn droop_sweep_probe(rng: &mut Lcg) -> MixItem {
    // A small delta grid (2 or 3 lanes from two fixed shapes): streams
    // chunked NDJSON waves like explore, with enough repetition that the
    // coalescer and response cache both see the route. Kept tiny on
    // purpose — each lane is a full transient capture, and the smoke
    // server is deliberately starved (2 workers, queue of 4), so a fat
    // grid would turn the whole burst into a shed storm.
    let points = 2 + rng.below(2);
    MixItem::Framed(
        "POST",
        "/v1/droop_sweep",
        format!(
            "{{\"variant\":\"gated\",\"quiescent_a\":10,\
             \"delta\":{{\"start_a\":20,\"stop_a\":40,\"points\":{points}}}}}"
        ),
        None,
    )
}

fn oversized_sweep_probe() -> MixItem {
    // One grid point past the population cap: rejected with 400 before
    // any lane is expanded or integrated.
    MixItem::Framed(
        "POST",
        "/v1/droop_sweep",
        "{\"delta\":{\"start_a\":1,\"stop_a\":50,\"points\":8193}}".to_owned(),
        Some(400),
    )
}

/// The deterministic next request of the seeded mix for `kind`.
///
/// The mixes lean on repetition on purpose: repeated identical droops and
/// sweeps exercise the substrate caches, the response cache, and the
/// coalescer; the malformed and oversized entries exercise the parser's
/// rejection paths; the batch probes (valid, empty, oversized) exercise
/// the lockstep transient kernel and its admission limits.
fn mix_item_of(rng: &mut Lcg, kind: MixKind) -> MixItem {
    match kind {
        MixKind::Full => match rng.below(24) {
            0 | 1 => MixItem::Framed("GET", "/healthz", String::new(), None),
            2 => MixItem::Framed("GET", "/v1/claims", String::new(), None),
            3..=6 => droop_probe(rng),
            7..=9 => sweep_probe(rng),
            10 | 11 => product_spec_probe(),
            12 => product_energy_probe(),
            13 => MixItem::Framed("GET", "/metrics", String::new(), None),
            14 => garbage_probe(),
            15 => oversized_probe(),
            16 => valid_batch_probe(rng),
            17 => empty_batch_probe(),
            18 => oversized_batch_probe(),
            19 => explore_probe(rng),
            20 => malformed_explore_probe(),
            21 => oversized_explore_probe(),
            22 => droop_sweep_probe(rng),
            _ => oversized_sweep_probe(),
        },
        MixKind::Valid => match rng.below(17) {
            0 | 1 => MixItem::Framed("GET", "/healthz", String::new(), None),
            2 => MixItem::Framed("GET", "/v1/claims", String::new(), None),
            3..=6 => droop_probe(rng),
            7..=9 => sweep_probe(rng),
            10 | 11 => product_spec_probe(),
            12 => product_energy_probe(),
            13 => MixItem::Framed("GET", "/metrics", String::new(), None),
            14 => valid_batch_probe(rng),
            15 => explore_probe(rng),
            _ => droop_sweep_probe(rng),
        },
        MixKind::ErrorProbes => match rng.below(7) {
            0 => garbage_probe(),
            1 => oversized_probe(),
            2 => empty_batch_probe(),
            3 => oversized_batch_probe(),
            4 => malformed_explore_probe(),
            5 => oversized_explore_probe(),
            _ => oversized_sweep_probe(),
        },
    }
}

/// Aggregated results of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests attempted.
    pub requests: usize,
    /// 2xx responses.
    pub ok_2xx: usize,
    /// 4xx responses (the mix's malformed probes land here by design).
    pub err_4xx: usize,
    /// 503 sheds (admission control working as specified).
    pub shed_503: usize,
    /// 5xx responses other than 503 — the smoke gate requires **zero**.
    pub other_5xx: usize,
    /// Requests that failed at the transport layer.
    pub transport_errors: usize,
    /// Probes whose status differed from the expectation baked into the
    /// mix (e.g. a malformed frame that was *not* answered 400).
    pub expectation_failures: usize,
    /// Wall time of the whole run, µs.
    pub elapsed_us: u64,
    /// Per-request latencies, sorted ascending, µs.
    pub latencies_us: Vec<u64>,
}

impl LoadReport {
    /// The `q`-quantile latency in µs (0 with no samples).
    ///
    /// Nearest-rank: the smallest sample with at least a `q` fraction of
    /// the population at or below it — `rank = ceil(n·q)` clamped to
    /// `1..=n`, the same semantics as the server-side
    /// [`Histogram::quantile_upper_us`], so a client-reported p99 and the
    /// `/metrics` p99 describe the same order statistic. (The old
    /// `floor((n-1)·q)` index under-reported tail quantiles: with 50
    /// samples it called the 49th value "p99" when nearest-rank says the
    /// maximum.)
    ///
    /// [`Histogram::quantile_upper_us`]: crate::metrics::Histogram::quantile_upper_us
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.latencies_us.len();
        if n == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = (((n as f64) * q.clamp(0.0, 1.0)).ceil() as usize).clamp(1, n);
        self.latencies_us.get(rank - 1).copied().unwrap_or(0)
    }

    /// Median latency, µs.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 99th-percentile latency, µs.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// Achieved request rate, requests per second.
    pub fn rps(&self) -> f64 {
        if self.elapsed_us == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            (self.requests as f64) * 1e6 / (self.elapsed_us as f64)
        }
    }

    /// The report as JSON (the `BENCH_serve.json` payload).
    pub fn to_json(&self) -> Json {
        #[allow(clippy::cast_precision_loss)]
        fn num(n: usize) -> Json {
            Json::Num(n as f64)
        }
        #[allow(clippy::cast_precision_loss)]
        fn num64(n: u64) -> Json {
            Json::Num(n as f64)
        }
        obj(vec![
            ("requests", num(self.requests)),
            ("ok_2xx", num(self.ok_2xx)),
            ("err_4xx", num(self.err_4xx)),
            ("shed_503", num(self.shed_503)),
            ("other_5xx", num(self.other_5xx)),
            ("transport_errors", num(self.transport_errors)),
            ("expectation_failures", num(self.expectation_failures)),
            ("elapsed_us", num64(self.elapsed_us)),
            ("rps", Json::Num(self.rps())),
            ("p50_us", num64(self.p50_us())),
            ("p99_us", num64(self.p99_us())),
        ])
    }

    fn absorb(&mut self, status: u16, expected: Option<u16>, latency_us: u64) {
        self.requests += 1;
        self.latencies_us.push(latency_us);
        match status {
            200..=299 => self.ok_2xx += 1,
            503 => self.shed_503 += 1,
            400..=499 => self.err_4xx += 1,
            _ => self.other_5xx += 1,
        }
        // A shed (503) is an admission-level outcome and can pre-empt any
        // probe, so it never counts against a probe's expected status.
        if expected.is_some_and(|want| want != status && status != 503) {
            self.expectation_failures += 1;
        }
    }

    fn merge(&mut self, other: LoadReport) {
        self.requests += other.requests;
        self.ok_2xx += other.ok_2xx;
        self.err_4xx += other.err_4xx;
        self.shed_503 += other.shed_503;
        self.other_5xx += other.other_5xx;
        self.transport_errors += other.transport_errors;
        self.expectation_failures += other.expectation_failures;
        self.latencies_us.extend(other.latencies_us);
    }
}

/// Knobs for [`run_mix_with`].
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Total requests across all threads.
    pub n: usize,
    /// Mix seed; each thread derives a sub-seed.
    pub seed: u64,
    /// Client threads (clamped to `1..=256`).
    pub concurrency: usize,
    /// Which probe population to draw from.
    pub kind: MixKind,
    /// Reuse one connection per thread instead of one per request.
    pub keep_alive: bool,
}

/// Runs `n` requests of the seeded mix against `addr` from `concurrency`
/// client threads, and aggregates the outcome.
///
/// Each thread derives its own sub-seed from `seed`, so the union of
/// requests is deterministic for a given `(n, seed, concurrency)`.
/// Equivalent to [`run_mix_with`] with the full mix on fresh connections.
pub fn run_mix(addr: SocketAddr, n: usize, seed: u64, concurrency: usize) -> LoadReport {
    run_mix_with(
        addr,
        &RunOptions {
            n,
            seed,
            concurrency,
            kind: MixKind::Full,
            keep_alive: false,
        },
    )
}

/// The configurable load runner behind [`run_mix`] and `dg-load`.
///
/// Threads establish their keep-alive connections *before* a shared
/// barrier releases them, and the run clock starts at the barrier — so
/// `rps` measures request throughput, not connection setup. (Raw
/// malformed probes still open fresh connections mid-run by design:
/// broken framing on a shared connection would poison its successors.)
pub fn run_mix_with(addr: SocketAddr, opts: &RunOptions) -> LoadReport {
    let concurrency = opts.concurrency.clamp(1, 256);
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(concurrency + 1));
    let threads: Vec<_> = (0..concurrency)
        .map(|t| {
            let quota = opts.n / concurrency + usize::from(t < opts.n % concurrency);
            let sub_seed = opts
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(t as u64 + 1));
            let kind = opts.kind;
            let keep_alive = opts.keep_alive;
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = if keep_alive {
                    let mut c = KeepAliveClient::new(addr);
                    // dg-analyze: allow(swallowed-result, reason = "warm-up connect paid before the clock starts; a failure surfaces as an error on the first timed send")
                    let _ = c.connect();
                    Some(c)
                } else {
                    None
                };
                barrier.wait();
                let mut rng = Lcg::new(sub_seed);
                let mut report = LoadReport::default();
                for _ in 0..quota {
                    run_one(addr, &mut rng, &mut report, kind, client.as_mut());
                }
                report
            })
        })
        .collect();
    barrier.wait();
    let start = monotonic_us();
    let mut total = LoadReport::default();
    for t in threads {
        match t.join() {
            Ok(report) => total.merge(report),
            Err(_) => total.transport_errors += 1,
        }
    }
    total.elapsed_us = monotonic_us().saturating_sub(start);
    total.latencies_us.sort_unstable();
    total
}

/// The retry policy the load generator applies to its framed requests.
/// Every framed probe in the mix is an idempotent computation, so a
/// couple of quick retries on transport faults are safe; malformed raw
/// probes are sent exactly once (retrying a deliberately broken frame
/// would double-count the parser's rejection).
fn load_retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 2_000,
        max_backoff_us: 20_000,
        deadline_us: 30_000_000,
    }
}

fn run_one(
    addr: SocketAddr,
    rng: &mut Lcg,
    report: &mut LoadReport,
    kind: MixKind,
    client: Option<&mut KeepAliveClient>,
) {
    let item = mix_item_of(rng, kind);
    // Drawn unconditionally so the RNG stream (and thus the rest of the
    // mix) is identical whether or not a request ends up retrying.
    let retry_seed = rng.next_u64();
    let begin = monotonic_us();
    let outcome = match &item {
        MixItem::Framed(method, path, body, expect) => {
            let body = if body.is_empty() {
                None
            } else {
                Some(body.as_str())
            };
            match client {
                Some(ka) => ka
                    .request(method, path, body)
                    .map(|r| (r.status, *expect))
                    .map_err(ClientError::Retryable),
                None => {
                    http_request_with(addr, method, path, body, &load_retry_policy(), retry_seed)
                        .map(|r| (r.status, *expect))
                }
            }
        }
        MixItem::Raw(bytes, expect) => raw_request(addr, bytes)
            .map(|r| (r.status, Some(*expect)))
            .map_err(ClientError::Fatal),
    };
    let latency = monotonic_us().saturating_sub(begin);
    match outcome {
        Ok((status, expected)) => report.absorb(status, expected, latency),
        Err(_) => {
            report.requests += 1;
            report.transport_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic_and_varies() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w.first() != w.last()));
        assert!(Lcg::new(1).below(10) < 10);
        assert_eq!(Lcg::new(1).below(0), 0);
    }

    #[test]
    fn mix_is_deterministic_for_a_seed() {
        let seq = |seed| {
            let mut rng = Lcg::new(seed);
            (0..50)
                .map(|_| format!("{:?}", mix_item_of(&mut rng, MixKind::Full)))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }

    #[test]
    fn mix_covers_every_probe_kind() {
        let mut rng = Lcg::new(3);
        let items: Vec<MixItem> = (0..200)
            .map(|_| mix_item_of(&mut rng, MixKind::Full))
            .collect();
        let raws = items
            .iter()
            .filter(|i| matches!(i, MixItem::Raw(..)))
            .count();
        let framed = items.len() - raws;
        assert!(raws > 5, "mix must include malformed/oversized probes");
        assert!(framed > 100);
        for path in [
            "/healthz",
            "/v1/droop",
            "/v1/droop_batch",
            "/v1/sweep",
            "/v1/product",
            "/v1/claims",
            "/v1/explore",
            "/v1/droop_sweep",
        ] {
            assert!(
                items
                    .iter()
                    .any(|i| matches!(i, MixItem::Framed(_, p, _, _) if **p == *path)),
                "mix never hit {path}"
            );
        }
        // The batch probes cover the whole admission surface: a valid
        // batch, an empty one (400), and an oversized one (400).
        let batch_probes: Vec<(&String, Option<u16>)> = items
            .iter()
            .filter_map(|i| match i {
                MixItem::Framed(_, "/v1/droop_batch", body, expect) => Some((body, *expect)),
                _ => None,
            })
            .collect();
        assert!(
            batch_probes.iter().any(|(_, e)| e.is_none()),
            "no valid batch probe"
        );
        assert!(
            batch_probes
                .iter()
                .any(|(b, e)| *e == Some(400) && b.contains("\"steps\":[]")),
            "no empty-batch probe"
        );
        assert!(
            batch_probes
                .iter()
                .any(|(b, e)| *e == Some(400) && b.len() > 1000),
            "no oversized-batch probe"
        );
        // The explore probes cover its whole admission surface too:
        // a valid streamed sweep, a malformed spec (400), and a grid
        // past the point cap (413).
        let explore_probes: Vec<(&String, Option<u16>)> = items
            .iter()
            .filter_map(|i| match i {
                MixItem::Framed(_, "/v1/explore", body, expect) => Some((body, *expect)),
                _ => None,
            })
            .collect();
        assert!(
            explore_probes.iter().any(|(_, e)| e.is_none()),
            "no valid explore probe"
        );
        assert!(
            explore_probes.iter().any(|(_, e)| *e == Some(400)),
            "no malformed explore probe"
        );
        assert!(
            explore_probes.iter().any(|(_, e)| *e == Some(413)),
            "no oversized explore probe"
        );
        // And the droop-sweep probes: a valid streamed grid plus a grid
        // one point past the population cap (400).
        let sweep_probes: Vec<(&String, Option<u16>)> = items
            .iter()
            .filter_map(|i| match i {
                MixItem::Framed(_, "/v1/droop_sweep", body, expect) => Some((body, *expect)),
                _ => None,
            })
            .collect();
        assert!(
            sweep_probes.iter().any(|(_, e)| e.is_none()),
            "no valid droop-sweep probe"
        );
        assert!(
            sweep_probes
                .iter()
                .any(|(b, e)| *e == Some(400) && b.contains("8193")),
            "no oversized droop-sweep probe"
        );
    }

    #[test]
    fn valid_mix_is_error_free_and_error_mix_is_probes_only() {
        let mut rng = Lcg::new(5);
        for _ in 0..300 {
            match mix_item_of(&mut rng, MixKind::Valid) {
                MixItem::Raw(..) => panic!("valid mix must not contain raw probes"),
                MixItem::Framed(_, _, _, expect) => {
                    assert_eq!(expect, None, "valid mix must not expect rejections")
                }
            }
        }
        let mut rng = Lcg::new(5);
        let mut raws = 0;
        for _ in 0..100 {
            match mix_item_of(&mut rng, MixKind::ErrorProbes) {
                MixItem::Raw(..) => raws += 1,
                MixItem::Framed(_, _, _, expect) => {
                    assert!(expect.is_some(), "every error probe expects a status")
                }
            }
        }
        assert!(raws > 10, "error mix must include raw framing probes");
    }

    /// A one-connection server answering `n` framed requests, then EOF.
    fn framed_server(n: usize) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let mut accepted = 0;
            'outer: while accepted < n {
                let Ok((mut s, _)) = listener.accept() else {
                    break;
                };
                accepted += 1;
                loop {
                    // Requests in these tests are header-only GETs.
                    let mut head = Vec::new();
                    let mut byte = [0u8; 1];
                    loop {
                        match s.read(&mut byte) {
                            Ok(0) => continue 'outer,
                            Ok(_) => head.extend_from_slice(&byte),
                            Err(_) => continue 'outer,
                        }
                        if head.ends_with(b"\r\n\r\n") {
                            break;
                        }
                    }
                    if s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                        .is_err()
                    {
                        continue 'outer;
                    }
                }
            }
            accepted
        });
        (addr, handle)
    }

    #[test]
    fn keep_alive_client_reuses_one_connection() {
        let (addr, server) = framed_server(1);
        let mut client = KeepAliveClient::with_timeout(addr, Duration::from_secs(5));
        for _ in 0..3 {
            let reply = client.request("GET", "/healthz", None).expect("reply");
            assert_eq!(reply.status, 200);
            assert_eq!(reply.body, "ok");
        }
        drop(client); // EOF lets the server thread finish
        assert_eq!(server.join().expect("server"), 1, "one connection only");
    }

    #[test]
    fn keep_alive_client_recovers_from_a_server_side_close() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // First connection: one reply, then close (as the server's
            // per-connection request cap would). Second: one more reply.
            for _ in 0..2 {
                let Ok((mut s, _)) = listener.accept() else {
                    return;
                };
                let mut sink = [0u8; 2048];
                let _ = s.read(&mut sink);
                let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
            }
        });
        let mut client = KeepAliveClient::with_timeout(addr, Duration::from_secs(5));
        let a = client.request("GET", "/healthz", None).expect("first");
        // The server closed the first connection; the retry layer must
        // make this invisible.
        let b = client.request("GET", "/healthz", None).expect("second");
        assert_eq!((a.status, b.status), (200, 200));
        server.join().expect("server");
    }

    #[test]
    fn framed_reply_reader_preserves_pipelined_leftovers() {
        let (a, mut b) = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let conn = TcpStream::connect(addr).expect("connect");
            let (srv, _) = listener.accept().expect("accept");
            (conn, srv)
        };
        // Two back-to-back framed responses in one write.
        b.write_all(
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirstHTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 0\r\n\r\n",
        )
        .expect("write");
        let mut stream = a;
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut leftover = Vec::new();
        let first = read_framed_reply(&mut stream, &mut leftover).expect("first");
        assert_eq!((first.status, first.body.as_str()), (200, "first"));
        let second = read_framed_reply(&mut stream, &mut leftover).expect("second");
        assert_eq!(second.status, 503);
        assert_eq!(second.header("retry-after"), Some("2"));
        assert!(leftover.is_empty());
    }

    #[test]
    fn report_quantiles_and_rates() {
        let mut r = LoadReport {
            latencies_us: (1..=100).collect(),
            requests: 100,
            elapsed_us: 1_000_000,
            ..LoadReport::default()
        };
        r.latencies_us.sort_unstable();
        assert_eq!(r.p50_us(), 50);
        assert_eq!(r.p99_us(), 99);
        assert!((r.rps() - 100.0).abs() < 1e-9);
        assert_eq!(LoadReport::default().p99_us(), 0);
    }

    #[test]
    fn quantiles_use_nearest_rank_matching_the_server_histogram() {
        // Nearest-rank (rank = ceil(n·q), 1-based) on a small population,
        // where the old floor((n-1)·q) index visibly under-reported the
        // tail: with 50 samples, p99 is the maximum, not the 49th value.
        let r = LoadReport {
            latencies_us: (1..=50).collect(),
            requests: 50,
            ..LoadReport::default()
        };
        assert_eq!(r.quantile_us(0.0), 1, "q=0 is the minimum (rank 1)");
        assert_eq!(r.quantile_us(0.5), 25, "rank ceil(25.0) = 25");
        assert_eq!(r.quantile_us(0.99), 50, "rank ceil(49.5) = 50: the max");
        assert_eq!(r.quantile_us(1.0), 50, "q=1 is the maximum (rank n)");
        // Out-of-range q clamps rather than indexing out of bounds.
        assert_eq!(r.quantile_us(-3.0), 1);
        assert_eq!(r.quantile_us(7.0), 50);
        let one = LoadReport {
            latencies_us: vec![42],
            requests: 1,
            ..LoadReport::default()
        };
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile_us(q), 42, "a single sample is every quantile");
        }
    }

    #[test]
    fn backoff_pause_clamps_overruns_to_the_last_entry() {
        let schedule = [100, 200, 400];
        assert_eq!(backoff_pause(&schedule, 0), 100);
        assert_eq!(backoff_pause(&schedule, 2), 400);
        // Attempts past the schedule keep the final (capped) pause — a
        // zero fallback here would busy-retry a struggling server.
        assert_eq!(backoff_pause(&schedule, 3), 400);
        assert_eq!(backoff_pause(&schedule, 99), 400);
        assert_eq!(backoff_pause(&[], 0), 0, "no retries → no pause");
    }

    #[test]
    fn truncated_chunked_classifier_spots_cut_streams() {
        // Head + declared chunked body, terminal chunk never arrives.
        assert!(is_truncated_chunked(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel"
        ));
        // Same, with no body bytes at all after the head.
        assert!(is_truncated_chunked(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        ));
        // A complete chunked stream is not a truncation.
        assert!(!is_truncated_chunked(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n"
        ));
        // Content-Length framing and incomplete heads are other cases.
        assert!(!is_truncated_chunked(
            b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nshort"
        ));
        assert!(!is_truncated_chunked(b"HTTP/1.1 200 OK\r\nTransfer-"));
    }

    #[test]
    fn truncated_chunked_stream_is_retryable_not_fatal() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // First connection: a complete head, then the stream dies
            // mid-chunk. Second: the head alone, then the close. Both are
            // truncations the client must classify as retryable.
            for reply in [
                &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel"[..],
                &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
            ] {
                if let Ok((mut s, _)) = listener.accept() {
                    let mut sink = [0u8; 1024];
                    let _ = s.read(&mut sink);
                    let _ = s.write_all(reply);
                }
            }
        });
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff_us: 500,
            max_backoff_us: 1_000,
            deadline_us: 5_000_000,
        };
        let err = http_request_with(addr, "POST", "/v1/explore", Some("{}"), &policy, 23)
            .expect_err("a twice-truncated stream must fail");
        match err {
            ClientError::Retryable(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}");
            }
            other => panic!("expected Retryable(UnexpectedEof), got {other}"),
        }
        server.join().expect("server thread");
    }

    #[test]
    fn report_classifies_statuses() {
        let mut r = LoadReport::default();
        r.absorb(200, None, 10);
        r.absorb(400, Some(400), 10);
        r.absorb(413, Some(400), 10); // expectation miss
        r.absorb(503, None, 10);
        r.absorb(500, None, 10);
        assert_eq!((r.ok_2xx, r.err_4xx, r.shed_503, r.other_5xx), (1, 2, 1, 1));
        assert_eq!(r.expectation_failures, 1);
        let json = r.to_json().render();
        assert!(json.contains("\"other_5xx\":1"));
    }

    #[test]
    fn backoff_schedule_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff_us: 1_000,
            max_backoff_us: 8_000,
            deadline_us: 1_000_000,
        };
        let a = backoff_schedule(&policy, 7);
        let b = backoff_schedule(&policy, 7);
        assert_eq!(a, b, "same (policy, seed) must give the same schedule");
        assert_ne!(a, backoff_schedule(&policy, 8), "seed must vary jitter");
        assert_eq!(a.len(), 5, "one pause per retry");
        // Equal jitter around the exponential nominal value, capped.
        for (k, pause) in a.iter().enumerate() {
            let nominal = (1_000u64 << k).min(8_000);
            assert!(
                (nominal / 2..=nominal).contains(pause),
                "retry {k}: pause {pause} outside [{}, {nominal}]",
                nominal / 2
            );
        }
        assert!(backoff_schedule(&RetryPolicy::default(), 1).len() == 2);
        let single = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        assert!(backoff_schedule(&single, 1).is_empty());
    }

    #[test]
    fn error_kinds_classify_retryable_vs_fatal() {
        use std::io::ErrorKind;
        for kind in [
            ErrorKind::ConnectionRefused,
            ErrorKind::ConnectionReset,
            ErrorKind::BrokenPipe,
            ErrorKind::TimedOut,
            ErrorKind::UnexpectedEof,
        ] {
            assert!(is_retryable_kind(kind), "{kind:?} should be retryable");
        }
        for kind in [
            ErrorKind::InvalidData,
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidInput,
            ErrorKind::NotFound,
        ] {
            assert!(!is_retryable_kind(kind), "{kind:?} should be fatal");
        }
        let retryable = ClientError::Retryable(std::io::Error::new(ErrorKind::TimedOut, "stalled"));
        let fatal = ClientError::Fatal(std::io::Error::new(ErrorKind::InvalidData, "junk"));
        let expired = ClientError::DeadlineExpired {
            elapsed_us: 10,
            attempts: 2,
        };
        assert!(retryable.is_retryable());
        assert!(!fatal.is_retryable());
        assert!(!expired.is_retryable());
        assert!(format!("{expired}").contains("2 attempt(s)"));
    }

    #[test]
    fn deadline_expires_mid_body_as_deadline_expired() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                let mut sink = [0u8; 1024];
                let _ = s.read(&mut sink);
                // A partial status line, then a stall longer than the
                // client's whole budget: the response never completes.
                let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-");
                std::thread::sleep(Duration::from_millis(700));
            }
        });
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 1_000,
            max_backoff_us: 2_000,
            deadline_us: 250_000,
        };
        let err = http_request_with(addr, "GET", "/healthz", None, &policy, 9)
            .expect_err("stalled response must not succeed");
        assert!(
            matches!(err, ClientError::DeadlineExpired { .. }),
            "expected DeadlineExpired, got {err}"
        );
        server.join().expect("server thread");
    }

    #[test]
    fn transport_faults_retry_and_then_succeed() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // First connection: closed before a single response byte
            // (a retryable truncation). Second: a real reply.
            if let Ok((s, _)) = listener.accept() {
                drop(s);
            }
            if let Ok((mut s, _)) = listener.accept() {
                let mut sink = [0u8; 1024];
                let _ = s.read(&mut sink);
                let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
            }
        });
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 1_000,
            max_backoff_us: 2_000,
            deadline_us: 5_000_000,
        };
        let reply = http_request_with(addr, "GET", "/healthz", None, &policy, 11)
            .expect("second attempt must succeed");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, "ok");
        server.join().expect("server thread");
    }

    #[test]
    fn complete_garbage_reply_is_fatal_not_retried() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // Serve garbage on every connection; a retrying client would
            // need more than one accept to succeed, a fatal one just one.
            if let Ok((mut s, _)) = listener.accept() {
                let mut sink = [0u8; 1024];
                let _ = s.read(&mut sink);
                let _ = s.write_all(b"NOT HTTP AT ALL\r\n\r\nbody");
            }
        });
        let err = http_request_with(addr, "GET", "/healthz", None, &RetryPolicy::default(), 13)
            .expect_err("garbage must fail");
        assert!(
            matches!(err, ClientError::Fatal(_)),
            "expected Fatal, got {err}"
        );
        server.join().expect("server thread");
    }

    #[test]
    fn refused_connections_exhaust_retries_as_retryable() {
        // Bind then drop to learn a port that refuses connections.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff_us: 500,
            max_backoff_us: 1_000,
            deadline_us: 2_000_000,
        };
        let err = http_request_with(addr, "GET", "/healthz", None, &policy, 17)
            .expect_err("refused port must fail");
        assert!(
            matches!(err, ClientError::Retryable(_)),
            "expected Retryable after exhausting attempts, got {err}"
        );
    }

    #[test]
    fn reply_parser_reads_status_and_headers() {
        let reply = parse_reply(
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\nhi",
        )
        .expect("parse");
        assert_eq!(reply.status, 503);
        assert_eq!(reply.header("retry-after"), Some("1"));
        assert_eq!(reply.body, "hi");
    }
}
