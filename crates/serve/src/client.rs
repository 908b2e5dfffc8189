//! The serve tier's one client connection, its one-shot helpers and the
//! deterministic load generator.
//!
//! Every request a serve-crate client sends goes out on a [`Conn`]: the
//! router's upstream pool and health probe, the [`run_mix`] burst behind
//! `dg-load` and the smoke tests, and the one-shot helpers
//! [`http_request`] and [`raw_request`]. A `Conn` writes one request and
//! reads exactly one reply through [`read_reply`], so one framer reads
//! every reply. Nothing is retried except a fault on a reused keep-alive
//! socket, which the server may have closed while it sat idle; that one
//! is retried once on a fresh socket.
//!
//! The mix generator is seeded (its own LCG, no wall-clock entropy), so a
//! given `(seed, n)` always produces the same request sequence — which is
//! what makes the CI smoke step reproducible. Every framed probe carries
//! the exact status it must be answered with.
//! [`spawn_sibling`] starts a server binary next to the running
//! executable and reads the address it bound.

use crate::http::{decode_chunked, read_reply, RawReply};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The socket timeout of the one-shot helpers and the load burst.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

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

/// One client connection to a server: a socket with one timeout that
/// connects on first use.
///
/// [`Conn::exchange`] writes one request and reads exactly one reply
/// through [`read_reply`]. The socket is dropped after a
/// `Connection: close` reply or after any error, so the next exchange
/// connects afresh. A fault on a *reused* socket is retried once on a
/// fresh one, because the server may have closed it idle or at its
/// per-connection request cap. A fault on a fresh socket is returned the
/// first time it happens.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    /// Bytes read past the last reply, kept for the next one.
    leftover: Vec<u8>,
}

impl Conn {
    /// A connection to `addr` that connects on first use. `timeout`
    /// bounds the connect and every read and write.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Conn {
            addr,
            timeout,
            stream: None,
            leftover: Vec::new(),
        }
    }

    /// Writes `raw` and reads exactly one reply, returning its exact
    /// bytes with its status and `Connection: close` verdict.
    ///
    /// # Errors
    ///
    /// Connect and socket errors (a timeout is `WouldBlock` or
    /// `TimedOut`), a close before the reply is complete
    /// (`UnexpectedEof`), or a reply that is not HTTP (`InvalidData`).
    pub fn exchange(&mut self, raw: &[u8]) -> std::io::Result<RawReply> {
        let reused = self.stream.is_some();
        match self.exchange_once(raw) {
            Err(_) if reused => self.exchange_once(raw),
            outcome => outcome,
        }
    }

    fn exchange_once(&mut self, raw: &[u8]) -> std::io::Result<RawReply> {
        let mut stream = match self.stream.take() {
            Some(stream) => stream,
            None => {
                self.leftover.clear();
                let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
                stream.set_read_timeout(Some(self.timeout))?;
                stream.set_write_timeout(Some(self.timeout))?;
                stream.set_nodelay(true)?;
                stream
            }
        };
        stream.write_all(raw)?;
        let reply = read_reply(&mut stream, &mut self.leftover)?;
        if !reply.close {
            self.stream = Some(stream);
        }
        Ok(reply)
    }
}

/// Renders a request with `Host` and `Content-Length`, and
/// `Connection: close` when `close` is set.
fn render_request(method: &str, path: &str, body: &str, close: bool) -> String {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: dg-serve\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    )
}

/// Issues one request on a fresh connection (`Connection: close`).
///
/// # Errors
///
/// See [`raw_request`].
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpReply> {
    let raw = render_request(method, path, body.unwrap_or(""), true);
    raw_request(addr, raw.as_bytes())
}

/// Writes `raw` bytes verbatim on a fresh [`Conn`] and parses the one
/// reply that comes back — the escape hatch the malformed-framing probes
/// use.
///
/// # Errors
///
/// Any [`Conn::exchange`] error, or a reply whose head does not parse
/// (`InvalidData`).
pub fn raw_request(addr: SocketAddr, raw: &[u8]) -> std::io::Result<HttpReply> {
    let reply = Conn::new(addr, CLIENT_TIMEOUT).exchange(raw)?;
    parse_reply(&reply.bytes)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "unparseable reply"))
}

fn parse_reply(bytes: &[u8]) -> Option<HttpReply> {
    let text = String::from_utf8_lossy(bytes);
    let (head, body) = text.split_once("\r\n\r\n")?;
    let mut lines = head.lines();
    let status_line = lines.next()?;
    let status: u16 = status_line.split(' ').nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        // A streamed reply: de-chunk so callers see the NDJSON payload,
        // not the chunk framing.
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
    /// `(method, path, body, expected status)` of a well-formed request:
    /// 200 for valid traffic, the exact rejection for an error probe.
    Framed(&'static str, &'static str, String, u16),
    /// Raw bytes with intentionally broken framing; the expected status.
    Raw(Vec<u8>, u16),
}

fn droop_probe(rng: &mut Lcg) -> MixItem {
    // Four droop variants → heavy repetition across the burst.
    let to = 40 + 10 * rng.below(4);
    MixItem::Framed(
        "POST",
        "/v1/droop",
        format!("{{\"variant\":\"gated\",\"from_a\":10,\"to_a\":{to}}}"),
        200,
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
        200,
    )
}

fn product_spec_probe() -> MixItem {
    MixItem::Framed(
        "POST",
        "/v1/product",
        "{\"design\":\"desktop\",\"tdp_w\":91,\
         \"workload\":{\"kind\":\"spec\",\"benchmark\":\"444.namd\",\"mode\":\"base\"}}"
            .to_owned(),
        200,
    )
}

fn product_energy_probe() -> MixItem {
    MixItem::Framed(
        "POST",
        "/v1/product",
        "{\"design\":\"mobile\",\"tdp_w\":45,\
         \"workload\":{\"kind\":\"energy\",\"name\":\"energy-star\"}}"
            .to_owned(),
        200,
    )
}

fn valid_batch_probe(rng: &mut Lcg) -> MixItem {
    // A small valid batch (2–4 lanes from a fixed menu): few distinct
    // shapes → the response cache and the batch kernel both see repetition.
    let lanes = 2 + rng.below(3);
    let steps: Vec<String> = (0..lanes)
        .map(|k| format!("{{\"from_a\":10,\"to_a\":{}}}", 40 + 10 * k))
        .collect();
    MixItem::Framed(
        "POST",
        "/v1/droop_batch",
        format!("{{\"variant\":\"gated\",\"steps\":[{}]}}", steps.join(",")),
        200,
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
        200,
    )
}

fn malformed_explore_probe() -> MixItem {
    // Well-framed HTTP around an unparseable spec document: the route
    // must 400 before any grid work.
    MixItem::Framed("POST", "/v1/explore", "{not a spec".to_owned(), 400)
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
        413,
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
    MixItem::Framed("POST", "/v1/droop_batch", "{\"steps\":[]}".to_owned(), 400)
}

fn oversized_batch_probe() -> MixItem {
    // One lane beyond the admission limit: rejected with 400 before any
    // lane is integrated.
    let steps = vec!["{\"from_a\":10,\"to_a\":40}"; 257];
    MixItem::Framed(
        "POST",
        "/v1/droop_batch",
        format!("{{\"steps\":[{}]}}", steps.join(",")),
        400,
    )
}

fn droop_sweep_probe(rng: &mut Lcg) -> MixItem {
    // A small delta grid (2 or 3 lanes from two fixed shapes): streams
    // chunked NDJSON waves like explore, with enough repetition that the
    // response cache sees the route. Kept tiny on purpose — each lane is
    // a full transient capture, and the smoke server is deliberately
    // starved (2 workers, queue of 4), so a fat grid would turn the whole
    // burst into a shed storm.
    let points = 2 + rng.below(2);
    MixItem::Framed(
        "POST",
        "/v1/droop_sweep",
        format!(
            "{{\"variant\":\"gated\",\"quiescent_a\":10,\
             \"delta\":{{\"start_a\":20,\"stop_a\":40,\"points\":{points}}}}}"
        ),
        200,
    )
}

fn oversized_sweep_probe() -> MixItem {
    // One grid point past the population cap: rejected with 400 before
    // any lane is expanded or integrated.
    MixItem::Framed(
        "POST",
        "/v1/droop_sweep",
        "{\"delta\":{\"start_a\":1,\"stop_a\":50,\"points\":8193}}".to_owned(),
        400,
    )
}

/// The deterministic next request of the seeded mix.
///
/// The mix leans on repetition on purpose: repeated identical droops and
/// sweeps exercise the substrate caches and the response cache; the
/// malformed and oversized entries exercise the parser's rejection paths;
/// the batch probes (valid, empty, oversized) exercise the lockstep
/// transient kernel and its admission limits.
fn mix_item_of(rng: &mut Lcg) -> MixItem {
    match rng.below(24) {
        0 | 1 => MixItem::Framed("GET", "/healthz", String::new(), 200),
        2 => MixItem::Framed("GET", "/v1/claims", String::new(), 200),
        3..=6 => droop_probe(rng),
        7..=9 => sweep_probe(rng),
        10 | 11 => product_spec_probe(),
        12 => product_energy_probe(),
        13 => MixItem::Framed("GET", "/metrics", String::new(), 200),
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
    }
}

/// Aggregated outcome counts of a load run.
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
    /// Probes answered with a status other than the one baked into the
    /// mix (e.g. a valid request answered 400, or a malformed frame that
    /// was *not*). A 503 shed never counts here.
    pub expectation_failures: usize,
}

impl LoadReport {
    fn absorb(&mut self, status: u16, expected: u16) {
        self.requests += 1;
        match status {
            200..=299 => self.ok_2xx += 1,
            503 => self.shed_503 += 1,
            400..=499 => self.err_4xx += 1,
            _ => self.other_5xx += 1,
        }
        // A shed (503) is an admission-level outcome and can pre-empt any
        // probe, so it never counts against a probe's expected status.
        if status != expected && status != 503 {
            self.expectation_failures += 1;
        }
    }

    fn merge(&mut self, other: &LoadReport) {
        self.requests += other.requests;
        self.ok_2xx += other.ok_2xx;
        self.err_4xx += other.err_4xx;
        self.shed_503 += other.shed_503;
        self.other_5xx += other.other_5xx;
        self.transport_errors += other.transport_errors;
        self.expectation_failures += other.expectation_failures;
    }
}

/// Runs `n` requests of the seeded mix against `addr` from `concurrency`
/// client threads (clamped to `1..=256`), and counts the outcomes.
///
/// Each thread derives its own sub-seed from `seed`, so the union of
/// requests is deterministic for a given `(n, seed, concurrency)`. Each
/// thread sends its framed probes on its own keep-alive [`Conn`]. The
/// raw probes go out on one-shot connections, because broken framing on
/// a shared connection would poison the requests behind it.
pub fn run_mix(addr: SocketAddr, n: usize, seed: u64, concurrency: usize) -> LoadReport {
    let concurrency = concurrency.clamp(1, 256);
    let threads: Vec<_> = (0..concurrency)
        .map(|t| {
            let quota = n / concurrency + usize::from(t < n % concurrency);
            let sub_seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(t as u64 + 1));
            std::thread::spawn(move || {
                let mut rng = Lcg::new(sub_seed);
                let mut conn = Conn::new(addr, CLIENT_TIMEOUT);
                let mut report = LoadReport::default();
                for _ in 0..quota {
                    let (reply, expected) = match mix_item_of(&mut rng) {
                        MixItem::Framed(method, path, body, expected) => {
                            let raw = render_request(method, path, &body, false);
                            (conn.exchange(raw.as_bytes()), expected)
                        }
                        MixItem::Raw(bytes, expected) => {
                            (Conn::new(addr, CLIENT_TIMEOUT).exchange(&bytes), expected)
                        }
                    };
                    match reply {
                        Ok(reply) => report.absorb(reply.status, expected),
                        Err(_) => {
                            report.requests += 1;
                            report.transport_errors += 1;
                        }
                    }
                }
                report
            })
        })
        .collect();
    let mut total = LoadReport::default();
    for t in threads {
        match t.join() {
            Ok(report) => total.merge(&report),
            Err(_) => total.transport_errors += 1,
        }
    }
    total
}

/// A server process started by [`spawn_sibling`], and the address from
/// its `listening on <addr>` banner.
#[derive(Debug)]
pub struct SpawnedServer {
    /// The running child; the caller owns its shutdown.
    pub child: Child,
    /// The address the server bound.
    pub addr: SocketAddr,
}

/// Spawns `binary` from the running executable's directory (where cargo
/// puts every binary of the workspace) and reads the address it bound
/// from its first stdout line.
///
/// # Errors
///
/// A missing binary, a failed spawn, or a missing or malformed banner.
/// A child that started is killed and reaped before the error returns,
/// so a failed start never leaves a server running.
pub fn spawn_sibling(binary: &str, args: &[String]) -> Result<SpawnedServer, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me
        .parent()
        .map(|dir| dir.join(binary))
        .filter(|p| p.exists())
        .ok_or_else(|| {
            format!(
                "{binary} not found next to {} (build dg-serve first)",
                me.display()
            )
        })?;
    spawn_with_banner(&path, args)
}

/// The spawn-and-read-banner half of [`spawn_sibling`].
fn spawn_with_banner(program: &Path, args: &[String]) -> Result<SpawnedServer, String> {
    let mut child = Command::new(program)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    match read_banner(&mut child) {
        Ok(addr) => Ok(SpawnedServer { child, addr }),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("{}: {e}", program.display()))
        }
    }
}

fn read_banner(child: &mut Child) -> Result<SocketAddr, String> {
    let stdout = child.stdout.take().ok_or("no child stdout")?;
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("read banner: {e}"))?;
    line.trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("unexpected banner {line:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

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
                .map(|_| format!("{:?}", mix_item_of(&mut rng)))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }

    #[test]
    fn mix_covers_every_probe_kind() {
        let mut rng = Lcg::new(3);
        let items: Vec<MixItem> = (0..200).map(|_| mix_item_of(&mut rng)).collect();
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
        let probes_of = |route: &str| -> Vec<(&String, u16)> {
            items
                .iter()
                .filter_map(|i| match i {
                    MixItem::Framed(_, path, body, expect) if *path == route => {
                        Some((body, *expect))
                    }
                    _ => None,
                })
                .collect()
        };
        // The batch probes cover the whole admission surface: a valid
        // batch, an empty one (400), and an oversized one (400).
        let batch_probes = probes_of("/v1/droop_batch");
        assert!(
            batch_probes.iter().any(|(_, e)| *e == 200),
            "no valid batch probe"
        );
        assert!(
            batch_probes
                .iter()
                .any(|(b, e)| *e == 400 && b.contains("\"steps\":[]")),
            "no empty-batch probe"
        );
        assert!(
            batch_probes
                .iter()
                .any(|(b, e)| *e == 400 && b.len() > 1000),
            "no oversized-batch probe"
        );
        // The explore probes cover its whole admission surface too:
        // a valid streamed sweep, a malformed spec (400), and a grid
        // past the point cap (413).
        let explore_probes = probes_of("/v1/explore");
        assert!(
            explore_probes.iter().any(|(_, e)| *e == 200),
            "no valid explore probe"
        );
        assert!(
            explore_probes.iter().any(|(_, e)| *e == 400),
            "no malformed explore probe"
        );
        assert!(
            explore_probes.iter().any(|(_, e)| *e == 413),
            "no oversized explore probe"
        );
        // And the droop-sweep probes: a valid streamed grid plus a grid
        // one point past the population cap (400).
        let sweep_probes = probes_of("/v1/droop_sweep");
        assert!(
            sweep_probes.iter().any(|(_, e)| *e == 200),
            "no valid droop-sweep probe"
        );
        assert!(
            sweep_probes
                .iter()
                .any(|(b, e)| *e == 400 && b.contains("8193")),
            "no oversized droop-sweep probe"
        );
    }

    #[test]
    fn valid_mix_is_error_free() {
        // Every well-formed probe in the mix expects 200: the library
        // router answers each distinct framed probe with exactly the
        // status the probe carries, so only the deliberate error probes
        // expect a rejection.
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let router = crate::routes::Router::new(
            Arc::new(crate::metrics::Metrics::default()),
            Arc::new(AtomicBool::new(false)),
            false,
        );
        let mut rng = Lcg::new(5);
        let mut seen = std::collections::HashSet::new();
        let mut well_formed = 0;
        for _ in 0..300 {
            let MixItem::Framed(method, path, body, expected) = mix_item_of(&mut rng) else {
                continue;
            };
            if !seen.insert((method, path, body.clone())) {
                continue;
            }
            let request = crate::http::Request {
                method: method.to_owned(),
                target: path.to_owned(),
                headers: Vec::new(),
                body: body.clone().into_bytes(),
            };
            let (_, response) = router.handle(&request);
            assert_eq!(response.status, expected, "{method} {path} {body}");
            well_formed += usize::from(response.status == 200);
        }
        assert!(well_formed > 10, "{well_formed} well-formed probes");
    }

    /// Reads one request head (or whatever arrives before EOF).
    fn read_head(s: &mut TcpStream) -> Vec<u8> {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            match s.read(&mut byte) {
                Ok(1) => head.push(byte[0]),
                _ => break,
            }
        }
        head
    }

    /// A server that answers every request head with `reply`, closing
    /// each connection after its first reply unless `keep_alive`, until a
    /// connection sends `sentinel`; returns how many connections it served.
    fn test_server(
        reply: &'static [u8],
        keep_alive: bool,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let mut served = 0;
            while let Ok((mut s, _)) = listener.accept() {
                let mut head = read_head(&mut s);
                if head.starts_with(b"sentinel") {
                    break;
                }
                served += 1;
                while !head.is_empty() && s.write_all(reply).is_ok() && keep_alive {
                    head = read_head(&mut s);
                }
            }
            served
        });
        (addr, handle)
    }

    /// Stops a [`test_server`] and returns its served count.
    fn stop(addr: SocketAddr, server: std::thread::JoinHandle<usize>) -> usize {
        let mut sentinel = TcpStream::connect(addr).expect("sentinel connect");
        sentinel.write_all(b"sentinel\r\n\r\n").expect("sentinel");
        server.join().expect("server thread")
    }

    const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    const OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";

    #[test]
    fn keep_alive_client_reuses_one_connection() {
        let (addr, server) = test_server(OK, true);
        let mut conn = Conn::new(addr, Duration::from_secs(5));
        for _ in 0..3 {
            let reply = conn.exchange(HEALTHZ).expect("reply");
            assert_eq!(reply.status, 200);
            assert!(reply.bytes.ends_with(b"\r\n\r\nok"));
        }
        drop(conn); // EOF ends the server's keep-alive loop
        assert_eq!(stop(addr, server), 1, "one connection only");
    }

    #[test]
    fn keep_alive_client_recovers_from_a_server_side_close() {
        // Each connection gets one reply, then a close without a
        // `Connection: close` header (as the server's per-connection
        // request cap or idle timeout would).
        let (addr, server) = test_server(OK, false);
        let mut conn = Conn::new(addr, Duration::from_secs(5));
        let a = conn.exchange(HEALTHZ).expect("first");
        // The reused socket is dead; the one retry on a fresh socket
        // must make this invisible.
        let b = conn.exchange(HEALTHZ).expect("second");
        assert_eq!((a.status, b.status), (200, 200));
        assert_eq!(stop(addr, server), 2, "one fresh socket per reply");
    }

    #[test]
    fn framed_reply_reader_preserves_pipelined_leftovers() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            read_head(&mut s);
            // Two back-to-back framed responses in one write.
            s.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirstHTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 0\r\n\r\n",
            )
            .expect("write");
            read_head(&mut s);
            read_head(&mut s); // until the client closes
        });
        let mut conn = Conn::new(addr, Duration::from_secs(5));
        let first = conn.exchange(HEALTHZ).expect("first");
        assert_eq!(first.status, 200);
        assert!(first.bytes.ends_with(b"\r\n\r\nfirst"));
        let second = conn.exchange(HEALTHZ).expect("second");
        assert_eq!(second.status, 503);
        let second = parse_reply(&second.bytes).expect("parse");
        assert_eq!(second.header("retry-after"), Some("2"));
        assert!(conn.leftover.is_empty());
        drop(conn);
        server.join().expect("server thread");
    }

    #[test]
    fn deadline_expires_mid_body_as_deadline_expired() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                read_head(&mut s);
                // A head and part of the body, then a stall longer than
                // the client's timeout: the reply never completes.
                let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\npar");
                std::thread::sleep(Duration::from_millis(700));
            }
        });
        let err = Conn::new(addr, Duration::from_millis(250))
            .exchange(HEALTHZ)
            .expect_err("stalled response must not succeed");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "expected a timeout, got {err}"
        );
        server.join().expect("server thread");
    }

    #[test]
    fn a_fault_on_a_fresh_socket_is_returned_after_one_accept() {
        // The server closes without a single reply byte.
        let (addr, server) = test_server(b"", false);
        let err = Conn::new(addr, Duration::from_secs(5))
            .exchange(HEALTHZ)
            .expect_err("a closed socket must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(stop(addr, server), 1, "a fresh-socket fault is not retried");
    }

    #[test]
    fn complete_garbage_reply_is_fatal_not_retried() {
        let (addr, server) = test_server(b"NOT HTTP AT ALL\r\n\r\nbody", false);
        let err = Conn::new(addr, Duration::from_secs(5))
            .exchange(HEALTHZ)
            .expect_err("garbage must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert_eq!(stop(addr, server), 1, "garbage is not retried");
    }

    #[test]
    fn report_classifies_statuses() {
        let mut r = LoadReport::default();
        r.absorb(200, 200);
        r.absorb(400, 400);
        r.absorb(413, 400); // expectation miss
        r.absorb(400, 200); // a valid probe answered 400: a miss too
        r.absorb(503, 200); // a shed pre-empts any probe
        r.absorb(500, 200);
        assert_eq!((r.ok_2xx, r.err_4xx, r.shed_503, r.other_5xx), (1, 3, 1, 1));
        assert_eq!(r.expectation_failures, 3);
    }

    /// Runs `script` under `/bin/sh` through the spawn seam. The script
    /// receives a pid file path as `$0`.
    fn spawn_script(tag: &str, script: &str) -> (Result<SpawnedServer, String>, Option<u32>) {
        let pid_file =
            std::env::temp_dir().join(format!("dg-spawn-{}-{tag}.pid", std::process::id()));
        let _ = std::fs::remove_file(&pid_file);
        let args = [
            "-c".to_owned(),
            script.to_owned(),
            pid_file.display().to_string(),
        ];
        let result = spawn_with_banner(Path::new("/bin/sh"), &args);
        let pid = std::fs::read_to_string(&pid_file)
            .ok()
            .and_then(|s| s.trim().parse().ok());
        let _ = std::fs::remove_file(&pid_file);
        (result, pid)
    }

    #[test]
    fn spawn_reaps_a_child_with_a_bad_banner() {
        let (result, pid) = spawn_script("bad", "echo $$ > \"$0\"; echo 'ready'; exec sleep 30");
        let err = result.expect_err("a wrong banner must fail the spawn");
        assert!(err.contains("unexpected banner"), "{err}");
        let pid = pid.expect("the stand-in recorded its pid");
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "pid {pid} outlived the failed spawn"
        );
    }

    #[test]
    fn spawn_reads_the_bound_address_from_the_banner() {
        let (result, _) = spawn_script("good", "echo 'listening on 127.0.0.1:9'; exec sleep 30");
        let mut spawned = result.expect("a well-formed banner spawns");
        assert_eq!(spawned.addr, "127.0.0.1:9".parse().expect("addr"));
        spawned.child.kill().expect("kill stand-in");
        spawned.child.wait().expect("reap stand-in");
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
