//! `dg-chaos`: deterministic fault injection and differential replay for
//! the `dg-serve` daemon.
//!
//! The harness answers three questions the tier-1 tests cannot (DESIGN.md
//! §10):
//!
//! 1. **Does the serve path survive hostile transports?** A seeded fault
//!    layer wraps every client connection and injects short writes,
//!    partial request bodies, mid-response connection drops, slowloris
//!    pacing, stalled request heads that expire through the server's
//!    read timeout (no client-side clock), keep-alive connections left
//!    idle until the server's deadline reaps them, and slow readers that
//!    force the server's optimistic write to park on write readiness.
//!    Every connection's behaviour is a pure function of its seed, and
//!    every connection whose fault does not cut it must end in a reply
//!    that [`read_reply`] decodes whole.
//! 2. **Do HTTP results equal library results?** A differential oracle
//!    replays every completed request against an in-process
//!    [`dg_serve::routes::Router`] — the same `darkgates::claims`,
//!    `dg-pdn` droop/sweep, and product-catalog entry points — and
//!    requires the served status and body to be **byte-identical** to the
//!    library's render. Serialization or caching drift cannot silently
//!    corrupt paper results.
//! 3. **Does every failure reproduce?** A sample of connections is
//!    re-executed from their logged seeds and must land in the same
//!    outcome class, so a red chaos run is always a one-seed repro, never
//!    a shrug.
//!
//! The entry point is [`run_chaos`]; the `dg-chaos` binary runs it as
//! the CI gate. A second campaign, [`run_shard_kill`] (binary
//! flag `--shards`), spawns a real `dg-router` over two `dg-serve` shard
//! processes with cache directories, SIGKILLs one mid-run, and requires
//! uninterrupted, byte-identical service plus an observed health
//! ejection, then drains the router and the surviving shard and requires
//! both processes to exit 0. A fresh shard on the killed shard's
//! directory must then replay its probes byte-identically, some from
//! disk.

use dg_serve::client::{http_request, spawn_sibling, Lcg, SpawnedServer};
use dg_serve::http::{read_reply, Request};
use dg_serve::metrics::monotonic_us;
use dg_serve::routes::Router;
use dg_serve::{Server, ServerConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// The transport fault injected on one chaos connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Control group: the request is written whole and read whole.
    None,
    /// The request bytes are dribbled in tiny chunks, so the server's
    /// incremental parser sees arbitrary byte-boundary splits.
    ShortWrite,
    /// The head declares the full `Content-Length` but the body is cut
    /// short and the write side closed: the server must time the
    /// connection out without producing a response or dying.
    PartialBody,
    /// A few response bytes are read, then the socket is dropped
    /// mid-response: the server's write fails and must be contained.
    MidResponseReset,
    /// Head bytes are paced a few at a time with deterministic pauses —
    /// slow, but inside the read timeout, so the request still completes.
    Slowloris,
    /// A partial request head, then silence: the client waits for the
    /// *server's* read timeout to close the connection (clock-free expiry
    /// — no client-side sleep decides the outcome).
    StalledHead,
    /// The head declares a body far beyond the server's cap: the parser
    /// must answer `413` before any body byte is transferred.
    Oversized,
    /// A keep-alive request (no `Connection: close`), a complete reply,
    /// then silence: the *server's* idle deadline must close the
    /// connection — the keep-alive analogue of `StalledHead`.
    KeepAliveIdle,
    /// The request is written whole but the reply is drained a few bytes
    /// at a time with deterministic pauses, so the server's optimistic
    /// write hits `EAGAIN` and the connection parks on write readiness.
    SlowReader,
}

impl Fault {
    /// Every fault, in the order the per-fault counters report.
    pub const ALL: [Fault; 9] = [
        Fault::None,
        Fault::ShortWrite,
        Fault::PartialBody,
        Fault::MidResponseReset,
        Fault::Slowloris,
        Fault::StalledHead,
        Fault::Oversized,
        Fault::KeepAliveIdle,
        Fault::SlowReader,
    ];

    /// A short stable label for logs and reports.
    pub fn label(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::ShortWrite => "short-write",
            Fault::PartialBody => "partial-body",
            Fault::MidResponseReset => "mid-response-reset",
            Fault::Slowloris => "slowloris",
            Fault::StalledHead => "stalled-head",
            Fault::Oversized => "oversized",
            Fault::KeepAliveIdle => "keep-alive-idle",
            Fault::SlowReader => "slow-reader",
        }
    }

    /// Whether this fault cuts the connection short on purpose, so a
    /// truncated reply is its expected outcome.
    fn cuts_the_connection(self) -> bool {
        matches!(
            self,
            Fault::PartialBody | Fault::MidResponseReset | Fault::StalledHead
        )
    }

    /// The position of this fault in [`Fault::ALL`] (for counters).
    pub fn index(self) -> usize {
        match self {
            Fault::None => 0,
            Fault::ShortWrite => 1,
            Fault::PartialBody => 2,
            Fault::MidResponseReset => 3,
            Fault::Slowloris => 4,
            Fault::StalledHead => 5,
            Fault::Oversized => 6,
            Fault::KeepAliveIdle => 7,
            Fault::SlowReader => 8,
        }
    }
}

/// One request of the deterministic probe catalog.
///
/// Every probe except `/metrics` is deterministic: its response depends
/// only on the request parameters, so the differential oracle can demand
/// byte identity against an in-process router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    /// HTTP method.
    pub method: &'static str,
    /// Request target.
    pub path: &'static str,
    /// JSON body ("" for GETs).
    pub body: String,
    /// Whether the response is a pure function of the request (oracle
    /// comparable). `/metrics` is live state and is excluded.
    pub deterministic: bool,
}

/// Draws one probe from the seeded catalog.
///
/// The catalog leans on the routes that back paper results — droop,
/// sweep, product, claims — plus `/healthz` and an occasional `/metrics`
/// for the non-deterministic text path.
fn probe_from(rng: &mut Lcg) -> Probe {
    let det = |method, path, body: String| Probe {
        method,
        path,
        body,
        deterministic: true,
    };
    match rng.below(12) {
        0 | 1 => det("GET", "/healthz", String::new()),
        2 => det("GET", "/v1/claims", String::new()),
        3..=5 => {
            let to = 40 + 10 * rng.below(4);
            let variant = if rng.below(2) == 0 {
                "gated"
            } else {
                "bypassed"
            };
            det(
                "POST",
                "/v1/droop",
                format!(
                    "{{\"variant\":\"{variant}\",\"from_a\":10,\"to_a\":{to},\"source_v\":1.0}}"
                ),
            )
        }
        6 | 7 => {
            let points = 96 + 32 * rng.below(3);
            det(
                "POST",
                "/v1/sweep",
                format!("{{\"variant\":\"gated\",\"points\":{points},\"decimate\":16}}"),
            )
        }
        8 => det(
            "POST",
            "/v1/product",
            "{\"design\":\"desktop\",\"tdp_w\":91,\
             \"workload\":{\"kind\":\"spec\",\"benchmark\":\"444.namd\",\"mode\":\"base\"}}"
                .to_owned(),
        ),
        9 => det(
            "POST",
            "/v1/product",
            "{\"design\":\"mobile\",\"tdp_w\":45,\
             \"workload\":{\"kind\":\"energy\",\"name\":\"energy-star\"}}"
                .to_owned(),
        ),
        10 => det("POST", "/v1/droop", "{\"variant\":\"wormhole\"}".to_owned()),
        _ => Probe {
            method: "GET",
            path: "/metrics",
            body: String::new(),
            deterministic: false,
        },
    }
}

/// The fully resolved plan for one chaos connection: probe, fault, and
/// every pacing parameter, all derived from `seed` alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnPlan {
    /// The connection's seed (logged with every failure).
    pub seed: u64,
    /// The injected fault.
    pub fault: Fault,
    /// The request issued.
    pub probe: Probe,
    /// Chunk size for dribbled writes (`ShortWrite` / `Slowloris`).
    pub chunk_len: usize,
    /// Inter-chunk pause for `Slowloris`, milliseconds.
    pub pace_ms: u64,
    /// Cut point for `PartialBody` / `StalledHead` (bytes kept), and the
    /// number of response bytes read before a `MidResponseReset` drop.
    pub cut: usize,
}

/// Derives the seed of connection `index` within run `run_seed`
/// (SplitMix64-style mixing, so nearby indices get unrelated streams).
// dg-analyze: allow(unreached-pub, reason = "live (the campaign seeds each connection with it); crates/chaos/tests/campaign.rs names it")
pub fn conn_seed(run_seed: u64, index: usize) -> u64 {
    let mut z = run_seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ConnPlan {
    /// Builds the plan for `seed` — a pure function, so any logged seed
    /// replays to the identical probe, fault, and pacing.
    // dg-analyze: allow(unreached-pub, reason = "live (conn_seed's plans come from it); crates/chaos/tests/campaign.rs names it")
    pub fn from_seed(seed: u64) -> ConnPlan {
        let mut rng = Lcg::new(seed);
        let probe = probe_from(&mut rng);
        // PartialBody needs a body to cut; bodiless probes fall back to a
        // plain short write so every draw still injects something.
        let fault = match Fault::ALL.get(usize::try_from(rng.below(9)).unwrap_or(0)) {
            Some(Fault::PartialBody) if probe.body.is_empty() => Fault::ShortWrite,
            Some(f) => *f,
            None => Fault::None,
        };
        ConnPlan {
            seed,
            fault,
            probe,
            chunk_len: usize::try_from(1 + rng.below(7)).unwrap_or(1),
            pace_ms: 2 + rng.below(6),
            cut: usize::try_from(1 + rng.below(24)).unwrap_or(1),
        }
    }

    /// The raw request bytes this plan sends (before fault mangling).
    fn raw_request(&self) -> Vec<u8> {
        let declared = if self.fault == Fault::Oversized {
            // Far beyond the server's body cap: must be refused with 413.
            10_000_000
        } else {
            self.probe.body.len()
        };
        // `KeepAliveIdle` leaves the connection open on purpose — no
        // `Connection: close`, so only the server's idle deadline ends it.
        let connection = if self.fault == Fault::KeepAliveIdle {
            ""
        } else {
            "Connection: close\r\n"
        };
        let mut raw = format!(
            "{} {} HTTP/1.1\r\nHost: dg-chaos\r\nContent-Length: {declared}\r\n{connection}\r\n",
            self.probe.method, self.probe.path
        )
        .into_bytes();
        if self.fault != Fault::Oversized {
            raw.extend_from_slice(self.probe.body.as_bytes());
        }
        raw
    }
}

/// How a chaos connection ended, from the client's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// A reply whose framing is complete, with this status.
    Reply(u16),
    /// The connection closed without a complete reply — the *expected*
    /// outcome for `PartialBody`, `MidResponseReset`, and `StalledHead`,
    /// and an oracle failure under every other fault.
    Truncated,
    /// A transport-level failure (connect error, or a stalled connection
    /// the server failed to reap inside the client's guard timeout).
    Transport,
}

impl OutcomeClass {
    /// A short stable label for logs.
    pub fn label(self) -> String {
        match self {
            OutcomeClass::Reply(status) => format!("reply({status})"),
            OutcomeClass::Truncated => "truncated".to_owned(),
            OutcomeClass::Transport => "transport".to_owned(),
        }
    }
}

/// The record one chaos connection leaves behind.
#[derive(Debug, Clone)]
pub struct ConnRecord {
    /// Position in the run (0-based).
    pub index: usize,
    /// The connection's seed (replay with [`ConnPlan::from_seed`]).
    pub seed: u64,
    /// The fault that was injected.
    pub fault: Fault,
    /// How the connection ended.
    pub outcome: OutcomeClass,
    /// The reply body, when a complete reply arrived (oracle input).
    pub body: Option<String>,
}

/// Reads the stream to EOF within a guard timeout, `step` bytes per
/// read, pausing `pace_ms` after each read (0: no pause), so a paced
/// read is a peer that drains slowly. Returns `None` when the guard
/// fires first (the server never closed).
fn read_to_close(
    stream: &mut TcpStream,
    step: usize,
    pace_ms: u64,
    guard_ms: u64,
) -> Option<Vec<u8>> {
    let deadline = monotonic_us().saturating_add(guard_ms.saturating_mul(1_000));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(guard_ms.max(1))));
    let mut bytes = Vec::new();
    let mut chunk = vec![0u8; step.max(1)];
    loop {
        if monotonic_us() >= deadline {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Some(bytes),
            Ok(n) => {
                bytes.extend_from_slice(chunk.get(..n).unwrap_or_default());
                if pace_ms > 0 {
                    std::thread::sleep(Duration::from_millis(pace_ms));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return None;
            }
            Err(_) => return Some(bytes),
        }
    }
}

/// Classifies what a connection read before the server closed it: a
/// reply whose framing [`read_reply`] completes, with its body, or a
/// truncated one. `None` (the guard fired) is a transport failure.
fn classify(read: Option<Vec<u8>>) -> (OutcomeClass, Option<String>) {
    let Some(bytes) = read else {
        return (OutcomeClass::Transport, None);
    };
    match read_reply(&mut bytes.as_slice(), &mut Vec::new()) {
        Ok(reply) => {
            let body = String::from_utf8_lossy(&reply.body()).into_owned();
            (OutcomeClass::Reply(reply.status), Some(body))
        }
        Err(_) => (OutcomeClass::Truncated, None),
    }
}

/// Writes `raw` in `chunk_len`-byte slices, pausing `pace_ms` between
/// slices when `pace_ms > 0`.
fn write_chunked(
    stream: &mut TcpStream,
    raw: &[u8],
    chunk_len: usize,
    pace_ms: u64,
) -> std::io::Result<()> {
    let step = chunk_len.max(1);
    let mut offset = 0usize;
    while offset < raw.len() {
        let end = (offset + step).min(raw.len());
        stream.write_all(raw.get(offset..end).unwrap_or_default())?;
        offset = end;
        if pace_ms > 0 && offset < raw.len() {
            std::thread::sleep(Duration::from_millis(pace_ms));
        }
    }
    Ok(())
}

/// Executes one planned connection against `addr`.
///
/// `server_read_timeout_ms` sizes the guard timeout for faults that wait
/// on the *server* to act (stalled heads, partial bodies): the client
/// allows the server several timeout periods before declaring it stuck.
// dg-analyze: allow(unreached-pub, reason = "live (the campaign runs it per connection); crates/chaos/tests/campaign.rs names it")
pub fn run_connection(
    addr: SocketAddr,
    plan: &ConnPlan,
    server_read_timeout_ms: u64,
) -> (OutcomeClass, Option<String>) {
    let raw = plan.raw_request();
    // The guard is a liveness ceiling, not a wait: nothing blocks on it
    // unless the server genuinely fails to answer or to reap a stalled
    // connection. The generous floor keeps unoptimized (debug) builds of
    // the compute-heavy routes inside it.
    let guard_ms = server_read_timeout_ms.saturating_mul(10).max(30_000);
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(guard_ms)) else {
        return (OutcomeClass::Transport, None);
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(guard_ms)));

    let write_outcome = match plan.fault {
        Fault::None | Fault::Oversized | Fault::KeepAliveIdle | Fault::SlowReader => {
            stream.write_all(&raw)
        }
        Fault::ShortWrite => write_chunked(&mut stream, &raw, plan.chunk_len, 0),
        Fault::Slowloris => write_chunked(&mut stream, &raw, plan.chunk_len.max(4), plan.pace_ms),
        Fault::PartialBody => {
            // Whole head, then only a prefix of the declared body.
            let body_len = plan.probe.body.len();
            let head_len = raw.len().saturating_sub(body_len);
            let keep = head_len + plan.cut.min(body_len.saturating_sub(1));
            stream.write_all(raw.get(..keep).unwrap_or(&raw))
        }
        Fault::StalledHead => {
            // A strict prefix of the head, then silence.
            let keep = plan.cut.min(raw.len().saturating_sub(1)).max(1);
            stream.write_all(raw.get(..keep).unwrap_or(&raw))
        }
        Fault::MidResponseReset => stream.write_all(&raw),
    };
    if write_outcome.is_ok() {
        match plan.fault {
            Fault::MidResponseReset => {
                // Read a few bytes of the response, then drop the socket
                // with the rest unread (the drop sends RST if bytes are
                // pending).
                let _ = stream.set_read_timeout(Some(Duration::from_millis(guard_ms.max(1))));
                let _ = stream.read(&mut vec![0u8; plan.cut.max(1)]);
                return (OutcomeClass::Truncated, None);
            }
            // The write side stays open (the server still expects bytes);
            // the outcome is decided by the server's read timeout closing
            // us. `KeepAliveIdle` is the same wait with a complete
            // request: the reply arrives, then only the server's idle
            // deadline may close the connection.
            Fault::PartialBody | Fault::StalledHead | Fault::KeepAliveIdle => {}
            // Half-close so the server sees EOF after the request; then
            // the reply must arrive complete.
            _ => {
                let _ = stream.shutdown(std::net::Shutdown::Write);
            }
        }
    }
    // A failed write may be the server legitimately closing first (e.g.
    // an early 413 on an oversized head): collect what it said all the
    // same. A slow reader drains the reply a few bytes at a time, so
    // short server writes must park on write readiness and still deliver
    // every byte.
    let (step, pace_ms) = match plan.fault {
        Fault::SlowReader => (512, plan.pace_ms),
        _ => (4096, 0),
    };
    classify(read_to_close(&mut stream, step, pace_ms, guard_ms))
}

/// The differential oracle: an in-process router over the same library
/// entry points the daemon serves.
pub struct Oracle {
    router: Router,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new()
    }
}

impl Oracle {
    /// A fresh oracle (its own metrics, not draining, no debug routes —
    /// the same construction `Server::start` uses for the live router).
    pub fn new() -> Oracle {
        Oracle {
            router: Router::new(
                Arc::new(dg_serve::metrics::Metrics::default()),
                Arc::new(AtomicBool::new(false)),
                false,
            ),
        }
    }

    /// The `(status, body)` the library path produces for `probe`.
    pub fn expected(&self, probe: &Probe) -> (u16, String) {
        let request = Request {
            method: probe.method.to_owned(),
            target: probe.path.to_owned(),
            headers: vec![("host".to_owned(), "dg-chaos".to_owned())],
            body: probe.body.clone().into_bytes(),
        };
        let (_, response) = self.router.handle(&request);
        (response.status, response.body.as_str().to_owned())
    }

    /// Checks one record against the library path. Returns a failure
    /// description, or `None` when the record matches or is out of the
    /// oracle's scope (sheds, non-deterministic probes, parser-level
    /// `413`s, and truncations under the faults that cut a connection).
    pub fn check(&self, plan: &ConnPlan, record: &ConnRecord) -> Option<String> {
        let (status, body) = match (&record.outcome, &record.body) {
            (OutcomeClass::Reply(status), Some(body)) => (*status, body),
            // Under any other fault a whole request must end in a whole
            // reply.
            (OutcomeClass::Truncated, _) if !plan.fault.cuts_the_connection() => {
                return Some(format!(
                    "seed {:#018x}: {} {} under {} ended without a complete reply",
                    record.seed,
                    plan.probe.method,
                    plan.probe.path,
                    plan.fault.label()
                ));
            }
            _ => return None,
        };
        if !plan.probe.deterministic || status == 503 {
            return None;
        }
        if plan.fault == Fault::Oversized {
            // Parser-level rejection: the router never sees it; the
            // contract is just the status code.
            return (status != 413).then(|| {
                format!(
                    "seed {:#018x}: oversized probe answered {status}, want 413",
                    record.seed
                )
            });
        }
        let (want_status, want_body) = self.expected(&plan.probe);
        if status != want_status {
            return Some(format!(
                "seed {:#018x}: {} {} answered {status}, library says {want_status}",
                record.seed, plan.probe.method, plan.probe.path
            ));
        }
        if body != &want_body {
            return Some(format!(
                "seed {:#018x}: {} {} body diverges from the library render \
                 (served {} bytes, library {} bytes)",
                record.seed,
                plan.probe.method,
                plan.probe.path,
                body.len(),
                want_body.len()
            ));
        }
        None
    }

    /// Cross-checks a served `/v1/claims` body against the shared
    /// [`dg_bench::claims_scoreboard`] reduction of the library graders.
    /// Returns a mismatch description on drift.
    fn check_claims_scoreboard(&self, served_body: &str) -> Option<String> {
        let board = dg_bench::claims_scoreboard(&darkgates::claims::grade_all());
        let served = dg_serve::json::parse(served_body).ok()?;
        let result = served.get("result")?;
        let passed = result
            .get("passed")
            .and_then(dg_serve::json::Json::as_u64)?;
        let total = result.get("total").and_then(dg_serve::json::Json::as_u64)?;
        if (passed, total) != (board.passed as u64, board.total as u64) {
            return Some(format!(
                "claims scoreboard drift: served {passed}/{total}, library {}/{}",
                board.passed, board.total
            ));
        }
        None
    }
}

/// Tuning for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The run seed every connection seed derives from.
    pub seed: u64,
    /// Connections to drive (each with its own injected fault draw).
    pub connections: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// The chaos server's per-read socket timeout — small, so stalled
    /// connections expire quickly.
    pub read_timeout_ms: u64,
    /// Server worker threads.
    pub workers: usize,
    /// Server admission-queue depth.
    pub queue_depth: usize,
    /// Connections re-executed from their logged seeds afterwards.
    pub repro_sample: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xDA_2C_4A_05,
            connections: 240,
            concurrency: 8,
            read_timeout_ms: 150,
            workers: 3,
            queue_depth: 64,
            repro_sample: 12,
        }
    }
}

/// Aggregated result of a chaos run; the CI gate requires
/// [`ChaosReport::passed`].
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Connections driven.
    pub connections: usize,
    /// Connections that ended with a complete HTTP reply.
    pub replies: usize,
    /// Connections that ended without a complete reply (a failure, in
    /// `mismatches`, except under the truncating faults).
    pub truncated: usize,
    /// Transport failures — the gate requires zero.
    pub transport_errors: usize,
    /// Per-fault connection counts, indexed like [`Fault::ALL`].
    pub fault_counts: [usize; 9],
    /// Oracle failures: HTTP results that differ from the library's, and
    /// truncated replies under faults that do not cut the connection.
    pub mismatches: Vec<String>,
    /// Connections whose seed replay diverged.
    pub repro_failures: Vec<String>,
    /// Handler panics the server converted to 500s during the run.
    pub worker_panics: u64,
    /// Whether the accept loop and every worker exited cleanly.
    pub clean_shutdown: bool,
    /// Wall time of the run, µs.
    pub elapsed_us: u64,
}

impl ChaosReport {
    /// The campaign's verdict: every connection accounted for, zero
    /// transport failures, zero worker deaths or panics, zero oracle
    /// failures, and every sampled seed reproduced.
    pub fn passed(&self) -> bool {
        self.clean_shutdown
            && self.worker_panics == 0
            && self.transport_errors == 0
            && self.mismatches.is_empty()
            && self.repro_failures.is_empty()
            && self.replies + self.truncated == self.connections
    }
}

/// Replays connection `index` of run `run_seed` and compares its outcome
/// class with `original`. Sheds (`503`) are admission-level outcomes and
/// compare as wildcards. Returns a failure description on divergence.
fn reproduce_one(
    addr: SocketAddr,
    run_seed: u64,
    index: usize,
    original: &ConnRecord,
    read_timeout_ms: u64,
) -> Option<String> {
    let seed = conn_seed(run_seed, index);
    if seed != original.seed {
        return Some(format!(
            "connection {index}: seed derivation changed ({:#018x} vs logged {:#018x})",
            seed, original.seed
        ));
    }
    let plan = ConnPlan::from_seed(seed);
    if plan.fault != original.fault {
        return Some(format!(
            "seed {seed:#018x}: fault replayed as {} but was logged as {}",
            plan.fault.label(),
            original.fault.label()
        ));
    }
    let (outcome, _) = run_connection(addr, &plan, read_timeout_ms);
    let shed = |o: &OutcomeClass| matches!(o, OutcomeClass::Reply(503));
    if shed(&outcome) || shed(&original.outcome) {
        return None;
    }
    if outcome != original.outcome {
        return Some(format!(
            "seed {seed:#018x} ({}): replayed to {} but was logged as {}",
            plan.fault.label(),
            outcome.label(),
            original.outcome.label()
        ));
    }
    None
}

/// Runs the full chaos campaign: start an in-process server, drive
/// `config.connections` seeded fault connections, verify every completed
/// exchange against the library path, replay a seed sample, then drain.
///
/// The engine's seeded schedule permutation is armed with the run seed
/// for the duration, so handler-internal `par_map` work is claimed in a
/// run-specific order — the oracle then proves the *results* are
/// schedule-independent.
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    let mut report = ChaosReport {
        connections: config.connections,
        ..ChaosReport::default()
    };
    let started = monotonic_us();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: config.workers.max(1),
        queue_depth: config.queue_depth.max(1),
        read_timeout_ms: config.read_timeout_ms.max(10),
        enable_debug_routes: false,
        ..ServerConfig::default()
    });
    let Ok(handle) = server else {
        report.transport_errors = config.connections;
        return report;
    };
    let addr = handle.local_addr();
    let _schedule = dg_engine::set_schedule_seed(config.seed);

    let records = drive(addr, config);

    // Reproducibility: replay an evenly spaced seed sample while the
    // server is still up, before any drain.
    let stride = (config.connections / config.repro_sample.max(1)).max(1);
    for record in records.iter().step_by(stride).take(config.repro_sample) {
        if let Some(failure) = reproduce_one(
            addr,
            config.seed,
            record.index,
            record,
            config.read_timeout_ms,
        ) {
            report.repro_failures.push(failure);
        }
    }

    // Differential oracle, offline against the collected records.
    let oracle = Oracle::new();
    let mut claims_checked = false;
    for record in &records {
        let plan = ConnPlan::from_seed(record.seed);
        if let Some(mismatch) = oracle.check(&plan, record) {
            report.mismatches.push(mismatch);
        }
        if !claims_checked && plan.probe.path == "/v1/claims" {
            if let (OutcomeClass::Reply(200), Some(body)) = (&record.outcome, &record.body) {
                claims_checked = true;
                if let Some(drift) = oracle.check_claims_scoreboard(body) {
                    report.mismatches.push(drift);
                }
            }
        }
        match record.outcome {
            OutcomeClass::Reply(_) => report.replies += 1,
            OutcomeClass::Truncated => report.truncated += 1,
            OutcomeClass::Transport => report.transport_errors += 1,
        }
        if let Some(slot) = report.fault_counts.get_mut(record.fault.index()) {
            *slot += 1;
        }
    }

    report.worker_panics = handle
        .metrics()
        .panics_total
        .load(std::sync::atomic::Ordering::Relaxed);
    report.clean_shutdown = handle.shutdown().clean;
    report.elapsed_us = monotonic_us().saturating_sub(started);
    report
}

/// Drives every planned connection from `config.concurrency` client
/// threads and returns the records ordered by connection index.
fn drive(addr: SocketAddr, config: &ChaosConfig) -> Vec<ConnRecord> {
    let concurrency = config.concurrency.clamp(1, 64);
    let mut records: Vec<ConnRecord> = Vec::with_capacity(config.connections);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|t| {
                let config = &*config;
                scope.spawn(move || {
                    let mut own = Vec::new();
                    let mut index = t;
                    while index < config.connections {
                        let seed = conn_seed(config.seed, index);
                        let plan = ConnPlan::from_seed(seed);
                        let (outcome, body) = run_connection(addr, &plan, config.read_timeout_ms);
                        own.push(ConnRecord {
                            index,
                            seed,
                            fault: plan.fault,
                            outcome,
                            body,
                        });
                        index += concurrency;
                    }
                    own
                })
            })
            .collect();
        for handle in handles {
            if let Ok(mut own) = handle.join() {
                records.append(&mut own);
            }
        }
    });
    records.sort_by_key(|r| r.index);
    records
}

// ---------------------------------------------------------------------------
// Shard-kill campaign: a real router + two shard *processes*, one of which
// is SIGKILLed mid-run. The gate is continuity — zero 5xx, zero transport
// faults, byte-identical bodies throughout — plus an observed ejection.
// ---------------------------------------------------------------------------

/// Tuning for one shard-kill campaign.
#[derive(Debug, Clone)]
pub struct ShardKillConfig {
    /// Seed for the probe draw (pure function, like the fault campaign).
    pub seed: u64,
    /// Total requests driven through the router.
    pub requests: usize,
    /// The request index at which shard 0 is SIGKILLed.
    pub kill_after: usize,
}

impl Default for ShardKillConfig {
    fn default() -> Self {
        ShardKillConfig {
            seed: 0x5AFE_0001,
            requests: 120,
            kill_after: 40,
        }
    }
}

/// Aggregated result of a shard-kill campaign.
#[derive(Debug, Clone, Default)]
pub struct ShardKillReport {
    /// Requests driven.
    pub requests: usize,
    /// Requests that completed with a non-5xx reply.
    pub ok: usize,
    /// Transport faults and 5xx replies — the gate requires zero.
    pub failures: Vec<String>,
    /// Replies whose status or body diverged from the library render.
    pub mismatches: Vec<String>,
    /// Whether the router's `/healthz` reported the killed shard dead.
    pub ejection_observed: bool,
    /// Whether `POST /admin/drain` drained the router and no shard:
    /// `dg-router` exited 0 within the deadline and the surviving shard
    /// still answered `/healthz` with `"draining":false`.
    pub router_drained: bool,
    /// Whether the surviving shard, sent its own `POST /admin/drain`
    /// after the router's, exited 0 within the deadline.
    pub shard_drained: bool,
    /// `dg_disk_cache_hits_total` of a fresh shard started on the killed
    /// shard's cache directory after replaying every probe sent before
    /// the kill.
    pub disk_replay_hits: u64,
    /// Wall time of the campaign, µs.
    pub elapsed_us: u64,
}

impl ShardKillReport {
    /// The gate verdict: every request answered below 500, every body
    /// byte-identical to the library, the kill actually ejected, the
    /// router's drain stopped the router alone, the surviving shard's
    /// drain stopped its process cleanly, and the killed shard's cache
    /// directory answered at least one replay from disk.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
            && self.mismatches.is_empty()
            && self.ejection_observed
            && self.router_drained
            && self.shard_drained
            && self.disk_replay_hits > 0
            && self.ok == self.requests
    }
}

/// Child processes and cache directories with guaranteed teardown: any
/// exit path from the campaign (including early errors) reaps every
/// spawned server and then removes the directories.
#[derive(Default)]
struct Fleet {
    children: Vec<Option<Child>>,
    dirs: Vec<PathBuf>,
}

impl Fleet {
    fn adopt(&mut self, child: Child) {
        self.children.push(Some(child));
    }

    /// Whether the child at `index` exits 0 before `deadline_us`
    /// ([`monotonic_us`]); reaps it if so.
    fn exits_cleanly(&mut self, index: usize, deadline_us: u64) -> bool {
        let Some(Some(child)) = self.children.get_mut(index) else {
            return false;
        };
        while monotonic_us() < deadline_us {
            match child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(slot) = self.children.get_mut(index) {
                        *slot = None;
                    }
                    return status.success();
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(25)),
                Err(_) => return false,
            }
        }
        false
    }

    /// SIGKILLs and reaps the child at `index` (idempotent).
    fn kill(&mut self, index: usize) {
        if let Some(slot) = self.children.get_mut(index) {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for index in 0..self.children.len() {
            self.kill(index);
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Spawns a `dg-serve` on an ephemeral port over `cache_dir`.
fn spawn_shard(cache_dir: &Path) -> Result<SpawnedServer, String> {
    let args = [
        "--addr".to_owned(),
        "127.0.0.1:0".to_owned(),
        "--cache-dir".to_owned(),
        cache_dir.display().to_string(),
    ];
    spawn_sibling("dg-serve", &args)
}

/// One unlabelled sample from a server's `/metrics` text.
fn counter(addr: SocketAddr, name: &str) -> Option<u64> {
    let reply = http_request(addr, "GET", "/metrics", None).ok()?;
    reply
        .body
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

/// Sends `probe` to `addr`: `Ok` when the reply is byte-identical to
/// the library's render, else what differed.
fn replay_matches(oracle: &Oracle, addr: SocketAddr, probe: &Probe) -> Result<(), String> {
    let body = (!probe.body.is_empty()).then_some(probe.body.as_str());
    let reply =
        http_request(addr, probe.method, probe.path, body).map_err(|e| format!("transport {e}"))?;
    let (want_status, want_body) = oracle.expected(probe);
    if reply.status == want_status && reply.body == want_body {
        return Ok(());
    }
    Err(format!(
        "served {} ({} bytes), library says {} ({} bytes)",
        reply.status,
        reply.body.len(),
        want_status,
        want_body.len()
    ))
}

/// The probe sent straight to shard 0 before the kill, so its cache
/// directory holds at least one record the replay must read back.
fn known_probe() -> Probe {
    Probe {
        method: "POST",
        path: "/v1/droop",
        body: r#"{"variant":"gated","from_a":10,"to_a":60,"source_v":1.0}"#.to_owned(),
        deterministic: true,
    }
}

/// Draws a deterministic `/v1/*` probe — the shard-kill campaign only
/// issues requests whose replies the oracle can hold to byte identity.
fn service_probe(rng: &mut Lcg) -> Probe {
    for _ in 0..64 {
        let probe = probe_from(rng);
        if probe.deterministic && probe.path.starts_with("/v1/") {
            return probe;
        }
    }
    Probe {
        method: "GET",
        path: "/v1/claims",
        body: String::new(),
        deterministic: true,
    }
}

/// Runs the shard-kill campaign: spawn two `dg-serve` shards, each over
/// its own `--cache-dir`, and a `dg-router` over them (reply cache off,
/// so repeat keys exercise real shard traffic), drive seeded requests
/// through the router, send one known probe straight to shard 0, SIGKILL
/// shard 0 mid-run, and require uninterrupted, byte-identical service.
/// It then posts `/admin/drain` to the router, which must exit 0 while
/// the surviving shard keeps serving undrained, and then to the surviving
/// shard, whose process must exit 0 too. Last, a fresh shard on the
/// killed shard's directory must answer every probe sent before the kill
/// byte-identically to the library, at least one of them from disk. The
/// directories are removed at the end.
///
/// # Errors
///
/// Setup failures only (missing sibling binaries, spawn errors); the
/// campaign's own verdict is in the returned report.
pub fn run_shard_kill(config: &ShardKillConfig) -> Result<ShardKillReport, String> {
    let started = monotonic_us();
    let mut fleet = Fleet::default();
    let dir_of =
        |i: usize| std::env::temp_dir().join(format!("dg-chaos-shard{i}-{}", std::process::id()));
    let (dir_a, dir_b) = (dir_of(0), dir_of(1));
    for dir in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(dir);
        fleet.dirs.push(dir.clone());
    }
    let shard_a = spawn_shard(&dir_a)?;
    fleet.adopt(shard_a.child);
    let shard_b = spawn_shard(&dir_b)?;
    fleet.adopt(shard_b.child);
    let router_args = vec![
        "--addr".to_owned(),
        "127.0.0.1:0".to_owned(),
        "--reply-cache".to_owned(),
        "0".to_owned(),
        "--shard".to_owned(),
        shard_a.addr.to_string(),
        "--shard".to_owned(),
        shard_b.addr.to_string(),
    ];
    let router = spawn_sibling("dg-router", &router_args)?;
    fleet.adopt(router.child);

    let oracle = Oracle::new();
    let mut rng = Lcg::new(config.seed);
    let mut report = ShardKillReport {
        requests: config.requests,
        ..ShardKillReport::default()
    };
    let mut before_kill = vec![known_probe()];
    for index in 0..config.requests {
        if index == config.kill_after {
            if let Err(e) = replay_matches(&oracle, shard_a.addr, &known_probe()) {
                report.failures.push(format!("known probe to shard 0: {e}"));
            }
            // SIGKILL, not SIGTERM: the shard gets no chance to drain, so
            // the router sees resets on pooled connections and refusals on
            // fresh ones — the request-path retry must absorb both.
            fleet.kill(0);
        }
        let probe = service_probe(&mut rng);
        if index < config.kill_after {
            before_kill.push(probe.clone());
        }
        let body = (!probe.body.is_empty()).then_some(probe.body.as_str());
        match http_request(router.addr, probe.method, probe.path, body) {
            Ok(reply) if reply.status >= 500 => report.failures.push(format!(
                "request {index} ({} {}): status {} after shard kill",
                probe.method, probe.path, reply.status
            )),
            Ok(reply) => {
                report.ok += 1;
                let (want_status, want_body) = oracle.expected(&probe);
                if reply.status != want_status || reply.body != want_body {
                    report.mismatches.push(format!(
                        "request {index} ({} {}): served {} ({} bytes), \
                         library says {} ({} bytes)",
                        probe.method,
                        probe.path,
                        reply.status,
                        reply.body.len(),
                        want_status,
                        want_body.len()
                    ));
                }
            }
            Err(e) => report.failures.push(format!(
                "request {index} ({} {}): transport {e}",
                probe.method, probe.path
            )),
        }
    }

    // The request-path eject should already have flipped the shard dead;
    // the health loop is the backstop. Either way `/healthz` must report
    // the kill within a generous deadline.
    let deadline = monotonic_us().saturating_add(10_000_000);
    while monotonic_us() < deadline {
        if let Ok(reply) = http_request(router.addr, "GET", "/healthz", None) {
            if reply.body.contains("\"alive\":false") {
                report.ejection_observed = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    // The drain is the router's own: it must exit, and leave the surviving
    // shard serving.
    let drained = http_request(router.addr, "POST", "/admin/drain", None);
    let exited = fleet.exits_cleanly(2, monotonic_us().saturating_add(10_000_000));
    let survivor = http_request(shard_b.addr, "GET", "/healthz", None);
    report.router_drained = matches!(&drained, Ok(reply) if reply.status == 200)
        && exited
        && matches!(&survivor, Ok(reply) if reply.body.contains("\"draining\":false"));
    if !report.router_drained {
        report.failures.push(format!(
            "router drain: reply {:?}, router exited 0: {exited}, surviving shard /healthz {:?}",
            drained.map(|r| r.status),
            survivor.map(|r| r.body)
        ));
    }

    // Then the surviving shard's own drain: the `dg-serve` process must
    // exit 0 within the same deadline.
    let drained = http_request(shard_b.addr, "POST", "/admin/drain", None);
    let exited = fleet.exits_cleanly(1, monotonic_us().saturating_add(10_000_000));
    report.shard_drained = matches!(&drained, Ok(reply) if reply.status == 200) && exited;
    if !report.shard_drained {
        report.failures.push(format!(
            "shard drain: reply {:?}, dg-serve exited 0: {exited}",
            drained.map(|r| r.status)
        ));
    }

    // A fresh shard on the killed shard's directory: what the SIGKILL
    // left on disk must replay byte-identically, some of it from disk.
    match spawn_shard(&dir_a) {
        Ok(replay) => {
            fleet.adopt(replay.child);
            for probe in &before_kill {
                if let Err(e) = replay_matches(&oracle, replay.addr, probe) {
                    report.mismatches.push(format!(
                        "disk replay ({} {}): {e}",
                        probe.method, probe.path
                    ));
                }
            }
            report.disk_replay_hits = counter(replay.addr, "dg_disk_cache_hits_total").unwrap_or(0);
        }
        Err(e) => report.failures.push(format!("disk replay shard: {e}")),
    }

    report.elapsed_us = monotonic_us().saturating_sub(started);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_their_seed() {
        for index in 0..200 {
            let seed = conn_seed(7, index);
            assert_eq!(ConnPlan::from_seed(seed), ConnPlan::from_seed(seed));
        }
        assert_ne!(conn_seed(7, 0), conn_seed(7, 1));
        assert_ne!(conn_seed(7, 0), conn_seed(8, 0));
    }

    #[test]
    fn the_catalog_covers_every_fault_and_probe() {
        let mut fault_seen = [false; 9];
        let mut paths = std::collections::BTreeSet::new();
        for index in 0..400 {
            let plan = ConnPlan::from_seed(conn_seed(3, index));
            fault_seen[plan.fault.index()] = true;
            paths.insert(plan.probe.path);
        }
        assert!(
            fault_seen.iter().all(|&seen| seen),
            "400 draws must hit every fault: {fault_seen:?}"
        );
        for path in [
            "/healthz",
            "/v1/claims",
            "/v1/droop",
            "/v1/sweep",
            "/v1/product",
            "/metrics",
        ] {
            assert!(paths.contains(path), "catalog never drew {path}");
        }
    }

    #[test]
    fn partial_body_never_lands_on_a_bodiless_probe() {
        for index in 0..600 {
            let plan = ConnPlan::from_seed(conn_seed(11, index));
            if plan.fault == Fault::PartialBody {
                assert!(
                    !plan.probe.body.is_empty(),
                    "seed {:#x} plans a partial body with no body",
                    plan.seed
                );
            }
        }
    }

    #[test]
    fn raw_request_declares_the_oversized_length() {
        let mut plan = ConnPlan::from_seed(conn_seed(5, 0));
        plan.fault = Fault::Oversized;
        let raw = String::from_utf8(plan.raw_request()).expect("ascii");
        assert!(raw.contains("Content-Length: 10000000"), "{raw}");
        plan.fault = Fault::None;
        let raw = String::from_utf8(plan.raw_request()).expect("ascii");
        assert!(
            raw.contains(&format!("Content-Length: {}", plan.probe.body.len())),
            "{raw}"
        );
    }

    #[test]
    fn oracle_matches_itself_and_spots_drift() {
        let oracle = Oracle::new();
        let probe = Probe {
            method: "POST",
            path: "/v1/droop",
            body: r#"{"variant":"gated","from_a":10,"to_a":60,"source_v":1.0}"#.to_owned(),
            deterministic: true,
        };
        let (status, body) = oracle.expected(&probe);
        assert_eq!(status, 200, "{body}");
        let seed = conn_seed(1, 0);
        let plan = ConnPlan {
            seed,
            fault: Fault::None,
            probe,
            chunk_len: 1,
            pace_ms: 0,
            cut: 1,
        };
        let ok = ConnRecord {
            index: 0,
            seed,
            fault: Fault::None,
            outcome: OutcomeClass::Reply(status),
            body: Some(body.clone()),
        };
        assert_eq!(oracle.check(&plan, &ok), None);
        let corrupted = ConnRecord {
            body: Some(body.replace("droop_mv", "droop_MV")),
            ..ok.clone()
        };
        let mismatch = oracle.check(&plan, &corrupted).expect("must spot drift");
        assert!(mismatch.contains("diverges"), "{mismatch}");
        let wrong_status = ConnRecord {
            outcome: OutcomeClass::Reply(500),
            ..ok
        };
        assert!(oracle.check(&plan, &wrong_status).is_some());
    }

    #[test]
    fn a_truncated_reply_fails_unless_the_fault_cuts_the_connection() {
        let oracle = Oracle::new();
        let seed = conn_seed(1, 0);
        for fault in Fault::ALL {
            let plan = ConnPlan {
                seed,
                fault,
                probe: Probe {
                    method: "GET",
                    path: "/healthz",
                    body: String::new(),
                    deterministic: true,
                },
                chunk_len: 1,
                pace_ms: 0,
                cut: 1,
            };
            let record = ConnRecord {
                index: 0,
                seed,
                fault,
                outcome: OutcomeClass::Truncated,
                body: None,
            };
            let cuts = fault.cuts_the_connection();
            match oracle.check(&plan, &record) {
                None => assert!(cuts, "{} passed a truncated reply", fault.label()),
                Some(failure) => {
                    assert!(!cuts, "{}: {failure}", fault.label());
                    assert!(failure.contains(&format!("{seed:#018x}")), "{failure}");
                }
            }
        }
    }

    #[test]
    fn only_a_completely_framed_reply_is_a_reply() {
        let whole = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi".to_vec();
        let (outcome, body) = classify(Some(whole.clone()));
        assert_eq!(
            (outcome, body.as_deref()),
            (OutcomeClass::Reply(200), Some("hi"))
        );
        for cut in 0..whole.len() {
            let (outcome, body) = classify(whole.get(..cut).map(<[u8]>::to_vec));
            assert_eq!(
                (outcome, body),
                (OutcomeClass::Truncated, None),
                "cut at {cut}"
            );
        }
        assert_eq!(classify(None), (OutcomeClass::Transport, None));
    }
}
