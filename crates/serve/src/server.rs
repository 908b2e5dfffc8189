//! The `dg-serve` shard: its config, its handle, and its `Dispatcher`
//! on the shared connection engine ([`crate::event_loop`], which owns
//! every socket, the worker pool, shedding and the drain policy).
//!
//! What a parsed request becomes:
//!
//! * cheap control routes (`GET /healthz`, `GET /metrics`,
//!   `POST /admin/drain`) are answered inline on the event loop — health
//!   stays observable even under full compute overload, and a drain
//!   request cannot be shed by the very pressure it relieves,
//! * memory-tier response-cache hits are answered inline too: one JSON
//!   parse and one lock, no queue, no worker,
//! * everything else is queued for the worker pool, which runs handlers
//!   with `par_map` inlined and streams `/v1/explore` and
//!   `/v1/droop_sweep` as chunked NDJSON, one completion per wave.
//!
//! Drain ([`ServerHandle::request_drain`], `POST /admin/drain`, or SIGTERM
//! in the binary) is the engine's: the listener closes, idle connections
//! drop, admitted requests finish with `Connection: close`, and
//! [`ServerHandle::shutdown`] reports whether every thread exited cleanly.

use crate::coalesce::Role;
pub use crate::event_loop::{retry_after_secs, DrainReport};
use crate::event_loop::{Admit, Dispatcher, Engine, EngineConfig, EngineHandle, Event, Outbox};
use crate::http::{
    write_chunk, write_response, write_stream_head, ParserLimits, Request, LAST_CHUNK,
};
use crate::json::{obj, Json};
use crate::metrics::{monotonic_us, Metrics, Route};
use crate::routes::{Response, Router, StreamEvent, StreamPlan};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads serving dispatched (CPU-bound) requests.
    pub workers: usize,
    /// Admission bound: requests queued ahead of the workers before the
    /// event loop starts shedding with 503.
    pub queue_depth: usize,
    /// HTTP framing limits.
    pub limits: ParserLimits,
    /// Idle deadline: a keep-alive connection that neither delivers bytes
    /// nor accepts response bytes for this long is closed. Drain latency
    /// is bounded by it.
    pub read_timeout_ms: u64,
    /// Base value of the `Retry-After` header on shed responses; the
    /// current queue depth adds to it (see [`retry_after_secs`]).
    pub retry_after_secs: u32,
    /// Requests served on one connection before it is closed.
    pub max_requests_per_conn: usize,
    /// Open-connection cap; beyond it new sockets get a best-effort 503.
    pub max_connections: usize,
    /// Enables `POST /v1/debug/sleep` (overload tests only).
    pub enable_debug_routes: bool,
    /// Root of the persistent content-addressed cache (`--cache-dir`).
    /// Enables the process-wide disk tier for cached response bodies and
    /// impedance profiles.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            limits: ParserLimits::default(),
            read_timeout_ms: 2_000,
            retry_after_secs: 1,
            max_requests_per_conn: 1_000,
            max_connections: 4_096,
            enable_debug_routes: false,
            cache_dir: None,
        }
    }
}

/// The `dg-serve` daemon. Construct with [`Server::start`].
#[derive(Debug)]
pub struct Server;

/// A handle to a running server; dropping it does **not** stop the
/// server — call [`ServerHandle::shutdown`].
#[derive(Debug)]
pub struct ServerHandle {
    inner: EngineHandle<Shard>,
}

impl Server {
    /// Binds, spawns the worker pool and the event loop, and returns a
    /// handle.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, …) and
    /// epoll/self-pipe setup failures.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        if let Some(dir) = &config.cache_dir {
            darkgates::pdn::diskcache::set_dir(Some(dir.clone()));
        }
        let metrics = Arc::new(Metrics::default());
        let draining = Arc::new(AtomicBool::new(false));
        let shard = Shard {
            router: Router::new(
                Arc::clone(&metrics),
                Arc::clone(&draining),
                config.enable_debug_routes,
            ),
            metrics,
            draining: Arc::clone(&draining),
        };
        let engine = EngineConfig {
            addr: config.addr,
            name: "dg-serve",
            workers: config.workers,
            queue_depth: config.queue_depth,
            limits: config.limits,
            read_timeout_ms: config.read_timeout_ms,
            retry_after_secs: config.retry_after_secs,
            max_requests_per_conn: config.max_requests_per_conn,
            max_connections: config.max_connections,
        };
        Ok(ServerHandle {
            inner: Engine::start(engine, shard, draining)?,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// The live metrics registry (shared with the handlers).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.engine().dispatcher.metrics)
    }

    /// Whether a drain has been requested (by this handle, by
    /// `POST /admin/drain`, or by a signal in the binary).
    pub fn is_draining(&self) -> bool {
        self.inner.engine().draining.load(Ordering::SeqCst)
    }

    /// Starts a graceful drain: stop admitting, serve what was admitted.
    /// Idempotent; returns immediately.
    pub fn request_drain(&self) {
        self.inner.engine().request_drain();
    }

    /// Drains (if not already draining) and blocks until the event loop
    /// and every worker have exited, reporting whether the drain was
    /// clean.
    pub fn shutdown(self) -> DrainReport {
        self.inner.shutdown()
    }
}

/// The shard's half of the connection engine.
struct Shard {
    router: Router,
    metrics: Arc<Metrics>,
    /// The engine's drain flag, which `POST /admin/drain` sets.
    draining: Arc<AtomicBool>,
}

impl Dispatcher for Shard {
    type Job = Request;
    type LoopState = ();
    type WorkerState = ();

    fn admit(&self, _: &mut (), request: Request, close: bool) -> Admit<Request> {
        if is_inline(&request) {
            let start = monotonic_us();
            // dg-analyze: allow(no-blocking-in-event-loop, reason = "is_inline gates this dispatch to /healthz, /metrics and /admin/drain, which touch no disk, queue, coalescer or sleep; every other route goes through the worker pool below")
            let (route, response) = self.router.handle(&request);
            let latency = monotonic_us().saturating_sub(start);
            self.metrics.record(route, response.status, latency);
            // `POST /admin/drain` flips the flag inside the handler; honor
            // it on this very response.
            let close = close || self.draining.load(Ordering::SeqCst);
            let bytes = framed(&response, close);
            return Admit::Reply { bytes, close };
        }
        match self.router.cached_response(&request) {
            Some((route, response)) => {
                self.metrics.record(route, response.status, 0);
                let bytes = framed(&response, close);
                Admit::Reply { bytes, close }
            }
            None => Admit::Queue(request),
        }
    }

    fn serve(&self, _: &mut (), request: Request, close: bool, out: &Outbox<'_>) {
        let _inflight = InFlight::enter(&self.metrics.inflight);
        if let Some(route) = streaming_route(&request) {
            return self.stream(route, &request, close, out);
        }
        let start = monotonic_us();
        // Handlers run with par_map inlined: one thread per request.
        let (route, response) = dg_engine::inline_scope(|| self.router.handle(&request));
        let latency = monotonic_us().saturating_sub(start);
        self.metrics.record(route, response.status, latency);
        out.push(framed(&response, close), true, close);
    }

    fn note(&self, event: Event) {
        let m = &self.metrics;
        let counter = match event {
            Event::Accepted => &m.connections_total,
            Event::Shed => &m.shed_total,
            Event::BadRequest(status) => {
                m.record(Route::Other, status, 0);
                &m.bad_requests_total
            }
            Event::Panic => {
                m.record(Route::Other, 500, 0);
                &m.panics_total
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl Shard {
    /// Serves one request on a streaming route (`/v1/explore`,
    /// `/v1/droop_sweep`): chunked NDJSON progress lines as batches
    /// finish, then the result line. Rejections (400/413) stay ordinary
    /// framed responses; cache hits and coalesced followers stream only
    /// the result line.
    fn stream(&self, route: Route, request: &Request, close: bool, out: &Outbox<'_>) {
        let start = monotonic_us();
        let status = match self.router.plan_stream(route, request) {
            StreamPlan::Reject(resp) => {
                out.push(framed(&resp, close), true, close);
                resp.status
            }
            StreamPlan::Cached(body) => {
                out.push(stream_reply(&body, close), true, close);
                200
            }
            // The sweep deliberately runs with the engine's par_map pool
            // live (no inline_scope): a 10k-point explore grid or a
            // thousand-lane droop population is exactly the workload the
            // chunked evaluation parallelises, and its results are
            // bit-identical for any thread count.
            StreamPlan::Run(run) => match run(&mut |event| match event {
                StreamEvent::Started => out.push(stream_head(close), false, close),
                StreamEvent::Progress(line) => {
                    out.push(write_chunk(line.as_bytes()), false, close);
                }
            }) {
                // Head and progress are already queued in order; a non-200
                // logical status rides the wire-200 stream (the head is
                // long gone) and closes.
                (Ok((status, body)), Role::Leader) => {
                    out.push(stream_tail(&body), true, close || status != 200);
                    status
                }
                // Followers saw no events: stream head + result line,
                // exactly like a cache hit — unless the shared outcome is
                // an error, which they can still report with honest
                // framing.
                (Ok((200, body)), Role::Follower) => {
                    out.push(stream_reply(&body, close), true, close);
                    200
                }
                (Ok((status, body)), Role::Follower) => {
                    let bytes = write_response(
                        status,
                        "Internal Server Error",
                        "application/json",
                        &[],
                        body.as_bytes(),
                        close,
                    );
                    out.push(bytes, true, close);
                    status
                }
                // The leader's compute panicked inside the coalescer
                // (already booked in panics_total by the runner). The
                // leader's head is on the wire: terminate its stream with
                // an error line and close. Followers sent nothing yet and
                // get a plain framed 500.
                (Err(panic_msg), role) => {
                    let body = obj(vec![
                        ("ok", Json::Bool(false)),
                        ("error", Json::Str(format!("handler panicked: {panic_msg}"))),
                    ])
                    .render();
                    let bytes = match role {
                        Role::Leader => stream_tail(&body),
                        Role::Follower => write_response(
                            500,
                            "Internal Server Error",
                            "application/json",
                            &[],
                            body.as_bytes(),
                            close,
                        ),
                    };
                    out.push(bytes, true, true);
                    500
                }
            },
        };
        let latency = monotonic_us().saturating_sub(start);
        self.metrics.record(route, status, latency);
    }
}

/// Counts one request in `dg_inflight` for as long as it lives, a panic
/// unwinding through it included.
struct InFlight<'a>(&'a AtomicU64);

impl<'a> InFlight<'a> {
    fn enter(gauge: &'a AtomicU64) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        InFlight(gauge)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Frames a handler's response for the wire.
fn framed(response: &Response, close: bool) -> Vec<u8> {
    write_response(
        response.status,
        response.reason,
        response.content_type,
        &[],
        response.body.as_bytes(),
        close,
    )
}

/// The streaming route a dispatched request targets, if any — these
/// bypass the generic handle-then-frame path for multi-completion
/// chunked NDJSON.
fn streaming_route(request: &Request) -> Option<Route> {
    let path = request.target.split('?').next().unwrap_or(&request.target);
    match (request.method.as_str(), path) {
        ("POST", "/v1/explore") => Some(Route::Explore),
        ("POST", "/v1/droop_sweep") => Some(Route::DroopSweep),
        _ => None,
    }
}

/// The NDJSON stream head shared by every streaming route.
fn stream_head(close: bool) -> Vec<u8> {
    write_stream_head(200, "OK", "application/x-ndjson", close)
}

/// Frames `body` as the newline-terminated final line of a stream,
/// followed by the terminal chunk.
fn stream_tail(body: &str) -> Vec<u8> {
    let mut line = String::with_capacity(body.len() + 1);
    line.push_str(body);
    line.push('\n');
    let mut bytes = write_chunk(line.as_bytes());
    bytes.extend_from_slice(LAST_CHUNK);
    bytes
}

/// A whole stream that is just its result line: a cache hit, or a
/// coalesced follower's copy of the leader's result.
fn stream_reply(body: &str, close: bool) -> Vec<u8> {
    let mut bytes = stream_head(close);
    bytes.extend_from_slice(&stream_tail(body));
    bytes
}

/// Routes cheap enough (and important enough) to answer on the event loop
/// itself: liveness and metrics stay observable under full compute
/// overload, and `POST /admin/drain` cannot be shed by the very pressure
/// it relieves.
fn is_inline(request: &Request) -> bool {
    matches!(
        (request.method.as_str(), request.target.as_str()),
        ("GET", "/healthz") | ("GET", "/metrics") | ("POST", "/admin/drain")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpStream};
    use std::thread;
    use std::time::Duration;

    fn tiny_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_depth: 4,
            read_timeout_ms: 200,
            ..ServerConfig::default()
        }
    }

    fn talk(addr: SocketAddr, raw: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(raw).expect("write");
        let _ = s.shutdown(Shutdown::Write);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn serves_healthz_over_tcp_and_drains_cleanly() {
        let handle = Server::start(tiny_config()).expect("bind");
        let addr = handle.local_addr();
        let reply = talk(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");
        let report = handle.shutdown();
        assert!(report.clean);
        assert_eq!(report.requests_served, 1);
    }

    #[test]
    fn malformed_framing_gets_4xx_and_close() {
        let handle = Server::start(tiny_config()).expect("bind");
        let addr = handle.local_addr();
        let reply = talk(addr, b"NOT-HTTP-AT-ALL\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        let reply = talk(
            addr,
            b"POST /v1/droop HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
        let m = handle.metrics();
        assert_eq!(m.bad_requests_total.load(Ordering::Relaxed), 2);
        assert!(handle.shutdown().clean);
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let handle = Server::start(tiny_config()).expect("bind");
        let mut s = TcpStream::connect(handle.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        for _ in 0..3 {
            s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                .expect("write");
            let mut buf = [0u8; 2048];
            let n = s.read(&mut buf).expect("read");
            let text = String::from_utf8_lossy(buf.get(..n).unwrap_or_default()).into_owned();
            assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        }
        let report = handle.shutdown();
        assert!(report.clean);
        assert_eq!(report.requests_served, 3);
    }

    #[test]
    fn pipelined_requests_are_served_in_order_on_one_connection() {
        let handle = Server::start(tiny_config()).expect("bind");
        let mut s = TcpStream::connect(handle.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // Three requests in one write; the last one asks to close, so
        // read_to_end frames the burst.
        s.write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .expect("write");
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        let text = String::from_utf8_lossy(&out);
        assert_eq!(
            text.matches("HTTP/1.1 200 OK").count(),
            3,
            "all three pipelined requests answered: {text}"
        );
        let report = handle.shutdown();
        assert!(report.clean);
        assert_eq!(report.requests_served, 3);
    }

    #[test]
    fn half_read_head_completes_across_readiness_events() {
        let handle = Server::start(tiny_config()).expect("bind");
        let mut s = TcpStream::connect(handle.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // The head arrives in three fragments with genuine gaps, so the
        // loop sees readable events with an incomplete parse in between.
        for fragment in [
            &b"GET /hea"[..],
            &b"lthz HTTP/1.1\r\nHo"[..],
            &b"st: t\r\nConnection: close\r\n\r\n"[..],
        ] {
            s.write_all(fragment).expect("write fragment");
            thread::sleep(Duration::from_millis(40));
        }
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(handle.shutdown().clean);
    }

    #[test]
    fn large_body_survives_short_writes_to_a_slow_reader() {
        let handle = Server::start(ServerConfig {
            read_timeout_ms: 2_000,
            ..tiny_config()
        })
        .expect("bind");
        let mut s = TcpStream::connect(handle.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // A ~600 KB sweep response: far beyond the socket buffers, so the
        // server's optimistic write hits WouldBlock and the connection
        // parks on EPOLLOUT while we drain it slowly.
        let body = br#"{"variant":"gated","points":20000,"decimate":1}"#;
        let head = format!(
            "POST /v1/sweep HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        s.write_all(head.as_bytes()).expect("head");
        s.write_all(body).expect("body");
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    out.extend_from_slice(chunk.get(..n).unwrap_or_default());
                    thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("slow read failed after {} bytes: {e}", out.len()),
            }
        }
        let text = String::from_utf8_lossy(&out);
        assert!(
            text.starts_with("HTTP/1.1 200 OK"),
            "{}",
            &text[..text.len().min(200)]
        );
        let content_length: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .trim()
            .parse()
            .expect("numeric");
        let body_start = out
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head terminator")
            + 4;
        assert_eq!(
            out.len() - body_start,
            content_length,
            "the full body must arrive intact through short writes"
        );
        assert!(content_length > 400_000, "response is genuinely large");
        assert!(handle.shutdown().clean);
    }

    #[test]
    fn keep_alive_idle_past_read_timeout_is_closed_by_the_server() {
        let handle = Server::start(tiny_config()).expect("bind");
        let mut s = TcpStream::connect(handle.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write");
        let mut buf = [0u8; 2048];
        let n = s.read(&mut buf).expect("reply");
        assert!(n > 0);
        // Go idle past the 200 ms read timeout: the server must close.
        let start = monotonic_us();
        let eof = s.read(&mut buf).expect("server FIN, not client timeout");
        let elapsed_ms = monotonic_us().saturating_sub(start) / 1_000;
        assert_eq!(eof, 0, "idle keep-alive connection must be closed");
        assert!(
            (150..4_000).contains(&elapsed_ms),
            "close arrived after {elapsed_ms} ms for a 200 ms idle budget"
        );
        assert!(handle.shutdown().clean);
    }

    #[test]
    fn retry_after_grows_with_queue_depth_and_stays_bounded() {
        assert_eq!(retry_after_secs(1, 0, 64), 1, "empty queue: just the base");
        assert_eq!(retry_after_secs(1, 64, 64), 4, "full queue: base + 3");
        assert_eq!(retry_after_secs(1, 32, 64), 2, "half full");
        let mut last = 0;
        for len in 0..=128 {
            let secs = retry_after_secs(1, len, 128);
            assert!(secs >= last, "must be monotone in queue depth");
            last = secs;
        }
        assert_eq!(retry_after_secs(29, 1000, 1), 30, "capped at 30 s");
        assert_eq!(retry_after_secs(1, 5, 0), 30, "zero capacity cannot divide");
    }

    #[test]
    fn shed_503_carries_depth_derived_retry_after_and_close() {
        // One worker, queue depth 1: concurrent slow requests force the
        // dispatch path to shed with the full-queue Retry-After.
        let handle = Server::start(ServerConfig {
            workers: 1,
            queue_depth: 1,
            enable_debug_routes: true,
            ..tiny_config()
        })
        .expect("bind");
        let addr = handle.local_addr();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                thread::spawn(move || {
                    talk(
                        addr,
                        b"POST /v1/debug/sleep HTTP/1.1\r\nHost: t\r\nContent-Length: 11\r\n\r\n{\"ms\": 300}",
                    )
                })
            })
            .collect();
        let mut shed = 0u64;
        for t in threads {
            let reply = t.join().expect("client");
            if reply.starts_with("HTTP/1.1 503") {
                shed += 1;
                assert!(reply.contains("Connection: close"), "{reply}");
                let retry: u32 = reply
                    .lines()
                    .find_map(|l| l.strip_prefix("Retry-After: "))
                    .expect("Retry-After header")
                    .trim()
                    .parse()
                    .expect("numeric Retry-After");
                // Shed happens with the queue at (or near) capacity, so
                // the depth penalty must be visible over the base of 1.
                assert!(
                    (1..=4).contains(&retry),
                    "depth-derived Retry-After out of range: {retry}"
                );
            } else {
                assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
            }
        }
        assert!(shed >= 1, "8 concurrent sleeps on 1 worker must shed");
        assert_eq!(handle.metrics().shed_total.load(Ordering::Relaxed), shed);
        assert!(handle.shutdown().clean);
    }

    #[test]
    fn drain_refuses_new_connections_but_finishes_admitted_work() {
        let handle = Server::start(tiny_config()).expect("bind");
        let addr = handle.local_addr();
        handle.request_drain();
        assert!(handle.is_draining());
        // Give the event loop a tick to notice and close the listener.
        thread::sleep(Duration::from_millis(100));
        // New connections are now refused outright (or, if they raced the
        // listener close, answered and closed).
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut out = Vec::new();
            let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
            let _ = s.read_to_end(&mut out);
            let text = String::from_utf8_lossy(&out);
            assert!(
                text.is_empty() || text.starts_with("HTTP/1.1 503"),
                "draining server must not serve new work: {text}"
            );
        }
        assert!(handle.shutdown().clean);
    }
}
