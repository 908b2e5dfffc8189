//! The `dg-serve` shard: its config, its handle, and its `Dispatcher`
//! on the shared connection engine ([`crate::event_loop`], which owns
//! every socket, the worker pool, shedding and the drain policy).
//!
//! The event loop resolves each request once, into a [`Query`]
//! (`Router::query`: route-table row, body parsed, parameters
//! validated, content key derived). What the query becomes:
//!
//! * cheap control routes ([`Kind::Control`]: `GET /healthz`,
//!   `GET /metrics`, `POST /admin/drain`, with or without a query string)
//!   are answered inline on the event loop — health stays observable even
//!   under full compute overload, and a drain request cannot be shed by
//!   the very pressure it relieves,
//! * memory-tier response-cache hits on [`Kind::Cacheable`] routes are
//!   answered inline too: one lock, no queue, no worker,
//! * everything else is queued for the worker pool as the query itself,
//!   so no worker parses the request again. Workers run handlers with
//!   `par_map` inlined and stream `/v1/explore` and `/v1/droop_sweep` as
//!   chunked NDJSON, one completion per wave.
//!
//! Drain ([`ServerHandle::shutdown`], `POST /admin/drain`, or SIGTERM in
//! the binary) is the engine's: the listener closes, idle connections
//! drop, admitted requests finish with `Connection: close`, and
//! [`ServerHandle::shutdown`] reports whether every thread exited cleanly.
//!
//! A handler panic is contained by the engine alone: a framed `500` if no
//! byte of the reply has gone out, a cut stream and a close after a
//! stream head.

pub use crate::event_loop::DrainReport;
use crate::event_loop::{Admit, Dispatcher, Engine, EngineConfig, EngineHandle, Event, Outbox};
use crate::http::{write_chunk, write_stream_head, Request, LAST_CHUNK};
use crate::metrics::{monotonic_us, Metrics, Route};
use crate::respcache::ResponseCache;
use crate::routes::{Kind, Query, Router, StreamPlan};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Requests a shard serves on one connection before it closes it.
const MAX_REQUESTS_PER_CONN: usize = 1_000;

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
    /// Idle deadline: a keep-alive connection that neither delivers bytes
    /// nor accepts response bytes for this long is closed. Drain latency
    /// is bounded by it.
    pub read_timeout_ms: u64,
    /// Enables `POST /v1/debug/sleep` (overload tests only).
    pub enable_debug_routes: bool,
    /// Root of this server's on-disk response cache (`--cache-dir`): its
    /// response cache appends `200` bodies to the log segments in
    /// `<dir>/resp/` and serves memory misses from there. `None` keeps
    /// the cache in memory.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            read_timeout_ms: 2_000,
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
        let metrics = Arc::new(Metrics::default());
        let draining = Arc::new(AtomicBool::new(false));
        let router = Router::new(
            Arc::clone(&metrics),
            Arc::clone(&draining),
            config.enable_debug_routes,
        );
        let shard = Shard {
            router: match config.cache_dir {
                Some(dir) => router.with_cache(ResponseCache::on_disk(&dir)),
                None => router,
            },
            metrics,
            draining: Arc::clone(&draining),
        };
        let engine = EngineConfig {
            addr: config.addr,
            name: "dg-serve",
            workers: config.workers,
            queue_depth: config.queue_depth,
            read_timeout_ms: config.read_timeout_ms,
            max_requests_per_conn: MAX_REQUESTS_PER_CONN,
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
    type Job = Query;
    type WorkerState = ();

    fn admit(&self, request: Request, close: bool) -> Admit<Query> {
        let query = self.router.query(&request);
        if let Kind::Control(route) = query.kind {
            let start = monotonic_us();
            let response = self.router.control(route);
            let latency = monotonic_us().saturating_sub(start);
            self.metrics.record(route, response.status, latency);
            // `POST /admin/drain` flips the flag inside the handler; honor
            // it on this very response.
            let close = close || self.draining.load(Ordering::SeqCst);
            let bytes = response.framed(close);
            return Admit::Reply { bytes, close };
        }
        match self.router.memory_hit(&query) {
            Some(response) => {
                self.metrics.record(query.kind.route(), response.status, 0);
                let bytes = response.framed(close);
                Admit::Reply { bytes, close }
            }
            None => Admit::Queue(query),
        }
    }

    fn serve(&self, _: &mut (), query: Query, close: bool, out: &Outbox<'_>) {
        let _inflight = InFlight::enter(&self.metrics.inflight);
        if let Kind::Stream(route) = query.kind {
            return self.stream(route, query, close, out);
        }
        let route = query.kind.route();
        let start = monotonic_us();
        // Handlers run with par_map inlined: one thread per request.
        let response = dg_engine::inline_scope(|| self.router.answer(query));
        let latency = monotonic_us().saturating_sub(start);
        self.metrics.record(route, response.status, latency);
        out.push(response.framed(close), true, close);
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
    /// Serves one query on a streaming route (`/v1/explore`,
    /// `/v1/droop_sweep`): chunked NDJSON progress lines as batches
    /// finish, then the result line. Rejections (400/413) stay ordinary
    /// framed responses; cache hits stream only the result line.
    fn stream(&self, route: Route, query: Query, close: bool, out: &Outbox<'_>) {
        let start = monotonic_us();
        let status = match self.router.plan_stream(query) {
            StreamPlan::Reject(resp) => {
                out.push(resp.framed(close), true, close);
                resp.status
            }
            StreamPlan::Cached(body) => {
                out.push(stream_reply(&body, close), true, close);
                200
            }
            // The computation deliberately runs with the engine's pool
            // live (no inline_scope): an explore spreads its progress
            // batches over the workers, one batch per work item, and a
            // droop sweep its 32-lane groups, with results bit-identical
            // for any thread count. A one-batch explore runs inline.
            StreamPlan::Run(run) => {
                out.push(stream_head(close), false, close);
                let (status, body) =
                    run(&mut |line| out.push(write_chunk(line.as_bytes()), false, close));
                // A non-200 logical status rides the wire-200 stream (the
                // head is long gone) and closes.
                out.push(stream_tail(&body), true, close || status != 200);
                status
            }
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

/// A whole stream that is just its result line: a cache hit.
fn stream_reply(body: &str, close: bool) -> Vec<u8> {
    let mut bytes = stream_head(close);
    bytes.extend_from_slice(&stream_tail(body));
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::retry_after_secs;
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
    fn a_saturated_shard_answers_control_routes_with_a_query_string() {
        // One worker and a queue of one: one sleep runs, one waits.
        let handle = Server::start(ServerConfig {
            workers: 1,
            queue_depth: 1,
            enable_debug_routes: true,
            ..tiny_config()
        })
        .expect("bind");
        let addr = handle.local_addr();
        let sleep = |ms: u64| {
            let body = format!("{{\"ms\": {ms}}}");
            let head = format!(
                "POST /v1/debug/sleep HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            head + &body
        };
        let running = thread::spawn(move || talk(addr, sleep(1_500).as_bytes()));
        let metrics = handle.metrics();
        let deadline = monotonic_us() + 5_000_000;
        while metrics.inflight.load(Ordering::Relaxed) == 0 {
            assert!(monotonic_us() < deadline, "the first sleep never started");
            thread::sleep(Duration::from_millis(5));
        }
        let queued = thread::spawn(move || talk(addr, sleep(1).as_bytes()));
        thread::sleep(Duration::from_millis(200));

        // Saturated: a request that needs the queue is shed.
        let shed = talk(addr, b"GET /v1/nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(shed.starts_with("HTTP/1.1 503"), "{shed}");
        // Control routes never queue, query string or not.
        for target in ["/healthz", "/healthz?probe=1", "/metrics?x=1"] {
            let reply = talk(
                addr,
                format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
            );
            assert!(reply.starts_with("HTTP/1.1 200 OK"), "{target}: {reply}");
        }

        for client in [running, queued] {
            let reply = client.join().expect("client");
            assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        }
        assert!(handle.shutdown().clean);
    }

    #[test]
    fn wrong_methods_get_405_with_allow_over_http() {
        let handle = Server::start(tiny_config()).expect("bind");
        let addr = handle.local_addr();
        for (method, target, allow) in [
            ("PUT", "/v1/droop", Some("POST")),
            ("PATCH", "/v1/droop", Some("POST")),
            ("OPTIONS", "/healthz", Some("GET")),
            ("GET", "/admin/drain", Some("POST")),
            ("GET", "/v1/nope", None),
            // Debug routes are off: their path is no row at all.
            ("GET", "/v1/debug/sleep", None),
            ("POST", "/v1/debug/sleep", None),
        ] {
            let reply = talk(
                addr,
                format!("{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
                    .as_bytes(),
            );
            let status = if allow.is_some() { 405 } else { 404 };
            assert!(
                reply.starts_with(&format!("HTTP/1.1 {status} ")),
                "{method} {target}: {reply}"
            );
            let header = reply
                .lines()
                .take_while(|l| !l.is_empty())
                .find_map(|l| l.strip_prefix("Allow: "));
            assert_eq!(header, allow, "{method} {target}: {reply}");
        }
        assert!(handle.shutdown().clean);
    }

    #[test]
    fn drain_refuses_new_connections_but_finishes_admitted_work() {
        let handle = Server::start(tiny_config()).expect("bind");
        let addr = handle.local_addr();
        handle.inner.engine().request_drain();
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
