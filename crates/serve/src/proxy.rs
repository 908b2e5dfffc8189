//! `dg-router`: a consistent-hash reverse proxy over N `dg-serve` shards.
//!
//! The router owns the client-facing listener and forwards every request
//! but the control routes to one of its shards over pooled keep-alive
//! upstream connections ([`crate::client::Conn`], the crate's one client
//! connection). The shard is chosen by consistent-hashing the request's
//! *content key* ([`crate::routes::Query::key`], read off the same route
//! table the shards resolve requests with) on a [`HashRing`], which gives
//! the deployment its scaling property: identical requests always land on
//! the same shard, so each shard's response cache and substrate caches
//! see every repeat of a key instead of `1/N` of them.
//!
//! Failure handling is two-layered (DESIGN.md §12):
//!
//! * **request path** — an upstream transport fault on a pooled socket
//!   retries once on a fresh connection (the shard may simply have closed
//!   it at its per-connection cap); a fresh-connection fault ejects the
//!   shard immediately and the request is re-routed to the next live
//!   shard clockwise, so a SIGKILLed shard costs in-flight requests at
//!   most one retry, never a 5xx.
//! * **health loop** — a background thread probes `GET /healthz` on every
//!   shard every 100 ms; two consecutive failures eject a shard, and a
//!   single success rejoins it (its cache-warm arcs return with it).
//!
//! The router answers every control route ([`Kind::Control`]) itself:
//! `GET /healthz` with per-shard liveness, `GET /metrics` by aggregating
//! the shards' Prometheus text with a `shard="i"` label plus the router's
//! own counters, and `POST /admin/drain` by draining the router (never a
//! shard). Everything else is forwarded verbatim — the request as its
//! method, target and body bytes, and the shard's reply byte-for-byte as
//! [`crate::http::read_reply`] framed it, so `Retry-After` and every
//! other header pass through untouched.
//!
//! The client-facing side is the shard's own connection engine
//! ([`crate::event_loop`]) with a router `Dispatcher`: `/healthz`, the
//! drain and reply-cache hits are answered inline on the event loop, and
//! only cache misses (and `/metrics` scrapes) are queued for a small pool
//! of blocking forward workers. Parse errors, shedding and graceful drain
//! are the engine's, exactly as on a shard. The loop never resolves a
//! request against the route table beyond its path: a bounded reply
//! cache (a `respcache::Fifo`, like the shard's response cache) is keyed
//! by the FNV-1a hash of the request's method, target and body, so a
//! repeat is answered from its bytes alone, with no upstream exchange
//! (sound because every simulation reply is a pure function of its
//! request). The forward worker that takes a miss derives the shard key.
//! A stream enters that cache only in the form a shard replays a cached
//! result in — one result line, no progress — so a hit never repeats a
//! computed stream's progress lines.

use crate::client::Conn;
use crate::event_loop::{
    Admit, Dispatcher, Engine, EngineConfig, EngineHandle, Event, Outbox, RETRY_AFTER_BASE_SECS,
};
use crate::http::{write_response, RawReply, Request};
use crate::json::{obj, Json};
use crate::metrics::Route;
use crate::respcache::{Fifo, DEFAULT_MAX_BYTES};
use crate::ring::{HashRing, DEFAULT_REPLICAS};
use crate::routes::{drain, kind_of, reason_of, Kind, Query, Response};
use darkgates::pdn::cache::ContentKey;
use dg_engine::sync::TrackedMutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Cache-miss requests queued ahead of the forward workers before the
/// router sheds that request with 503.
const QUEUE_DEPTH: usize = 256;

/// Requests served on one client connection before it is closed.
const MAX_REQUESTS_PER_CONN: usize = 10_000;

/// Idle client-connection timeout, ms.
const READ_TIMEOUT_MS: u64 = 5_000;

/// Per-operation upstream socket timeout.
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(30);

/// Health-probe cadence, ms.
const HEALTH_INTERVAL_MS: u64 = 100;

/// Consecutive probe failures before a shard is ejected.
const HEALTH_FAILURES: u32 = 2;

/// Configuration for [`RouterServer::start`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard addresses, in ring order (index = shard id).
    pub shards: Vec<SocketAddr>,
    /// Forwarding worker threads (each owns its upstream pool). Only
    /// cache-miss requests reach them; everything else is answered on
    /// the event loop.
    pub workers: usize,
    /// Entries in the router's reply cache (0 disables it). Simulation
    /// responses are pure functions of their request — the same argument
    /// that makes the shard's response cache sound — so the router may
    /// serve a repeated request the exact shard bytes without an upstream
    /// exchange.
    pub reply_cache_entries: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: Vec::new(),
            workers: 16,
            reply_cache_entries: 4_096,
        }
    }
}

/// The router's own observability counters (rendered under
/// `dg_router_*` in the aggregated `/metrics`).
#[derive(Debug, Default)]
struct RouterMetrics {
    /// Requests parsed from clients (forwarded or answered locally).
    requests_total: AtomicU64,
    /// Forward attempts that failed over to another shard.
    retries_total: AtomicU64,
    /// Shards marked dead (by the request path or the health loop).
    ejections_total: AtomicU64,
    /// Shards marked live again by the health loop.
    rejoins_total: AtomicU64,
    /// Requests answered 503 because no live shard remained.
    unrouteable_total: AtomicU64,
    /// Client requests rejected by the router's own parser.
    bad_requests_total: AtomicU64,
    /// Connections shed because the dispatch queue was full.
    shed_total: AtomicU64,
    /// Requests answered from the router's reply cache.
    cache_hits_total: AtomicU64,
    /// Successful forwards per shard.
    shard_requests: Vec<AtomicU64>,
}

/// What a forward worker is asked to do.
enum ProxyJob {
    /// Forward to the request's shard (the cache-miss path). `key` is the
    /// reply-cache key; `kind` decides which replies the cache may admit.
    Forward {
        request: Request,
        key: u64,
        kind: Kind,
    },
    /// Render the aggregated `/metrics` (scrapes every live shard, so it
    /// must not run on the event loop).
    Metrics,
}

/// The router's half of the connection engine: the ring, shard liveness,
/// counters and reply cache the event loop, the forward workers and the
/// health loop share.
struct Proxy {
    config: RouterConfig,
    ring: HashRing,
    alive: Vec<AtomicBool>,
    counters: RouterMetrics,
    /// The engine's drain flag, which `POST /admin/drain` sets.
    draining: Arc<AtomicBool>,
    /// Verbatim shard replies by request bytes (the FNV-1a hash of method,
    /// target and body); `None` when
    /// [`RouterConfig::reply_cache_entries`] is 0. Only clean 200 replies
    /// to [`Kind::Cacheable`] routes and [`Kind::Stream`] replies in the
    /// shard's replay form ([`RawReply::is_stream_replay`]: one `{"ok":true…}`
    /// result line and no progress) are admitted, so an entry is exactly
    /// the bytes the owning shard would send again. A computed stream is
    /// relayed but never cached: its progress lines must not reach a
    /// later client.
    replies: Option<TrackedMutex<Fifo<Arc<Vec<u8>>>>>,
}

impl Proxy {
    fn is_alive(&self, shard: usize) -> bool {
        self.alive
            .get(shard)
            .is_some_and(|a| a.load(Ordering::SeqCst))
    }

    /// The cached reply for `key`: one lock, one map lookup.
    fn cached_reply(&self, key: u64) -> Option<Arc<Vec<u8>>> {
        self.replies.as_ref()?.lock().get(key).map(Arc::clone)
    }

    /// Admits a reply to the reply cache (a no-op when the cache is off
    /// or already holds `key`).
    fn cache_reply(&self, key: u64, bytes: &[u8]) {
        if let Some(replies) = &self.replies {
            let entry = Arc::new(bytes.to_vec());
            replies.lock().insert(key, entry, bytes.len());
        }
    }

    /// Marks a shard dead; counts the ejection only on a live→dead edge.
    fn eject(&self, shard: usize) {
        if let Some(a) = self.alive.get(shard) {
            if a.swap(false, Ordering::SeqCst) {
                self.counters
                    .ejections_total
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Marks a shard live; counts the rejoin only on a dead→live edge.
    fn rejoin(&self, shard: usize) {
        if let Some(a) = self.alive.get(shard) {
            if !a.swap(true, Ordering::SeqCst) {
                self.counters.rejoins_total.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Dispatcher for Proxy {
    type Job = ProxyJob;
    /// Each forward worker's pooled keep-alive connection per shard.
    type WorkerState = HashMap<usize, Conn>;

    fn admit(&self, request: Request, close: bool) -> Admit<ProxyJob> {
        self.counters.requests_total.fetch_add(1, Ordering::Relaxed);
        let kind = match kind_of(&request.method, &request.target) {
            Kind::Control(Route::Healthz) => {
                let bytes = healthz_bytes(self, close);
                return Admit::Reply { bytes, close };
            }
            Kind::Control(Route::Metrics) => return Admit::Queue(ProxyJob::Metrics),
            // `POST /admin/drain` drains the router, never a shard.
            Kind::Control(_) => {
                let bytes = drain(&self.draining).framed(true);
                return Admit::Reply { bytes, close: true };
            }
            kind => kind,
        };
        let key = ContentKey::new()
            .word(request.method.len() as u64)
            .bytes(request.method.as_bytes())
            .word(request.target.len() as u64)
            .bytes(request.target.as_bytes())
            .bytes(&request.body)
            .finish();
        if matches!(kind, Kind::Cacheable(_) | Kind::Stream(_)) {
            if let Some(bytes) = self.cached_reply(key) {
                self.counters
                    .cache_hits_total
                    .fetch_add(1, Ordering::Relaxed);
                let bytes = bytes.as_ref().clone();
                return Admit::Reply { bytes, close };
            }
        }
        Admit::Queue(ProxyJob::Forward { request, key, kind })
    }

    fn serve(
        &self,
        pools: &mut HashMap<usize, Conn>,
        job: ProxyJob,
        close: bool,
        out: &Outbox<'_>,
    ) {
        let (bytes, close) = match job {
            ProxyJob::Metrics => (
                Response::text(aggregated_metrics(self, pools)).framed(close),
                close,
            ),
            ProxyJob::Forward { request, key, kind } => match forward(self, &request, pools) {
                // Verbatim relay: the shard's exact bytes, headers
                // included — Retry-After, Content-Type, and framing all
                // pass through. (If the client-side `close` verdict
                // differs from the relayed `Connection` header, the
                // socket action after the write is what decides; both
                // sides handle an early close cleanly.)
                Some(reply) => {
                    let admit = match kind {
                        Kind::Cacheable(_) => !reply.close && reply.status == 200,
                        // A computed stream's progress lines must never
                        // be replayed; the shard's replay form is what it
                        // sends every later request on this key.
                        Kind::Stream(_) => reply.is_stream_replay(),
                        _ => false,
                    };
                    if admit {
                        self.cache_reply(key, &reply.bytes);
                    }
                    (reply.bytes, close)
                }
                None => {
                    self.counters
                        .unrouteable_total
                        .fetch_add(1, Ordering::Relaxed);
                    (unrouteable_bytes(), true)
                }
            },
        };
        out.push(bytes, true, close);
    }

    fn note(&self, event: Event) {
        let counter = match event {
            Event::Shed => &self.counters.shed_total,
            Event::BadRequest(_) => &self.counters.bad_requests_total,
            Event::Accepted | Event::Panic => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running router; dropping the handle does NOT stop it — call
/// [`RouterHandle::shutdown`].
pub struct RouterHandle {
    inner: EngineHandle<Proxy>,
    health: JoinHandle<()>,
}

impl std::fmt::Debug for RouterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterHandle")
            .field("local_addr", &self.inner.local_addr())
            .field("shards", &self.inner.engine().dispatcher.config.shards)
            .finish()
    }
}

/// The `dg-router` entry point.
pub struct RouterServer;

impl RouterServer {
    /// Binds the router and spawns its event loop, forward workers, and
    /// health thread.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when no shards are configured; otherwise bind /
    /// socket-option failures.
    pub fn start(config: RouterConfig) -> std::io::Result<RouterHandle> {
        if config.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one shard",
            ));
        }
        let engine = EngineConfig {
            addr: config.addr.clone(),
            name: "dg-router",
            workers: config.workers,
            queue_depth: QUEUE_DEPTH,
            read_timeout_ms: READ_TIMEOUT_MS,
            max_requests_per_conn: MAX_REQUESTS_PER_CONN,
        };
        let n = config.shards.len();
        let draining = Arc::new(AtomicBool::new(false));
        let proxy = Proxy {
            ring: HashRing::new(n, DEFAULT_REPLICAS),
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            draining: Arc::clone(&draining),
            counters: RouterMetrics {
                shard_requests: (0..n).map(|_| AtomicU64::new(0)).collect(),
                ..RouterMetrics::default()
            },
            replies: (config.reply_cache_entries > 0).then(|| {
                TrackedMutex::new(
                    "serve.router.replycache",
                    Fifo::new(config.reply_cache_entries, DEFAULT_MAX_BYTES),
                )
            }),
            config,
        };
        let inner = Engine::start(engine, proxy, draining)?;
        let health = {
            let engine = Arc::clone(inner.engine());
            std::thread::spawn(move || health_loop(&engine.dispatcher, &engine.draining))
        };
        Ok(RouterHandle { inner, health })
    }
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Whether a drain has been requested (by `POST /admin/drain`, or by
    /// [`RouterHandle::shutdown`]).
    pub fn is_draining(&self) -> bool {
        self.inner.engine().draining.load(Ordering::SeqCst)
    }

    /// Drains like a shard — the listener closes, idle connections drop,
    /// requests already admitted are forwarded and answered, each
    /// connection closing after its reply — then joins every thread.
    /// Returns `true` when all threads exited cleanly.
    pub fn shutdown(self) -> bool {
        let report = self.inner.shutdown();
        report.clean & self.health.join().is_ok()
    }
}

/// The 503 for a request with no live shard to take it.
fn unrouteable_bytes() -> Vec<u8> {
    let body = obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("no live shard".to_owned())),
    ])
    .render();
    write_response(
        503,
        reason_of(503),
        "application/json",
        &[("Retry-After".to_owned(), RETRY_AFTER_BASE_SECS.to_string())],
        body.as_bytes(),
        true,
    )
}

/// The router's own `GET /healthz` body: per-shard liveness.
fn healthz_bytes(proxy: &Proxy, close: bool) -> Vec<u8> {
    let shards: Vec<Json> = proxy
        .config
        .shards
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            obj(vec![
                (
                    "index",
                    Json::Num(f64::from(u32::try_from(i).unwrap_or(u32::MAX))),
                ),
                ("addr", Json::Str(addr.to_string())),
                ("alive", Json::Bool(proxy.is_alive(i))),
            ])
        })
        .collect();
    let live = (0..proxy.config.shards.len())
        .filter(|&i| proxy.is_alive(i))
        .count();
    let status = if live > 0 { "ok" } else { "unrouteable" };
    Response::ok_json(&obj(vec![
        ("status", Json::Str(status.to_owned())),
        ("role", Json::Str("router".to_owned())),
        ("shards", Json::Arr(shards)),
    ]))
    .framed(close)
}

/// Forwards to the shard that owns the request's content key (the
/// shard's own response-cache key), failing over clockwise on faults.
fn forward(proxy: &Proxy, request: &Request, pools: &mut HashMap<usize, Conn>) -> Option<RawReply> {
    let key = Query::parse(&request.method, &request.target, &request.body).key;
    let n = proxy.config.shards.len();
    let mut tried = vec![false; n];
    // The body goes out as the exact bytes the client sent: its
    // Content-Length is their count, so any re-encoding would desync the
    // pooled connection.
    let mut raw = format!(
        "{} {} HTTP/1.1\r\nHost: dg-router\r\nContent-Length: {}\r\n\r\n",
        request.method,
        request.target,
        request.body.len()
    )
    .into_bytes();
    raw.extend_from_slice(&request.body);
    for attempt in 0..n {
        let shard = proxy.ring.route(key, |s| {
            proxy.is_alive(s) && !tried.get(s).copied().unwrap_or(true)
        })?;
        if let Some(t) = tried.get_mut(shard) {
            *t = true;
        }
        match exchange_with_shard(proxy, shard, &raw, pools) {
            Ok(reply) => {
                if let Some(c) = proxy.counters.shard_requests.get(shard) {
                    c.fetch_add(1, Ordering::Relaxed);
                }
                if attempt > 0 {
                    proxy.counters.retries_total.fetch_add(1, Ordering::Relaxed);
                }
                return Some(reply);
            }
            Err(_) => {
                // A fresh connection to this shard failed too: it is dead
                // until the health loop sees it answer again.
                proxy.eject(shard);
            }
        }
    }
    None
}

/// One upstream exchange on this worker's pooled connection to `shard`.
/// The [`Conn`] replaces a stale pooled socket with a fresh one before
/// it reports a fault, so an error here means a fresh socket failed.
fn exchange_with_shard(
    proxy: &Proxy,
    shard: usize,
    raw: &[u8],
    pools: &mut HashMap<usize, Conn>,
) -> std::io::Result<RawReply> {
    let conn = match pools.entry(shard) {
        Entry::Occupied(pooled) => pooled.into_mut(),
        Entry::Vacant(slot) => {
            let addr = proxy.config.shards.get(shard).copied().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "shard index out of range")
            })?;
            slot.insert(Conn::new(addr, UPSTREAM_TIMEOUT))
        }
    };
    conn.exchange(raw)
}

/// Probes every shard until `stop` is set (the router's drain flag).
fn health_loop(proxy: &Proxy, stop: &AtomicBool) {
    let mut fail_streaks = vec![0u32; proxy.config.shards.len()];
    while !stop.load(Ordering::SeqCst) {
        for (i, addr) in proxy.config.shards.iter().enumerate() {
            let healthy = probe_health(*addr);
            let Some(streak) = fail_streaks.get_mut(i) else {
                continue;
            };
            if healthy {
                *streak = 0;
                proxy.rejoin(i);
            } else {
                *streak = streak.saturating_add(1);
                if *streak >= HEALTH_FAILURES {
                    proxy.eject(i);
                }
            }
        }
        // Sleep in small slices so shutdown is prompt.
        let deadline = HEALTH_INTERVAL_MS;
        let mut slept = 0;
        while slept < deadline && !stop.load(Ordering::SeqCst) {
            let slice = (deadline - slept).min(25);
            std::thread::sleep(Duration::from_millis(slice));
            slept += slice;
        }
    }
}

/// One `GET /healthz` probe on a fresh connection with a 500 ms timeout;
/// any transport fault or non-200 counts as unhealthy.
fn probe_health(addr: SocketAddr) -> bool {
    let probe = b"GET /healthz HTTP/1.1\r\nHost: dg-router\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    let reply = Conn::new(addr, Duration::from_millis(500)).exchange(probe);
    matches!(reply, Ok(reply) if reply.status == 200)
}

/// The router's counters plus every live shard's `/metrics`, scraped over
/// this worker's pooled connections, with each shard sample rewritten to
/// carry a `shard="i"` label.
fn aggregated_metrics(proxy: &Proxy, pools: &mut HashMap<usize, Conn>) -> String {
    let mut out = String::with_capacity(8 * 1024);
    let c = &proxy.counters;
    for (name, help, v) in [
        (
            "dg_router_requests_total",
            "Requests parsed by the router.",
            c.requests_total.load(Ordering::Relaxed),
        ),
        (
            "dg_router_retries_total",
            "Forwards that failed over to another shard.",
            c.retries_total.load(Ordering::Relaxed),
        ),
        (
            "dg_router_ejections_total",
            "Shards marked dead.",
            c.ejections_total.load(Ordering::Relaxed),
        ),
        (
            "dg_router_rejoins_total",
            "Shards marked live again.",
            c.rejoins_total.load(Ordering::Relaxed),
        ),
        (
            "dg_router_unrouteable_total",
            "Requests 503d with no live shard.",
            c.unrouteable_total.load(Ordering::Relaxed),
        ),
        (
            "dg_router_bad_requests_total",
            "Client requests rejected by the router parser.",
            c.bad_requests_total.load(Ordering::Relaxed),
        ),
        (
            "dg_router_shed_total",
            "Connections shed by router admission control.",
            c.shed_total.load(Ordering::Relaxed),
        ),
        (
            "dg_router_cache_hits_total",
            "Requests answered from the router reply cache.",
            c.cache_hits_total.load(Ordering::Relaxed),
        ),
    ] {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
        ));
    }
    let (entries, bytes) = proxy.replies.as_ref().map_or((0, 0), |replies| {
        let replies = replies.lock();
        (replies.len(), replies.bytes())
    });
    for (name, help, v) in [
        (
            "dg_router_reply_cache_entries",
            "Replies held in the router reply cache.",
            entries,
        ),
        (
            "dg_router_reply_cache_bytes",
            "Reply bytes held in the router reply cache.",
            bytes,
        ),
    ] {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
        ));
    }
    out.push_str("# HELP dg_router_shard_requests_total Successful forwards per shard.\n");
    out.push_str("# TYPE dg_router_shard_requests_total counter\n");
    for (i, v) in c.shard_requests.iter().enumerate() {
        out.push_str(&format!(
            "dg_router_shard_requests_total{{shard=\"{i}\"}} {}\n",
            v.load(Ordering::Relaxed)
        ));
    }
    out.push_str("# HELP dg_router_shard_alive Shard liveness (1 = routable).\n");
    out.push_str("# TYPE dg_router_shard_alive gauge\n");
    for i in 0..proxy.config.shards.len() {
        out.push_str(&format!(
            "dg_router_shard_alive{{shard=\"{i}\"}} {}\n",
            u8::from(proxy.is_alive(i))
        ));
    }
    let scrape = b"GET /metrics HTTP/1.1\r\nHost: dg-router\r\nContent-Length: 0\r\n\r\n";
    for i in 0..proxy.config.shards.len() {
        if !proxy.is_alive(i) {
            continue;
        }
        let Ok(reply) = exchange_with_shard(proxy, i, scrape, pools) else {
            continue;
        };
        if reply.status != 200 {
            continue;
        }
        for line in String::from_utf8_lossy(&reply.body()).lines() {
            if line.is_empty() || line.starts_with('#') {
                continue; // HELP/TYPE would repeat per shard; drop them
            }
            out.push_str(&relabel(line, i));
            out.push('\n');
        }
    }
    out
}

/// Rewrites `name{labels} v` / `name v` to carry `shard="i"` first.
fn relabel(line: &str, shard: usize) -> String {
    if let Some(brace) = line.find('{') {
        let (name, rest) = line.split_at(brace);
        let rest = rest.get(1..).unwrap_or_default(); // drop the '{'
        format!("{name}{{shard=\"{shard}\",{rest}")
    } else if let Some((name, value)) = line.split_once(' ') {
        format!("{name}{{shard=\"{shard}\"}} {value}")
    } else {
        line.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::http_request;
    use crate::server::{Server, ServerConfig};

    fn start_shard() -> crate::server::ServerHandle {
        Server::start(ServerConfig {
            workers: 2,
            queue_depth: 64,
            ..ServerConfig::default()
        })
        .expect("shard start")
    }

    /// The router's own counters.
    fn counters(router: &RouterHandle) -> &RouterMetrics {
        &router.inner.engine().dispatcher.counters
    }

    /// A test router with the reply cache off, so every request actually
    /// exercises the forward path (affinity and failover assertions
    /// depend on shard traffic, which cache hits would mask).
    fn start_router(shards: Vec<SocketAddr>) -> RouterHandle {
        start_router_with_cache(shards, 0)
    }

    fn start_router_with_cache(
        shards: Vec<SocketAddr>,
        reply_cache_entries: usize,
    ) -> RouterHandle {
        RouterServer::start(RouterConfig {
            shards,
            workers: 4,
            reply_cache_entries,
            ..RouterConfig::default()
        })
        .expect("router start")
    }

    #[test]
    fn router_forwards_with_affinity_and_aggregates_metrics() {
        let shard_a = start_shard();
        let shard_b = start_shard();
        let router = start_router(vec![shard_a.local_addr(), shard_b.local_addr()]);
        let addr = router.local_addr();

        // Identical requests must land on one shard (cache affinity).
        let body = r#"{"variant":"gated","from_a":10,"to_a":60}"#;
        for _ in 0..4 {
            let reply = http_request(addr, "POST", "/v1/droop", Some(body)).expect("droop");
            assert_eq!(reply.status, 200, "{}", reply.body);
            assert!(reply.body.contains("\"ok\":true"));
        }
        let per_shard: Vec<u64> = counters(&router)
            .shard_requests
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        assert_eq!(per_shard.iter().sum::<u64>(), 4);
        assert!(
            per_shard.contains(&4),
            "identical keys must stick to one shard: {per_shard:?}"
        );

        // Router-local healthz reports both shards live.
        let health = http_request(addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"role\":\"router\""));
        assert_eq!(health.body.matches("\"alive\":true").count(), 2);

        // Aggregated metrics carry shard labels and router counters.
        let metrics = http_request(addr, "GET", "/metrics", None).expect("metrics");
        assert!(metrics.body.contains("dg_router_requests_total"));
        assert!(metrics.body.contains("shard=\"0\""));
        assert!(metrics.body.contains("shard=\"1\""));
        assert!(metrics.body.contains("dg_requests_total{shard="));
        // The reply cache is off, so its budget gauges read 0.
        assert!(metrics.body.contains("dg_router_reply_cache_entries 0\n"));
        assert!(metrics.body.contains("dg_router_reply_cache_bytes 0\n"));
        // Each shard's cache gauges arrive per shard: the droop's one body
        // sits in the memory tier of the shard that computed it, and
        // neither shard has a disk tier.
        let resp_entries: u64 = metrics
            .body
            .lines()
            .filter_map(|l| l.strip_prefix("dg_resp_cache_entries{shard="))
            .filter_map(|rest| rest.rsplit(' ').next()?.parse::<u64>().ok())
            .sum();
        assert_eq!(resp_entries, 1, "{}", metrics.body);
        for i in 0..2 {
            for gauge in ["dg_disk_cache_entries", "dg_disk_cache_bytes"] {
                let line = format!("{gauge}{{shard=\"{i}\"}} 0\n");
                assert!(metrics.body.contains(&line), "{line}{}", metrics.body);
            }
        }

        // Malformed framing is rejected by the router itself.
        let bad = crate::client::raw_request(addr, b"NOT HTTP\r\n\r\n").expect("raw");
        assert_eq!(bad.status, 400);
        assert_eq!(
            counters(&router).bad_requests_total.load(Ordering::SeqCst),
            1
        );

        assert!(router.shutdown(), "router threads must join cleanly");
        shard_a.shutdown();
        shard_b.shutdown();
    }

    #[test]
    fn dead_shard_is_ejected_and_traffic_fails_over_without_5xx() {
        let shard_a = start_shard();
        let shard_b = start_shard();
        let router = start_router(vec![shard_a.local_addr(), shard_b.local_addr()]);
        let addr = router.local_addr();

        // Warm both arcs with a spread of keys.
        for i in 0..6 {
            let body = format!(
                "{{\"variant\":\"gated\",\"from_a\":10,\"to_a\":{}}}",
                40 + i
            );
            let reply = http_request(addr, "POST", "/v1/droop", Some(&body)).expect("droop");
            assert_eq!(reply.status, 200);
        }

        // Kill shard 1; its keys must fail over with zero 5xx.
        shard_b.shutdown();
        for i in 0..12 {
            let body = format!(
                "{{\"variant\":\"gated\",\"from_a\":10,\"to_a\":{}}}",
                40 + i
            );
            let reply = http_request(addr, "POST", "/v1/droop", Some(&body)).expect("droop");
            assert_eq!(
                reply.status, 200,
                "request {i} after shard death: {}",
                reply.body
            );
        }
        assert_eq!(
            counters(&router).unrouteable_total.load(Ordering::SeqCst),
            0
        );

        // The health loop confirms the ejection in the liveness gauges.
        let gauges = || {
            http_request(addr, "GET", "/metrics", None)
                .expect("metrics")
                .body
        };
        let deadline = crate::metrics::monotonic_us() + 5_000_000;
        let mut metrics = gauges();
        while !metrics.contains("dg_router_shard_alive{shard=\"1\"} 0")
            && crate::metrics::monotonic_us() < deadline
        {
            std::thread::sleep(Duration::from_millis(25));
            metrics = gauges();
        }
        assert!(
            metrics.contains("dg_router_shard_alive{shard=\"1\"} 0"),
            "shard 1 must be ejected"
        );
        assert!(metrics.contains("dg_router_shard_alive{shard=\"0\"} 1"));
        assert!(
            counters(&router).ejections_total.load(Ordering::SeqCst) >= 1,
            "ejection must be counted"
        );

        assert!(router.shutdown());
        shard_a.shutdown();
    }

    #[test]
    fn reply_cache_short_circuits_repeat_keys_with_identical_bytes() {
        let shard = start_shard();
        let router = start_router_with_cache(vec![shard.local_addr()], 1_024);
        let addr = router.local_addr();

        let body = r#"{"variant":"gated","from_a":10,"to_a":60}"#;
        let first = http_request(addr, "POST", "/v1/droop", Some(body)).expect("droop");
        assert_eq!(first.status, 200, "{}", first.body);
        for _ in 0..3 {
            let repeat = http_request(addr, "POST", "/v1/droop", Some(body)).expect("droop");
            assert_eq!(repeat.status, 200);
            assert_eq!(
                repeat.body, first.body,
                "cached reply must be byte-identical"
            );
        }
        assert_eq!(
            counters(&router).cache_hits_total.load(Ordering::SeqCst),
            3,
            "repeats must be served from the router cache"
        );
        let forwarded: u64 = counters(&router)
            .shard_requests
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .sum();
        assert_eq!(forwarded, 1, "only the first request reaches the shard");

        // Error replies are never cached: each bad body hits the shard.
        for _ in 0..2 {
            let bad = http_request(addr, "POST", "/v1/droop", Some("{not json")).expect("bad");
            assert_eq!(bad.status, 400);
        }
        assert_eq!(
            counters(&router).cache_hits_total.load(Ordering::SeqCst),
            3,
            "non-200 replies must not be admitted to the cache"
        );

        assert!(router.shutdown());
        shard.shutdown();
    }

    /// Entries held in the router's reply cache.
    fn cached_entries(router: &RouterHandle) -> usize {
        let replies = router.inner.engine().dispatcher.replies.as_ref();
        replies.map_or(0, |r| r.lock().len())
    }

    #[test]
    fn reply_cache_admits_a_stream_in_its_replay_form_only() {
        let shard = start_shard();
        let router = start_router_with_cache(vec![shard.local_addr()], 1_024);
        let addr = router.local_addr();
        let hits = || counters(&router).cache_hits_total.load(Ordering::SeqCst);
        let forwarded = || -> u64 {
            let per_shard = &counters(&router).shard_requests;
            per_shard.iter().map(|c| c.load(Ordering::SeqCst)).sum()
        };
        let mut conn = Conn::new(addr, UPSTREAM_TIMEOUT);
        let mut held_bytes = 0;
        for (i, (path, body)) in [
            (
                "/v1/droop_sweep",
                r#"{"variant":"gated","source_v":1.0,"quiescent_a":6,"slew_ns":3,
                    "delta":{"start_a":4,"stop_a":44,"points":11}}"#,
            ),
            (
                "/v1/explore",
                r#"{"tech_nodes":[45,22],"tdp_w":[35,45,65,91],"big_perf":[10,20],
                    "small_perf":[1,2],"fraction_parallelism":[0.9],"batch":16}"#,
            ),
        ]
        .into_iter()
        .enumerate()
        {
            let raw = format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let (hits_before, forwarded_before) = (hits(), forwarded());

            // 1: computed — progress lines, then the result. Relayed,
            // never cached.
            let computed = conn.exchange(raw.as_bytes()).expect("computed stream");
            assert_eq!(computed.status, 200, "{path}");
            let text = String::from_utf8_lossy(&computed.bytes);
            assert!(text.contains("{\"completed\":"), "{path}: {text}");
            assert!(!computed.is_stream_replay(), "{path}");
            assert_eq!(cached_entries(&router), i, "{path}: progress is not cached");

            // 2: the shard's replay of its cached result. Relayed and
            // cached.
            let replay = conn.exchange(raw.as_bytes()).expect("replayed stream");
            assert!(replay.is_stream_replay(), "{path}");
            assert_eq!(
                cached_entries(&router),
                i + 1,
                "{path}: the replay is cached"
            );
            assert_eq!(forwarded(), forwarded_before + 2, "{path}");

            // 3-4: router hits, the replay's exact bytes.
            for _ in 0..2 {
                let hit = conn.exchange(raw.as_bytes()).expect("router hit");
                assert_eq!(
                    hit.bytes, replay.bytes,
                    "{path}: a hit is the shard's replay"
                );
            }
            assert_eq!(hits(), hits_before + 2, "{path}");
            assert_eq!(
                forwarded(),
                forwarded_before + 2,
                "{path}: hits skip the shard"
            );
            held_bytes += replay.bytes.len();
        }

        // The budget gauges count both replays.
        let metrics = http_request(addr, "GET", "/metrics", None).expect("metrics");
        assert!(metrics.body.contains("dg_router_reply_cache_entries 2\n"));
        let bytes_gauge = format!("dg_router_reply_cache_bytes {held_bytes}\n");
        assert!(metrics.body.contains(&bytes_gauge), "{}", metrics.body);

        assert!(router.shutdown());
        shard.shutdown();
    }

    #[test]
    fn a_reply_cache_hit_needs_no_forward_worker() {
        let shard = Server::start(ServerConfig {
            workers: 2,
            enable_debug_routes: true,
            ..ServerConfig::default()
        })
        .expect("shard start");
        let router = RouterServer::start(RouterConfig {
            shards: vec![shard.local_addr()],
            workers: 1,
            reply_cache_entries: 1_024,
            ..RouterConfig::default()
        })
        .expect("router start");
        let addr = router.local_addr();
        let body = r#"{"variant":"gated","from_a":10,"to_a":60}"#;
        let first = http_request(addr, "POST", "/v1/droop", Some(body)).expect("droop");
        assert_eq!(first.status, 200, "{}", first.body);

        // Park the only forward worker in the shard's sleep.
        let sleeper = std::thread::spawn(move || {
            http_request(addr, "POST", "/v1/debug/sleep", Some(r#"{"ms":3000}"#))
        });
        let inflight = || shard.metrics().inflight.load(Ordering::SeqCst);
        let deadline = crate::metrics::monotonic_us() + 10_000_000;
        while inflight() == 0 {
            assert!(
                crate::metrics::monotonic_us() < deadline,
                "the sleep never reached the shard"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        let hit = http_request(addr, "POST", "/v1/droop", Some(body)).expect("hit");
        assert_eq!(hit.body, first.body);
        assert_eq!(counters(&router).cache_hits_total.load(Ordering::SeqCst), 1);
        assert!(
            !sleeper.is_finished() && inflight() == 1,
            "the hit was answered while the worker sat in the sleep"
        );
        let slept = sleeper.join().expect("sleeper").expect("sleep reply");
        assert_eq!(slept.status, 200, "{}", slept.body);

        assert!(router.shutdown());
        assert!(shard.shutdown().clean);
    }

    #[test]
    fn two_spellings_share_a_shard_and_each_gets_its_own_reply_entry() {
        let shards = [start_shard(), start_shard()];
        let router =
            start_router_with_cache(shards.iter().map(|s| s.local_addr()).collect(), 1_024);
        let addr = router.local_addr();
        let forwarded = || -> Vec<u64> {
            let per_shard = &counters(&router).shard_requests;
            per_shard.iter().map(|c| c.load(Ordering::SeqCst)).collect()
        };
        let hits = || counters(&router).cache_hits_total.load(Ordering::SeqCst);
        // The shards' response-cache hits, from the aggregated scrape.
        let shard_hits = || -> u64 {
            let metrics = http_request(addr, "GET", "/metrics", None).expect("metrics");
            let samples = metrics.body.lines();
            let hits = samples.filter_map(|l| l.strip_prefix("dg_resp_cache_hits_total{shard="));
            hits.filter_map(|rest| rest.rsplit(' ').next()?.parse::<u64>().ok())
                .sum()
        };
        let droop = |body: &str| {
            let raw = format!(
                "POST /v1/droop HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            raw.into_bytes()
        };
        let spelling_a = droop(r#"{"variant":"gated","from_a":10,"to_a":60}"#);
        let spelling_b = droop(r#"{"to_a":60,"variant":"gated","from_a":10}"#);
        let mut conn = Conn::new(addr, UPSTREAM_TIMEOUT);

        let first = conn.exchange(&spelling_a).expect("first spelling");
        assert_eq!(first.status, 200);
        assert_eq!(forwarded().iter().sum::<u64>(), 1);
        let shard_hits_before = shard_hits();

        // The second spelling's first request is forwarded to the same
        // shard, which answers it from its response cache.
        let second = conn.exchange(&spelling_b).expect("second spelling");
        assert_eq!(second.body(), first.body(), "one droop, one body");
        assert!(forwarded().contains(&2), "one shard: {:?}", forwarded());
        assert_eq!(shard_hits(), shard_hits_before + 1);
        assert_eq!(hits(), 0);

        // Its repeat is a router hit, as is the first spelling's.
        for spelling in [&spelling_b, &spelling_a] {
            let repeat = conn.exchange(spelling).expect("repeat");
            assert_eq!(repeat.body(), first.body());
        }
        assert_eq!(hits(), 2);
        assert_eq!(forwarded().iter().sum::<u64>(), 2);
        assert_eq!(cached_entries(&router), 2, "each spelling has its entry");

        assert!(router.shutdown());
        for shard in shards {
            assert!(shard.shutdown().clean);
        }
    }

    #[test]
    fn relabel_handles_both_sample_shapes() {
        assert_eq!(
            relabel("dg_requests_total{route=\"droop\",class=\"2xx\"} 7", 2),
            "dg_requests_total{shard=\"2\",route=\"droop\",class=\"2xx\"} 7"
        );
        assert_eq!(
            relabel("dg_shed_total 3", 0),
            "dg_shed_total{shard=\"0\"} 3"
        );
    }

    #[test]
    fn shutdown_finishes_a_request_already_in_flight() {
        let shard = Server::start(ServerConfig {
            workers: 2,
            enable_debug_routes: true,
            ..ServerConfig::default()
        })
        .expect("shard start");
        let router = RouterServer::start(RouterConfig {
            shards: vec![shard.local_addr()],
            workers: 1,
            reply_cache_entries: 0,
            ..RouterConfig::default()
        })
        .expect("router start");
        let addr = router.local_addr();
        let client = std::thread::spawn(move || {
            http_request(addr, "POST", "/v1/debug/sleep", Some(r#"{"ms":300}"#))
        });
        // Admitted by the router's event loop: from here on the request is
        // queued or forwarded, so the drain must wait for its reply.
        let deadline = crate::metrics::monotonic_us() + 10_000_000;
        while counters(&router).requests_total.load(Ordering::SeqCst) == 0 {
            assert!(
                crate::metrics::monotonic_us() < deadline,
                "request never reached the router"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(router.shutdown(), "router drains cleanly");
        let reply = client.join().expect("client").expect("in-flight reply");
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(shard.shutdown().clean);
    }
}
