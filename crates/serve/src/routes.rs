//! Route table and handlers: the HTTP surface over the experiment stack.
//!
//! [`kind_of`] classifies a request once, on its method and path: a
//! control route, a cacheable simulation route, a streaming route, or
//! anything else. Every simulation route runs through the response cache,
//! keyed by the same content-hash scheme the substrate caches use
//! ([`darkgates::pdn::cache::ContentKey`]): the key folds in every request
//! parameter that affects the response, so two requests share an entry
//! exactly when their physics is identical. Handlers call the *library*
//! entry points (`darkgates::claims`, `dg_pdn::transient`, `dg_soc::run`,
//! the substrate caches) — nothing here shells out to the bench binaries.

use crate::http::Request;
use crate::json::{self, obj, Json};
use crate::metrics::{Metrics, Route};
use crate::respcache::ResponseCache;
use darkgates::claims;
use darkgates::pdn::cache::{ladder_key, ContentKey};
use darkgates::pdn::didt;
use darkgates::pdn::impedance::ImpedanceAnalyzer;
use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};
use darkgates::pdn::transient::{LoadStep, TransientSim};
use darkgates::pdn::units::{Amps, Hertz, Seconds, Volts, Watts};
use darkgates::soc::products::Product;
use darkgates::soc::run::{run_energy, run_graphics, run_spec};
use darkgates::workloads::energy::{energy_star, ready_mode, video_conferencing, web_browsing};
use darkgates::workloads::graphics::three_dmark_suite;
use darkgates::workloads::spec::{by_name, SpecMode};
use darkgates::DarkGates;
use dg_explore::ExploreSpec;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Largest accepted impedance-sweep point count (compute admission).
const MAX_SWEEP_POINTS: u64 = 20_000;

/// Largest accepted `/v1/explore` grid (compute admission: one sweep
/// holds a worker for its whole runtime; the library's own
/// [`dg_explore::MAX_POINTS`] memory bound is far looser).
pub const MAX_EXPLORE_POINTS: u64 = 20_000;

/// Largest accepted `/v1/droop_batch` lane count (compute admission: one
/// batch integrates every lane in lockstep on one worker). The explicit-SIMD
/// kernel amortises per-step bookkeeping across lanes, so wide batches are
/// the cheap shape — the cap bounds memory, not compute.
const MAX_BATCH_LANES: usize = 256;

/// Largest accepted `/v1/droop_sweep` lane count after server-side grid
/// expansion (population-scale admission: the sweep is chunked across the
/// worker pool in [`darkgates::pdn::didt`]-sized batches, so the cap bounds
/// total stream size rather than any single worker's runtime).
pub const MAX_SWEEP_LANES: u64 = 8_192;

/// Largest accepted debug-sleep duration.
const MAX_SLEEP_MS: u64 = 10_000;

/// A fully formed response, ready for `http::write_response`.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body (shared: a cache hit clones the `Arc`).
    pub body: Arc<String>,
}

impl Response {
    /// A JSON response around an already rendered body.
    fn of_body(status: u16, body: Arc<String>) -> Self {
        Response {
            status,
            reason: reason_of(status),
            content_type: "application/json",
            body,
        }
    }

    fn json(status: u16, body: String) -> Self {
        Self::of_body(status, Arc::new(body))
    }

    fn ok_json(value: &Json) -> Self {
        Self::json(200, value.render())
    }

    fn error(status: u16, message: &str) -> Self {
        let body = obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str(message.to_owned())),
        ]);
        Self::json(status, body.render())
    }
}

/// The reason phrase for the statuses this server emits.
pub(crate) fn reason_of(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// A handler-level failure: status plus a human-readable message.
struct RouteError {
    status: u16,
    message: String,
}

fn bad_request(message: impl Into<String>) -> RouteError {
    RouteError {
        status: 400,
        message: message.into(),
    }
}

type HandlerResult = Result<Json, RouteError>;

/// A planned stream computation, boxed so every streaming route
/// (`/v1/explore`, `/v1/droop_sweep`) presents the worker with the same
/// shape: invoke it with a sink for newline-terminated NDJSON progress
/// lines and collect the status and the final result line (no trailing
/// newline). The runner caches a `200` result line.
pub type StreamRunner<'r> = Box<dyn FnOnce(&mut dyn FnMut(&str)) -> (u16, Arc<String>) + 'r>;

/// What the worker should do with a request on a streaming route
/// (computed by [`Router::plan_stream`] before any bytes go out).
pub enum StreamPlan<'r> {
    /// Invalid spec or oversized grid: answer with an ordinary framed
    /// response — no stream ever starts.
    Reject(Response),
    /// The result line is already cached (memory or disk tier): stream
    /// head + result line + terminator without running anything.
    Cached(Arc<String>),
    /// Run the computation, streaming its progress lines.
    Run(StreamRunner<'r>),
}

/// How the serve tier treats a request, decided once on its method and
/// path; a query string never changes it. A shard and `dg-router` both
/// dispatch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GET /healthz`, `GET /metrics` and `POST /admin/drain` (labelled
    /// [`Route::Other`]): cheap control routes a shard answers on its
    /// event loop, so overload never queues or sheds them.
    Control(Route),
    /// A simulation route whose `200` body is a pure function of its
    /// content key, so a shard's memory-tier fast path and the router's
    /// reply cache may answer a repeat.
    Cacheable(Route),
    /// `POST /v1/explore` and `POST /v1/droop_sweep`: chunked NDJSON
    /// streams, relayed by the router and never held in its reply cache.
    Stream(Route),
    /// Anything else: 404s, 405s and the debug routes.
    Other,
}

/// Classifies a request by its method and the path part of its target.
pub fn kind_of(method: &str, target: &str) -> Kind {
    let path = target.split('?').next().unwrap_or(target);
    match (method, path) {
        ("GET", "/healthz") => Kind::Control(Route::Healthz),
        ("GET", "/metrics") => Kind::Control(Route::Metrics),
        ("POST", "/admin/drain") => Kind::Control(Route::Other),
        ("GET", "/v1/claims") => Kind::Cacheable(Route::Claims),
        ("POST", "/v1/droop") => Kind::Cacheable(Route::Droop),
        ("POST", "/v1/droop_batch") => Kind::Cacheable(Route::DroopBatch),
        ("POST", "/v1/sweep") => Kind::Cacheable(Route::Sweep),
        ("POST", "/v1/product") => Kind::Cacheable(Route::Product),
        ("POST", "/v1/explore") => Kind::Stream(Route::Explore),
        ("POST", "/v1/droop_sweep") => Kind::Stream(Route::DroopSweep),
        _ => Kind::Other,
    }
}

/// Dispatches requests to handlers; shared across all worker threads.
#[derive(Debug)]
pub struct Router {
    metrics: Arc<Metrics>,
    respcache: ResponseCache,
    draining: Arc<AtomicBool>,
    debug_routes: bool,
}

impl Router {
    /// A router recording into `metrics` and flagging drain requests on
    /// `draining`. `debug_routes` additionally enables `/v1/debug/sleep`
    /// (used by the overload tests; keep it off in production).
    pub fn new(metrics: Arc<Metrics>, draining: Arc<AtomicBool>, debug_routes: bool) -> Self {
        Router {
            metrics,
            respcache: ResponseCache::default(),
            draining,
            debug_routes,
        }
    }

    /// Answers from the in-memory response-cache tier only — the event
    /// loop's inline fast path. A hit costs one JSON parse and one mutex
    /// lock; it never touches the disk tier and never occupies a compute
    /// worker, so repeated identical requests skip both thread handoffs
    /// of the dispatch path. Returns `None` for anything that must go
    /// through [`Router::handle`].
    pub fn cached_response(&self, req: &Request) -> Option<(Route, Response)> {
        let Kind::Cacheable(route) = kind_of(&req.method, &req.target) else {
            return None;
        };
        let key = content_key_of(&req.method, &req.target, &req.body);
        let body = self.respcache.get_memory(key)?;
        self.metrics
            .resp_cache_hits_total
            .fetch_add(1, Ordering::Relaxed);
        Some((route, Response::of_body(200, body)))
    }

    /// Handles one parsed request, returning the route label (for
    /// metrics) and the response.
    pub fn handle(&self, req: &Request) -> (Route, Response) {
        match kind_of(&req.method, &req.target) {
            Kind::Control(route) => (route, self.control(route)),
            Kind::Cacheable(Route::Claims) => (
                Route::Claims,
                self.cache_or_compute(ContentKey::new().bytes(b"claims").finish(), claims_route),
            ),
            Kind::Cacheable(Route::Droop) => {
                (Route::Droop, self.json_route(req, droop_key, droop_route))
            }
            Kind::Cacheable(Route::DroopBatch) => (
                Route::DroopBatch,
                self.json_route(req, droop_batch_key, droop_batch_route),
            ),
            Kind::Cacheable(Route::Sweep) => {
                (Route::Sweep, self.json_route(req, sweep_key, sweep_route))
            }
            Kind::Cacheable(Route::Product) => (
                Route::Product,
                self.json_route(req, product_key, product_route),
            ),
            Kind::Stream(route) => (route, self.stream_sync(route, req)),
            Kind::Cacheable(_) | Kind::Other => (Route::Other, self.other(req)),
        }
    }

    /// Answers a [`Kind::Control`] route: `/healthz`, `/metrics`, and
    /// `POST /admin/drain` for [`Route::Other`]. It touches no disk, queue
    /// or sleep, so a shard runs it on its event loop.
    pub(crate) fn control(&self, route: Route) -> Response {
        match route {
            Route::Healthz => self.healthz(),
            Route::Metrics => Response {
                status: 200,
                reason: "OK",
                content_type: "text/plain; version=0.0.4",
                body: Arc::new(self.metrics.render()),
            },
            // `POST /admin/drain`, the one other control route.
            _ => self.drain(),
        }
    }

    /// The debug routes when enabled, then 405 for a known path under the
    /// wrong method, else 404.
    fn other(&self, req: &Request) -> Response {
        let path = req.target.split('?').next().unwrap_or(&req.target);
        match (req.method.as_str(), path) {
            ("POST", "/v1/debug/sleep") if self.debug_routes => debug_sleep(req),
            (
                "GET" | "POST" | "HEAD" | "PUT" | "DELETE",
                "/healthz" | "/metrics" | "/v1/claims" | "/v1/droop" | "/v1/droop_batch"
                | "/v1/sweep" | "/v1/product" | "/v1/explore" | "/v1/droop_sweep" | "/admin/drain",
            ) => Response::error(405, "method not allowed for this resource"),
            _ => Response::error(404, "no such resource"),
        }
    }

    fn healthz(&self) -> Response {
        Response::ok_json(&obj(vec![
            ("status", Json::Str("ok".to_owned())),
            ("draining", Json::Bool(self.draining.load(Ordering::SeqCst))),
        ]))
    }

    fn drain(&self) -> Response {
        self.draining.store(true, Ordering::SeqCst);
        Response::ok_json(&obj(vec![("status", Json::Str("draining".to_owned()))]))
    }

    /// Parses the JSON body, derives the cache key, and answers from the
    /// cache or the handler.
    fn json_route(
        &self,
        req: &Request,
        key_of: fn(&Json) -> u64,
        handler: fn(&Json) -> HandlerResult,
    ) -> Response {
        let params = match body_json_of(&req.body) {
            Ok(params) => params,
            Err(resp) => return resp,
        };
        self.cache_or_compute(key_of(&params), move || handler(&params))
    }

    /// The cached `200` body under `key` (memory or disk tier), counted as
    /// a response-cache hit.
    fn cached(&self, key: u64) -> Option<Arc<String>> {
        let body = self.respcache.get(key)?;
        self.metrics
            .resp_cache_hits_total
            .fetch_add(1, Ordering::Relaxed);
        Some(body)
    }

    /// Caches `body` under `key` when `status` is `200`; passes both
    /// through.
    fn cache_ok(&self, key: u64, (status, body): (u16, Arc<String>)) -> (u16, Arc<String>) {
        if status == 200 {
            self.respcache.put(key, &body);
        }
        (status, body)
    }

    /// Answers from the response cache, or runs `compute` and caches its
    /// `200`.
    fn cache_or_compute(&self, key: u64, compute: impl FnOnce() -> HandlerResult) -> Response {
        if let Some(body) = self.cached(key) {
            return Response::of_body(200, body);
        }
        let (status, value) = match compute() {
            Ok(value) => (200, obj(vec![("ok", Json::Bool(true)), ("result", value)])),
            Err(e) => (
                e.status,
                obj(vec![
                    ("ok", Json::Bool(false)),
                    ("error", Json::Str(e.message)),
                ]),
            ),
        };
        let (status, body) = self.cache_ok(key, (status, Arc::new(value.render())));
        Response::of_body(status, body)
    }

    /// Validates a request on a streaming route and decides how the
    /// worker answers it: `Route::DroopSweep` plans a delta-grid droop
    /// sweep, everything else plans a design-space explore. Rejections
    /// (400/413) come back as ordinary framed responses; cache hits skip
    /// compute entirely; everything else returns a boxed runner the
    /// worker drives with its progress-line sink.
    pub fn plan_stream(&self, route: Route, req: &Request) -> StreamPlan<'_> {
        if route == Route::DroopSweep {
            self.plan_droop_sweep(req)
        } else {
            self.plan_explore(req)
        }
    }

    /// Plans a `POST /v1/explore` design-space sweep.
    fn plan_explore(&self, req: &Request) -> StreamPlan<'_> {
        let spec = match explore_spec_of(&req.body) {
            Ok(spec) => spec,
            Err(resp) => return StreamPlan::Reject(resp),
        };
        let points = spec.point_count();
        if points > MAX_EXPLORE_POINTS {
            return StreamPlan::Reject(Response::error(
                413,
                &format!("grid of {points} points exceeds the {MAX_EXPLORE_POINTS} point limit"),
            ));
        }
        let key = explore_key(&spec);
        if let Some(body) = self.cached(key) {
            return StreamPlan::Cached(body);
        }
        StreamPlan::Run(Box::new(move |progress| {
            let (status, body) =
                match dg_explore::run_with_progress(&spec, |p| progress(&progress_line(p))) {
                    Ok(result) => (
                        200,
                        obj(vec![("ok", Json::Bool(true)), ("result", result.to_json())]),
                    ),
                    // Unreachable behind plan_explore's tighter point
                    // bound, but the library contract allows it: render it
                    // like any other handler error instead of panicking.
                    Err(e) => (
                        500,
                        obj(vec![
                            ("ok", Json::Bool(false)),
                            ("error", Json::Str(format!("{e}"))),
                        ]),
                    ),
                };
            self.cache_ok(key, (status, Arc::new(body.render())))
        }))
    }

    /// Plans a `POST /v1/droop_sweep` population droop sweep: the request
    /// carries a delta *grid*, not an array of lanes; the server expands
    /// it and integrates [`didt::SWEEP_LANES`]-wide batches through the
    /// explicit-SIMD kernel, emitting one progress line per finished wave
    /// with the fresh droops in lane order.
    ///
    /// Waves ride `dg_engine`'s barrier-free streaming scheduler: an
    /// NDJSON line flushes as soon as its prefix of lane groups seals,
    /// without waiting on stragglers deeper in the grid — and the *bytes*
    /// stay identical to the retired barrier scheduler's for any thread
    /// count, which the route's to_bits oracle tests pin.
    fn plan_droop_sweep(&self, req: &Request) -> StreamPlan<'_> {
        let params = match body_json_of(&req.body) {
            Ok(params) => params,
            Err(resp) => return StreamPlan::Reject(resp),
        };
        let p = match droop_sweep_params(&params) {
            Ok(p) => p,
            Err(e) => return StreamPlan::Reject(Response::error(e.status, &e.message)),
        };
        let key = droop_sweep_key(&p);
        if let Some(body) = self.cached(key) {
            return StreamPlan::Cached(body);
        }
        StreamPlan::Run(Box::new(move |progress| {
            let pdn = SkylakePdn::build(p.variant);
            let sim = TransientSim::droop_capture(Volts::new(p.source_v));
            let deltas: Vec<Amps> = delta_grid(p.start_a, p.stop_a, p.points)
                .into_iter()
                .map(Amps::new)
                .collect();
            let total = deltas.len();
            let droops = didt::droop_sweep_with_progress(
                &pdn.ladder,
                &sim,
                Amps::new(p.quiescent_a),
                &deltas,
                Seconds::from_ns(p.slew_ns),
                |done, fresh| progress(&sweep_progress_line(done, total, fresh)),
            );
            self.cache_ok(key, (200, Arc::new(droop_sweep_body(&p, &droops))))
        }))
    }

    /// The non-streaming fallback used when a streaming route reaches the
    /// generic [`Router::handle`] dispatch (direct library callers, tests,
    /// the chaos oracle): same plan, same run, same result body — just
    /// without the progress stream around it.
    fn stream_sync(&self, route: Route, req: &Request) -> Response {
        match self.plan_stream(route, req) {
            StreamPlan::Reject(resp) => resp,
            StreamPlan::Cached(body) => Response::of_body(200, body),
            StreamPlan::Run(run) => {
                let (status, body) = run(&mut |_| {});
                Response::of_body(status, body)
            }
        }
    }
}

/// Parses a request body as JSON (empty body → `{}`), mapping UTF-8 and
/// parse failures to the framed 400 every JSON route shares.
fn body_json_of(body: &[u8]) -> Result<Json, Response> {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Err(Response::error(400, "body is not UTF-8")),
    };
    if text.trim().is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    json::parse(text).map_err(|e| Response::error(400, &format!("body: {e}")))
}

/// Parses and validates an explore spec body (empty body → the default
/// Charm axes, mirroring the CLI's `{}` spec).
fn explore_spec_of(body: &[u8]) -> Result<ExploreSpec, Response> {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Err(Response::error(400, "body is not UTF-8")),
    };
    let text = if text.trim().is_empty() { "{}" } else { text };
    ExploreSpec::from_text(text).map_err(|e| Response::error(400, &format!("spec: {e}")))
}

/// Response-cache / shard-affinity key for an explore sweep: the content hash of the *normalized* spec rendering, so
/// formatting, key order, and omitted defaults never split the cache.
fn explore_key(spec: &ExploreSpec) -> u64 {
    ContentKey::new()
        .bytes(b"explore")
        .bytes(spec.normalized_json().render().as_bytes())
        .finish()
}

/// One newline-terminated NDJSON progress line.
fn progress_line(p: dg_explore::Progress) -> String {
    let mut line = obj(vec![
        ("completed", Json::Num(approx_f64(p.completed))),
        ("total", Json::Num(approx_f64(p.total))),
        ("frontier", Json::Num(approx_f64(p.frontier))),
    ])
    .render();
    line.push('\n');
    line
}

/// The content key `dg-router` hashes for shard affinity.
///
/// For the simulation routes this reproduces the shard-local
/// response-cache key exactly, so every repeat of a request lands on the
/// shard whose response cache and substrate caches already hold it. Any
/// other request (including unparsable bodies, which the shard will
/// `400`) hashes method + path + raw body for a stable spread.
pub fn content_key_of(method: &str, target: &str, body: &[u8]) -> u64 {
    let path = target.split('?').next().unwrap_or(target);
    let parsed = std::str::from_utf8(body).ok().and_then(|text| {
        if text.trim().is_empty() {
            Some(Json::Obj(Vec::new()))
        } else {
            json::parse(text).ok()
        }
    });
    let keyed = match (method, path, &parsed) {
        ("GET", "/v1/claims", _) => Some(ContentKey::new().bytes(b"claims").finish()),
        ("POST", "/v1/droop", Some(p)) => Some(droop_key(p)),
        ("POST", "/v1/droop_batch", Some(p)) => Some(droop_batch_key(p)),
        ("POST", "/v1/sweep", Some(p)) => Some(sweep_key(p)),
        ("POST", "/v1/product", Some(p)) => Some(product_key(p)),
        ("POST", "/v1/droop_sweep", Some(p)) => Some(droop_sweep_key_of(p)),
        ("POST", "/v1/explore", Some(p)) => Some(match ExploreSpec::from_json(p) {
            Ok(spec) => explore_key(&spec),
            Err(_) => error_key(b"explore-invalid", p),
        }),
        _ => None,
    };
    keyed.unwrap_or_else(|| {
        ContentKey::new()
            .bytes(method.as_bytes())
            .bytes(path.as_bytes())
            .bytes(body)
            .finish()
    })
}

// ------------------------------------------------------------------ params

fn finite_f64(params: &Json, key: &str, default: f64) -> Result<f64, RouteError> {
    match params.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| bad_request(format!("`{key}` must be a finite number"))),
    }
}

fn in_range(name: &str, v: f64, lo: f64, hi: f64) -> Result<f64, RouteError> {
    if (lo..=hi).contains(&v) {
        Ok(v)
    } else {
        Err(bad_request(format!("`{name}` = {v} outside [{lo}, {hi}]")))
    }
}

fn variant_of(params: &Json) -> Result<PdnVariant, RouteError> {
    match params.get("variant").and_then(Json::as_str) {
        None | Some("gated") => Ok(PdnVariant::Gated),
        Some("bypassed") => Ok(PdnVariant::Bypassed),
        Some(other) => Err(bad_request(format!(
            "`variant` must be \"gated\" or \"bypassed\", got \"{other}\""
        ))),
    }
}

fn design_of(params: &Json) -> Result<DarkGates, RouteError> {
    match params.get("design").and_then(Json::as_str) {
        None | Some("desktop") => Ok(DarkGates::desktop()),
        Some("mobile") => Ok(DarkGates::mobile()),
        Some(other) => Err(bad_request(format!(
            "`design` must be \"desktop\" or \"mobile\", got \"{other}\""
        ))),
    }
}

/// Validates a TDP against the Skylake catalog (the product constructor's
/// documented precondition — the daemon must not let a request panic it).
fn catalog_tdp(params: &Json) -> Result<Watts, RouteError> {
    let tdp = finite_f64(params, "tdp_w", 91.0)?;
    let levels = Product::skylake_tdp_levels();
    if levels.iter().any(|l| l.value() == tdp) {
        Ok(Watts::new(tdp))
    } else {
        let options: Vec<String> = levels.iter().map(|l| format!("{}", l.value())).collect();
        Err(bad_request(format!(
            "`tdp_w` = {tdp} is not a catalog level (one of {})",
            options.join("/")
        )))
    }
}

// ------------------------------------------------------------------- droop

struct DroopParams {
    variant: PdnVariant,
    source_v: f64,
    from_a: f64,
    to_a: f64,
    slew_ns: f64,
}

fn droop_params(params: &Json) -> Result<DroopParams, RouteError> {
    Ok(DroopParams {
        variant: variant_of(params)?,
        source_v: in_range("source_v", finite_f64(params, "source_v", 1.0)?, 0.5, 2.0)?,
        from_a: in_range("from_a", finite_f64(params, "from_a", 10.0)?, 0.0, 500.0)?,
        to_a: in_range("to_a", finite_f64(params, "to_a", 60.0)?, 0.0, 500.0)?,
        slew_ns: in_range("slew_ns", finite_f64(params, "slew_ns", 0.0)?, 0.0, 1_000.0)?,
    })
}

/// Cache key: route tag + the ladder's content hash + every numeric
/// parameter — the same composition `dg_pdn::cache` uses for its own maps.
fn droop_key(params: &Json) -> u64 {
    let Ok(p) = droop_params(params) else {
        // Invalid requests never compute; key them by raw body shape so
        // identical bad requests still share the one error render.
        return error_key(b"droop-invalid", params);
    };
    let pdn = SkylakePdn::build(p.variant);
    ContentKey::new()
        .bytes(b"droop")
        .word(ladder_key(&pdn.ladder))
        .f64(p.source_v)
        .f64(p.from_a)
        .f64(p.to_a)
        .f64(p.slew_ns)
        .finish()
}

fn error_key(tag: &[u8], params: &Json) -> u64 {
    ContentKey::new()
        .bytes(tag)
        .bytes(params.render().as_bytes())
        .finish()
}

fn droop_route(params: &Json) -> HandlerResult {
    let p = droop_params(params)?;
    let pdn = SkylakePdn::build(p.variant);
    let sim = TransientSim::droop_capture(Volts::new(p.source_v));
    let step = LoadStep {
        from: Amps::new(p.from_a),
        to: Amps::new(p.to_a),
        at: Seconds::from_us(1.0),
        slew: Seconds::from_ns(p.slew_ns),
    };
    let r = sim.run(&pdn.ladder, step);
    Ok(obj(vec![
        ("variant", Json::Str(p.variant.label().to_owned())),
        ("droop_mv", Json::Num(r.droop().as_mv())),
        ("dc_shift_mv", Json::Num(r.dc_shift().as_mv())),
        ("dynamic_droop_mv", Json::Num(r.dynamic_droop().as_mv())),
        ("v_initial", Json::Num(r.v_initial.value())),
        ("v_min", Json::Num(r.v_min.value())),
        ("v_final", Json::Num(r.v_final.value())),
        ("t_min_us", Json::Num(r.t_min.value() * 1e6)),
        ("samples", Json::Num(approx_f64(r.samples.len()))),
    ]))
}

// ------------------------------------------------------------- droop batch

struct DroopBatchParams {
    variant: PdnVariant,
    source_v: f64,
    /// Per-lane `(from_a, to_a, slew_ns)`.
    lanes: Vec<(f64, f64, f64)>,
}

fn droop_batch_params(params: &Json) -> Result<DroopBatchParams, RouteError> {
    let steps = params
        .get("steps")
        .ok_or_else(|| bad_request("missing `steps` array"))?
        .as_arr()
        .ok_or_else(|| bad_request("`steps` must be an array"))?;
    if steps.is_empty() {
        return Err(bad_request("`steps` must not be empty"));
    }
    if steps.len() > MAX_BATCH_LANES {
        return Err(bad_request(format!(
            "`steps` has {} lanes, limit is {MAX_BATCH_LANES}",
            steps.len()
        )));
    }
    let mut lanes = Vec::with_capacity(steps.len());
    for (i, lane) in steps.iter().enumerate() {
        let parsed: Result<(f64, f64, f64), RouteError> = (|| {
            Ok((
                in_range("from_a", finite_f64(lane, "from_a", 10.0)?, 0.0, 500.0)?,
                in_range("to_a", finite_f64(lane, "to_a", 60.0)?, 0.0, 500.0)?,
                in_range("slew_ns", finite_f64(lane, "slew_ns", 0.0)?, 0.0, 1_000.0)?,
            ))
        })();
        match parsed {
            Ok(lane) => lanes.push(lane),
            Err(e) => {
                return Err(bad_request(format!("steps[{i}]: {}", e.message)));
            }
        }
    }
    Ok(DroopBatchParams {
        variant: variant_of(params)?,
        source_v: in_range("source_v", finite_f64(params, "source_v", 1.0)?, 0.5, 2.0)?,
        lanes,
    })
}

/// Cache key: route tag + ladder content hash + shared source + lane
/// count + every per-lane parameter in lane order — two batches share a
/// key exactly when their full lane-for-lane physics is identical.
fn droop_batch_key(params: &Json) -> u64 {
    let Ok(p) = droop_batch_params(params) else {
        return error_key(b"droop-batch-invalid", params);
    };
    let pdn = SkylakePdn::build(p.variant);
    let mut k = ContentKey::new()
        .bytes(b"droop_batch")
        .word(ladder_key(&pdn.ladder))
        .f64(p.source_v)
        .word(p.lanes.len() as u64);
    for (from_a, to_a, slew_ns) in &p.lanes {
        k = k.f64(*from_a).f64(*to_a).f64(*slew_ns);
    }
    k.finish()
}

fn droop_batch_route(params: &Json) -> HandlerResult {
    let p = droop_batch_params(params)?;
    let pdn = SkylakePdn::build(p.variant);
    let sim = TransientSim::droop_capture(Volts::new(p.source_v));
    let steps: Vec<LoadStep> = p
        .lanes
        .iter()
        .map(|&(from_a, to_a, slew_ns)| LoadStep {
            from: Amps::new(from_a),
            to: Amps::new(to_a),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(slew_ns),
        })
        .collect();
    let results = sim.run_batch(&pdn.ladder, &steps);
    let lanes: Vec<Json> = results
        .iter()
        .map(|r| {
            obj(vec![
                ("droop_mv", Json::Num(r.droop().as_mv())),
                ("dc_shift_mv", Json::Num(r.dc_shift().as_mv())),
                ("dynamic_droop_mv", Json::Num(r.dynamic_droop().as_mv())),
                ("v_initial", Json::Num(r.v_initial.value())),
                ("v_min", Json::Num(r.v_min.value())),
                ("v_final", Json::Num(r.v_final.value())),
                ("t_min_us", Json::Num(r.t_min.value() * 1e6)),
                ("samples", Json::Num(approx_f64(r.samples.len()))),
            ])
        })
        .collect();
    Ok(obj(vec![
        ("variant", Json::Str(p.variant.label().to_owned())),
        ("n_lanes", Json::Num(approx_f64(lanes.len()))),
        ("lanes", Json::Arr(lanes)),
    ]))
}

// ------------------------------------------------------------- droop sweep

/// The validated `POST /v1/droop_sweep` spec: a delta *grid* (start, stop,
/// point count) the server expands into lanes, never an array of lanes —
/// the request stays a few hundred bytes while the sweep spans thousands
/// of load steps.
struct DroopSweepParams {
    variant: PdnVariant,
    source_v: f64,
    quiescent_a: f64,
    start_a: f64,
    stop_a: f64,
    points: usize,
    slew_ns: f64,
}

fn droop_sweep_params(params: &Json) -> Result<DroopSweepParams, RouteError> {
    let delta = params.get("delta").unwrap_or(&Json::Null);
    let points = delta
        .get("points")
        .map_or(Some(64), Json::as_u64)
        .filter(|&n| (1..=MAX_SWEEP_LANES).contains(&n))
        .ok_or_else(|| {
            bad_request(format!(
                "`delta.points` must be an integer in [1, {MAX_SWEEP_LANES}]"
            ))
        })?;
    let p = DroopSweepParams {
        variant: variant_of(params)?,
        source_v: in_range("source_v", finite_f64(params, "source_v", 1.0)?, 0.5, 2.0)?,
        quiescent_a: in_range(
            "quiescent_a",
            finite_f64(params, "quiescent_a", 10.0)?,
            0.0,
            500.0,
        )?,
        start_a: in_range(
            "delta.start_a",
            finite_f64(delta, "start_a", 1.0)?,
            0.0,
            500.0,
        )?,
        stop_a: in_range(
            "delta.stop_a",
            finite_f64(delta, "stop_a", 50.0)?,
            0.0,
            500.0,
        )?,
        points: usize::try_from(points).unwrap_or(1),
        slew_ns: in_range("slew_ns", finite_f64(params, "slew_ns", 0.0)?, 0.0, 1_000.0)?,
    };
    // The grid is monotone between its endpoints, so bounding them bounds
    // every lane's absolute current at the same 500 A cap `/v1/droop` uses.
    let worst = p.quiescent_a + p.start_a.max(p.stop_a);
    if worst > 500.0 {
        return Err(bad_request(format!(
            "`quiescent_a` + largest delta = {worst} exceeds the 500 A cap"
        )));
    }
    Ok(p)
}

/// Expands a delta grid into per-lane current deltas: `points` values
/// linearly spaced from `start_a` to `stop_a` inclusive (a single point
/// sits at `start_a`).
///
/// This is *the* expansion the server integrates, so clients and probes
/// that want bit-identity with a library-side
/// [`didt::droop_sweep`] run must build their deltas through it.
#[allow(clippy::cast_precision_loss)] // points ≤ MAX_SWEEP_LANES ≪ 2^52
pub fn delta_grid(start_a: f64, stop_a: f64, points: usize) -> Vec<f64> {
    if points <= 1 {
        return vec![start_a];
    }
    let span = stop_a - start_a;
    let last = (points - 1) as f64;
    (0..points)
        .map(|i| start_a + span * (i as f64) / last)
        .collect()
}

/// Cache key: route tag + ladder content hash + every grid parameter —
/// two sweeps share a key exactly when their expanded populations match.
fn droop_sweep_key(p: &DroopSweepParams) -> u64 {
    let pdn = SkylakePdn::build(p.variant);
    ContentKey::new()
        .bytes(b"droop_sweep")
        .word(ladder_key(&pdn.ladder))
        .f64(p.source_v)
        .f64(p.quiescent_a)
        .f64(p.start_a)
        .f64(p.stop_a)
        .word(p.points as u64)
        .f64(p.slew_ns)
        .finish()
}

/// The shard-affinity key for a raw droop-sweep body (see
/// [`content_key_of`]).
fn droop_sweep_key_of(params: &Json) -> u64 {
    match droop_sweep_params(params) {
        Ok(p) => droop_sweep_key(&p),
        Err(_) => error_key(b"droop-sweep-invalid", params),
    }
}

/// One newline-terminated NDJSON progress line: total lanes finished so
/// far plus the just-finished wave's droops in lane order.
fn sweep_progress_line(done: usize, total: usize, fresh: &[Volts]) -> String {
    let droops: Vec<Json> = fresh.iter().map(|d| Json::Num(d.as_mv())).collect();
    let mut line = obj(vec![
        ("completed", Json::Num(approx_f64(done))),
        ("total", Json::Num(approx_f64(total))),
        ("droop_mv", Json::Arr(droops)),
    ])
    .render();
    line.push('\n');
    line
}

/// The final result line: the full droop population in lane order plus
/// its extremes, wrapped in the standard `{"ok":true,"result":…}` frame.
fn droop_sweep_body(p: &DroopSweepParams, droops: &[Volts]) -> String {
    let mut worst = f64::NEG_INFINITY;
    let mut best = f64::INFINITY;
    for d in droops {
        worst = worst.max(d.as_mv());
        best = best.min(d.as_mv());
    }
    let lanes: Vec<Json> = droops.iter().map(|d| Json::Num(d.as_mv())).collect();
    let result = obj(vec![
        ("variant", Json::Str(p.variant.label().to_owned())),
        ("n_lanes", Json::Num(approx_f64(droops.len()))),
        ("quiescent_a", Json::Num(p.quiescent_a)),
        ("start_a", Json::Num(p.start_a)),
        ("stop_a", Json::Num(p.stop_a)),
        ("slew_ns", Json::Num(p.slew_ns)),
        ("worst_droop_mv", Json::Num(worst)),
        ("best_droop_mv", Json::Num(best)),
        ("droop_mv", Json::Arr(lanes)),
    ]);
    obj(vec![("ok", Json::Bool(true)), ("result", result)]).render()
}

// ------------------------------------------------------------------- sweep

struct SweepParams {
    variant: PdnVariant,
    start_hz: f64,
    stop_hz: f64,
    points: usize,
    decimate: usize,
}

fn sweep_params(params: &Json) -> Result<SweepParams, RouteError> {
    let points = params
        .get("points")
        .map_or(Some(400), Json::as_u64)
        .filter(|&n| (2..=MAX_SWEEP_POINTS).contains(&n))
        .ok_or_else(|| {
            bad_request(format!(
                "`points` must be an integer in [2, {MAX_SWEEP_POINTS}]"
            ))
        })?;
    let decimate = params
        .get("decimate")
        .map_or(Some(8), Json::as_u64)
        .filter(|&n| (1..=1_000).contains(&n))
        .ok_or_else(|| bad_request("`decimate` must be an integer in [1, 1000]"))?;
    Ok(SweepParams {
        variant: variant_of(params)?,
        start_hz: in_range("start_hz", finite_f64(params, "start_hz", 1e4)?, 1.0, 1e12)?,
        stop_hz: in_range("stop_hz", finite_f64(params, "stop_hz", 1e9)?, 1.0, 1e12)?,
        points: usize::try_from(points).unwrap_or(400),
        decimate: usize::try_from(decimate).unwrap_or(8),
    })
}

fn sweep_key(params: &Json) -> u64 {
    let Ok(p) = sweep_params(params) else {
        return error_key(b"sweep-invalid", params);
    };
    let pdn = SkylakePdn::build(p.variant);
    ContentKey::new()
        .bytes(b"sweep")
        .word(ladder_key(&pdn.ladder))
        .f64(p.start_hz)
        .f64(p.stop_hz)
        .word(p.points as u64)
        .word(p.decimate as u64)
        .finish()
}

fn sweep_route(params: &Json) -> HandlerResult {
    let p = sweep_params(params)?;
    let analyzer = ImpedanceAnalyzer::new(Hertz::new(p.start_hz), Hertz::new(p.stop_hz), p.points)
        .map_err(|e| bad_request(format!("sweep: {e}")))?;
    let pdn = SkylakePdn::build(p.variant);
    // Computed directly, not through `cache::impedance_profile`: the grid
    // is the client's, so a substrate-cache entry per grid would grow the
    // shard without bound. Repeats are served by the response cache in
    // front of this handler.
    let profile = analyzer.profile(&pdn.ladder);
    let (peak_f, peak_z) = profile.peak();
    let points: Vec<Json> = profile
        .points()
        .iter()
        .enumerate()
        .filter(|(i, _)| i % p.decimate == 0)
        .map(|(_, (f, z))| Json::Arr(vec![Json::Num(f.value()), Json::Num(z.as_mohm())]))
        .collect();
    Ok(obj(vec![
        ("variant", Json::Str(p.variant.label().to_owned())),
        ("name", Json::Str(profile.name().to_owned())),
        ("n_points", Json::Num(approx_f64(profile.points().len()))),
        ("peak_hz", Json::Num(peak_f.value())),
        ("peak_mohm", Json::Num(peak_z.as_mohm())),
        ("floor_mohm", Json::Num(profile.floor().as_mohm())),
        ("points_mohm", Json::Arr(points)),
    ]))
}

// ----------------------------------------------------------------- product

fn workload_descriptor(params: &Json) -> Result<(String, String), RouteError> {
    let workload = params
        .get("workload")
        .ok_or_else(|| bad_request("missing `workload` object"))?;
    let kind = workload.get("kind").and_then(Json::as_str).ok_or_else(|| {
        bad_request("`workload.kind` must be \"spec\", \"graphics\" or \"energy\"")
    })?;
    let name = match kind {
        "spec" => {
            let bench = workload
                .get("benchmark")
                .and_then(Json::as_str)
                .ok_or_else(|| bad_request("`workload.benchmark` is required for spec"))?;
            let mode = workload
                .get("mode")
                .and_then(Json::as_str)
                .unwrap_or("base");
            if !matches!(mode, "base" | "rate") {
                return Err(bad_request("`workload.mode` must be \"base\" or \"rate\""));
            }
            format!("{bench}:{mode}")
        }
        "graphics" => workload
            .get("scene")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("`workload.scene` is required for graphics"))?
            .to_owned(),
        "energy" => workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("`workload.name` is required for energy"))?
            .to_owned(),
        other => return Err(bad_request(format!("unknown `workload.kind` \"{other}\""))),
    };
    Ok((kind.to_owned(), name))
}

fn product_key(params: &Json) -> u64 {
    let (Ok(dg), Ok(tdp), Ok((kind, name))) = (
        design_of(params),
        catalog_tdp(params),
        workload_descriptor(params),
    ) else {
        return error_key(b"product-invalid", params);
    };
    ContentKey::new()
        .bytes(b"product")
        .word(u64::from(dg == DarkGates::desktop()))
        .f64(tdp.value())
        .bytes(kind.as_bytes())
        .bytes(name.as_bytes())
        .finish()
}

fn product_route(params: &Json) -> HandlerResult {
    let dg = design_of(params)?;
    let tdp = catalog_tdp(params)?;
    let (kind, _) = workload_descriptor(params)?;
    let product = dg.product(tdp);
    let workload = params.get("workload").unwrap_or(&Json::Null);
    let cell = match kind.as_str() {
        "spec" => spec_cell(&product, workload)?,
        "graphics" => graphics_cell(&product, workload)?,
        _ => energy_cell(&product, workload)?,
    };
    Ok(obj(vec![
        ("product", Json::Str(product.name.clone())),
        ("tdp_w", Json::Num(tdp.value())),
        ("fmax_1c_mhz", Json::Num(product.fmax_1c().as_mhz())),
        ("cell", cell),
    ]))
}

fn spec_cell(product: &Product, workload: &Json) -> HandlerResult {
    let name = workload
        .get("benchmark")
        .and_then(Json::as_str)
        .unwrap_or_default();
    let bench =
        by_name(name).ok_or_else(|| bad_request(format!("unknown SPEC benchmark \"{name}\"")))?;
    let mode = match workload.get("mode").and_then(Json::as_str) {
        Some("rate") => SpecMode::Rate,
        _ => SpecMode::Base,
    };
    let r = run_spec(product, &bench, mode);
    Ok(obj(vec![
        ("kind", Json::Str("spec".to_owned())),
        ("benchmark", Json::Str(r.benchmark)),
        ("mode", Json::Str(mode.label().to_owned())),
        ("avg_frequency_mhz", Json::Num(r.frequency.as_mhz())),
        (
            "sustained_frequency_mhz",
            Json::Num(r.sustained_frequency.as_mhz()),
        ),
        ("avg_power_w", Json::Num(r.avg_power.value())),
        ("max_tj_c", Json::Num(r.max_tj.value())),
        ("perf", Json::Num(r.perf)),
    ]))
}

fn graphics_cell(product: &Product, workload: &Json) -> HandlerResult {
    let scene_name = workload
        .get("scene")
        .and_then(Json::as_str)
        .unwrap_or_default();
    let suite = three_dmark_suite();
    let scene = suite.iter().find(|s| s.name == scene_name).ok_or_else(|| {
        let known: Vec<&str> = suite.iter().map(|s| s.name).collect();
        bad_request(format!(
            "unknown scene \"{scene_name}\" (one of: {})",
            known.join(", ")
        ))
    })?;
    let r = run_graphics(product, scene);
    Ok(obj(vec![
        ("kind", Json::Str("graphics".to_owned())),
        ("workload", Json::Str(r.workload)),
        ("gfx_frequency_mhz", Json::Num(r.gfx_frequency.as_mhz())),
        ("fps", Json::Num(r.fps)),
        ("total_power_w", Json::Num(r.total_power.value())),
        ("tj_c", Json::Num(r.tj.value())),
        ("gfx_budget_w", Json::Num(r.gfx_budget.value())),
    ]))
}

fn energy_cell(product: &Product, workload: &Json) -> HandlerResult {
    let name = workload
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or_default();
    let wl = match name {
        "energy-star" | "energy_star" => energy_star(),
        "rmt" | "ready-mode" => ready_mode(),
        "video-conferencing" => video_conferencing(),
        "web-browsing" => web_browsing(),
        other => {
            return Err(bad_request(format!(
                "unknown energy workload \"{other}\" (one of: energy-star, rmt, \
                 video-conferencing, web-browsing)"
            )))
        }
    };
    let r = run_energy(product, &wl);
    Ok(obj(vec![
        ("kind", Json::Str("energy".to_owned())),
        ("workload", Json::Str(r.workload)),
        ("avg_power_w", Json::Num(r.avg_power.value())),
        ("meets_limit", Json::Bool(r.meets_limit)),
    ]))
}

// ------------------------------------------------------------------ claims

fn claims_route() -> HandlerResult {
    let graded = claims::grade_all();
    let passed = graded.iter().filter(|c| c.pass).count();
    let rows: Vec<Json> = graded
        .into_iter()
        .map(|c| {
            obj(vec![
                ("name", Json::Str(c.name.to_owned())),
                ("paper", Json::Str(c.paper)),
                ("measured", Json::Str(c.measured)),
                ("pass", Json::Bool(c.pass)),
            ])
        })
        .collect();
    Ok(obj(vec![
        ("passed", Json::Num(approx_f64(passed))),
        ("total", Json::Num(approx_f64(rows.len()))),
        ("claims", Json::Arr(rows)),
    ]))
}

// ------------------------------------------------------------------- debug

fn debug_sleep(req: &Request) -> Response {
    let ms = std::str::from_utf8(&req.body)
        .ok()
        .and_then(|t| json::parse(t).ok())
        .and_then(|v| v.get("ms").and_then(Json::as_u64))
        .unwrap_or(100)
        .min(MAX_SLEEP_MS);
    std::thread::sleep(std::time::Duration::from_millis(ms));
    Response::ok_json(&obj(vec![("slept_ms", Json::Num(approx_f64_u64(ms)))]))
}

/// Lossless for every value this server produces (< 2^53).
fn approx_f64(n: usize) -> f64 {
    approx_f64_u64(n as u64)
}

#[allow(clippy::cast_precision_loss)]
fn approx_f64_u64(n: u64) -> f64 {
    n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_owned(),
            target: path.to_owned(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_owned(),
            target: path.to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn router() -> Router {
        Router::new(
            Arc::new(Metrics::default()),
            Arc::new(AtomicBool::new(false)),
            false,
        )
    }

    #[test]
    fn droop_route_matches_direct_library_call() {
        let r = router();
        let (route, resp) = r.handle(&post(
            "/v1/droop",
            r#"{"variant":"bypassed","from_a":5,"to_a":40,"source_v":1.0}"#,
        ));
        assert_eq!(route, Route::Droop);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = json::parse(&resp.body).expect("valid response JSON");
        let droop_mv = v
            .get("result")
            .and_then(|r| r.get("droop_mv"))
            .and_then(Json::as_f64)
            .expect("droop_mv present");
        // Direct library call with the same physics.
        let pdn = SkylakePdn::build(PdnVariant::Bypassed);
        let sim = TransientSim::droop_capture(Volts::new(1.0));
        let direct = sim.run(
            &pdn.ladder,
            LoadStep {
                from: Amps::new(5.0),
                to: Amps::new(40.0),
                at: Seconds::from_us(1.0),
                slew: Seconds::from_ns(0.0),
            },
        );
        assert!(
            (droop_mv - direct.droop().as_mv()).abs() < 1e-9,
            "server {droop_mv} vs direct {}",
            direct.droop().as_mv()
        );
    }

    #[test]
    fn droop_batch_lanes_match_scalar_droop_route() {
        let r = router();
        let (route, resp) = r.handle(&post(
            "/v1/droop_batch",
            r#"{"variant":"bypassed","source_v":1.0,
                "steps":[{"from_a":5,"to_a":40},
                         {"from_a":10,"to_a":60,"slew_ns":10}]}"#,
        ));
        assert_eq!(route, Route::DroopBatch);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = json::parse(&resp.body).expect("valid response JSON");
        let result = v.get("result").expect("result");
        assert_eq!(result.get("n_lanes").and_then(Json::as_u64), Some(2));
        let lanes = result.get("lanes").and_then(Json::as_arr).expect("lanes");
        assert_eq!(lanes.len(), 2);
        // Each lane is bit-identical to the scalar /v1/droop response for
        // the same physics.
        for (lane, body) in lanes.iter().zip([
            r#"{"variant":"bypassed","source_v":1.0,"from_a":5,"to_a":40}"#,
            r#"{"variant":"bypassed","source_v":1.0,"from_a":10,"to_a":60,"slew_ns":10}"#,
        ]) {
            let (_, scalar) = r.handle(&post("/v1/droop", body));
            assert_eq!(scalar.status, 200, "{}", scalar.body);
            let sv = json::parse(&scalar.body).expect("valid JSON");
            let sres = sv.get("result").expect("result");
            for field in [
                "droop_mv",
                "dc_shift_mv",
                "dynamic_droop_mv",
                "v_initial",
                "v_min",
                "v_final",
                "t_min_us",
                "samples",
            ] {
                let batch_v = lane.get(field).and_then(Json::as_f64).expect(field);
                let scalar_v = sres.get(field).and_then(Json::as_f64).expect(field);
                assert_eq!(
                    batch_v.to_bits(),
                    scalar_v.to_bits(),
                    "lane field {field}: batch {batch_v} vs scalar {scalar_v}"
                );
            }
        }
    }

    #[test]
    fn droop_batch_rejects_malformed_batches() {
        let r = router();
        let oversized = format!(
            r#"{{"steps":[{}]}}"#,
            vec![r#"{"from_a":5,"to_a":40}"#; MAX_BATCH_LANES + 1].join(",")
        );
        for body in [
            "{}",                           // missing steps
            r#"{"steps":[]}"#,              // empty array
            r#"{"steps":42}"#,              // not an array
            r#"{"steps":[{"from_a":-3}]}"#, // invalid lane
            oversized.as_str(),             // too many lanes
        ] {
            let (route, resp) = r.handle(&post("/v1/droop_batch", body));
            assert_eq!(route, Route::DroopBatch);
            assert_eq!(resp.status, 400, "{body} → {}", resp.body);
        }
    }

    #[test]
    fn identical_droop_batches_share_a_content_key() {
        let a = droop_batch_key(
            &json::parse(r#"{"steps":[{"from_a":5,"to_a":40},{"from_a":10,"to_a":60}]}"#)
                .expect("json"),
        );
        let b = droop_batch_key(
            &json::parse(r#"{"steps":[{"to_a":40,"from_a":5},{"to_a":60,"from_a":10}]}"#)
                .expect("json"),
        );
        let c = droop_batch_key(
            &json::parse(r#"{"steps":[{"from_a":10,"to_a":60},{"from_a":5,"to_a":40}]}"#)
                .expect("json"),
        );
        assert_eq!(a, b, "parameter order within a lane must not matter");
        assert_ne!(a, c, "lane order changes the batch's physics");
    }

    #[test]
    fn droop_sweep_route_matches_library_sweep() {
        let r = router();
        let body = r#"{"variant":"bypassed","source_v":1.0,"quiescent_a":8,"slew_ns":2,
                       "delta":{"start_a":5,"stop_a":45,"points":9}}"#;
        let (route, resp) = r.handle(&post("/v1/droop_sweep", body));
        assert_eq!(route, Route::DroopSweep);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = json::parse(&resp.body).expect("valid JSON");
        let result = v.get("result").expect("result");
        assert_eq!(result.get("n_lanes").and_then(Json::as_u64), Some(9));
        let lanes: Vec<f64> = result
            .get("droop_mv")
            .and_then(Json::as_arr)
            .expect("droop_mv")
            .iter()
            .map(|x| Json::as_f64(x).expect("numeric lane"))
            .collect();
        // Every lane is bit-identical to the library sweep over the same
        // grid expansion (the renderer is shortest-roundtrip).
        let pdn = SkylakePdn::build(PdnVariant::Bypassed);
        let deltas: Vec<Amps> = delta_grid(5.0, 45.0, 9)
            .into_iter()
            .map(Amps::new)
            .collect();
        let direct: Vec<f64> = didt::droop_sweep(
            &pdn.ladder,
            &TransientSim::droop_capture(Volts::new(1.0)),
            Amps::new(8.0),
            &deltas,
            Seconds::from_ns(2.0),
        )
        .iter()
        .map(|v| v.as_mv())
        .collect();
        assert_eq!(lanes.len(), direct.len());
        for (i, (mv, lib)) in lanes.iter().zip(&direct).enumerate() {
            assert_eq!(mv.to_bits(), lib.to_bits(), "lane {i}: {mv} vs {lib}");
        }
        let worst = result
            .get("worst_droop_mv")
            .and_then(Json::as_f64)
            .expect("worst_droop_mv");
        let max = direct.iter().fold(f64::MIN, |a, b| a.max(*b));
        assert_eq!(worst.to_bits(), max.to_bits(), "worst {worst} vs {max}");
    }

    #[test]
    fn droop_sweep_rejects_bad_grids() {
        let r = router();
        for body in [
            r#"{"delta":{"points":0}}"#,    // below the grid minimum
            r#"{"delta":{"points":8193}}"#, // past the population cap
            r#"{"variant":"wormhole"}"#,    // unknown PDN variant
            r#"{"quiescent_a":400,"delta":{"start_a":50,"stop_a":200,"points":4}}"#, // combined current past the ladder's envelope
            "{not json",
        ] {
            let (route, resp) = r.handle(&post("/v1/droop_sweep", body));
            assert_eq!(route, Route::DroopSweep);
            assert_eq!(resp.status, 400, "{body} → {}", resp.body);
        }
        let (_, resp) = r.handle(&get("/v1/droop_sweep"));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn identical_droop_sweeps_share_a_content_key() {
        let a = content_key_of(
            "POST",
            "/v1/droop_sweep",
            br#"{"quiescent_a":8,"delta":{"start_a":5,"stop_a":45,"points":9}}"#,
        );
        let b = content_key_of(
            "POST",
            "/v1/droop_sweep",
            br#"{"delta":{"points":9,"stop_a":45,"start_a":5},"quiescent_a":8}"#,
        );
        let c = content_key_of(
            "POST",
            "/v1/droop_sweep",
            br#"{"quiescent_a":8,"delta":{"start_a":5,"stop_a":45,"points":10}}"#,
        );
        assert_eq!(a, b, "parameter order must not matter");
        assert_ne!(a, c, "a different grid must not share a key");
    }

    #[test]
    fn delta_grid_is_inclusive_and_exact_at_the_endpoints() {
        let g = delta_grid(5.0, 45.0, 9);
        assert_eq!(g.len(), 9);
        assert_eq!(g.first().copied(), Some(5.0));
        assert_eq!(g.last().copied(), Some(45.0));
        assert!(g.windows(2).all(|w| w[1] > w[0]), "monotone grid");
        assert_eq!(delta_grid(7.5, 99.0, 1), vec![7.5], "one point = start");
    }

    #[test]
    fn repeated_droop_sweeps_hit_the_response_cache() {
        let metrics = Arc::new(Metrics::default());
        let r = Router::new(
            Arc::clone(&metrics),
            Arc::new(AtomicBool::new(false)),
            false,
        );
        let body = r#"{"delta":{"start_a":10,"stop_a":20,"points":2}}"#;
        let (_, first) = r.handle(&post("/v1/droop_sweep", body));
        assert_eq!(first.status, 200, "{}", first.body);
        assert_eq!(metrics.resp_cache_hits_total.load(Ordering::SeqCst), 0);
        let (_, second) = r.handle(&post("/v1/droop_sweep", body));
        assert_eq!(second.status, 200);
        assert_eq!(metrics.resp_cache_hits_total.load(Ordering::SeqCst), 1);
        assert_eq!(
            *first.body, *second.body,
            "cached result line must be byte-identical"
        );
    }

    #[test]
    fn sweep_route_reports_profile_shape() {
        let r = router();
        let (route, resp) = r.handle(&post(
            "/v1/sweep",
            r#"{"variant":"gated","points":64,"decimate":8}"#,
        ));
        assert_eq!(route, Route::Sweep);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = json::parse(&resp.body).expect("valid JSON");
        let result = v.get("result").expect("result");
        assert_eq!(result.get("n_points").and_then(Json::as_u64), Some(64));
        let pts = result
            .get("points_mohm")
            .and_then(Json::as_arr)
            .expect("points");
        assert_eq!(pts.len(), 8);
        assert!(
            result
                .get("peak_mohm")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                > 0.0
        );
    }

    #[test]
    fn product_route_runs_a_spec_cell() {
        let r = router();
        let (_, resp) = r.handle(&post(
            "/v1/product",
            r#"{"design":"desktop","tdp_w":91,
                "workload":{"kind":"spec","benchmark":"444.namd","mode":"base"}}"#,
        ));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = json::parse(&resp.body).expect("valid JSON");
        let cell = v.get("result").and_then(|r| r.get("cell")).expect("cell");
        assert_eq!(
            cell.get("benchmark").and_then(Json::as_str),
            Some("444.namd")
        );
        let perf = cell.get("perf").and_then(Json::as_f64).expect("perf");
        assert!(perf > 0.5 && perf < 2.0, "perf {perf}");
    }

    #[test]
    fn bad_parameters_yield_400_not_500() {
        let r = router();
        for (path, body) in [
            ("/v1/droop", r#"{"variant":"wormhole"}"#),
            ("/v1/droop", r#"{"from_a":-3}"#),
            ("/v1/droop", r#"{"source_v":99}"#),
            ("/v1/sweep", r#"{"points":1}"#),
            ("/v1/sweep", r#"{"points":9999999}"#),
            (
                "/v1/product",
                r#"{"tdp_w":50,"workload":{"kind":"spec","benchmark":"444.namd"}}"#,
            ),
            (
                "/v1/product",
                r#"{"workload":{"kind":"spec","benchmark":"no.such"}}"#,
            ),
            ("/v1/product", r#"{"workload":{"kind":"dance"}}"#),
            ("/v1/product", r#"{}"#),
            ("/v1/droop", "{not json"),
        ] {
            let (_, resp) = r.handle(&post(path, body));
            assert_eq!(resp.status, 400, "{path} {body} → {}", resp.body);
        }
    }

    #[test]
    fn unknown_paths_404_and_wrong_methods_405() {
        let r = router();
        let (route, resp) = r.handle(&get("/v1/nope"));
        assert_eq!(route, Route::Other);
        assert_eq!(resp.status, 404);
        let (_, resp) = r.handle(&get("/v1/droop"));
        assert_eq!(resp.status, 405);
        // Debug routes stay hidden unless enabled.
        let (_, resp) = r.handle(&post("/v1/debug/sleep", r#"{"ms":1}"#));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn drain_flips_the_flag_and_healthz_reports_it() {
        let draining = Arc::new(AtomicBool::new(false));
        let r = Router::new(Arc::new(Metrics::default()), Arc::clone(&draining), false);
        let (_, resp) = r.handle(&get("/healthz"));
        assert!(resp.body.contains("\"draining\":false"));
        let (_, resp) = r.handle(&post("/admin/drain", ""));
        assert_eq!(resp.status, 200);
        assert!(draining.load(Ordering::SeqCst));
        let (_, resp) = r.handle(&get("/healthz"));
        assert!(resp.body.contains("\"draining\":true"));
    }

    #[test]
    fn identical_droop_requests_share_a_content_key() {
        let a = droop_key(&json::parse(r#"{"from_a":10,"to_a":60}"#).expect("json"));
        let b = droop_key(&json::parse(r#"{"to_a":60,"from_a":10}"#).expect("json"));
        let c = droop_key(&json::parse(r#"{"from_a":10,"to_a":61}"#).expect("json"));
        assert_eq!(a, b, "parameter order must not matter");
        assert_ne!(a, c, "different physics must not share a key");
    }

    #[test]
    fn repeated_identical_requests_hit_the_response_cache() {
        let metrics = Arc::new(Metrics::default());
        let r = Router::new(
            Arc::clone(&metrics),
            Arc::new(AtomicBool::new(false)),
            false,
        );
        let body = r#"{"variant":"bypassed","from_a":5,"to_a":40}"#;
        let (_, first) = r.handle(&post("/v1/droop", body));
        assert_eq!(first.status, 200, "{}", first.body);
        assert_eq!(metrics.resp_cache_hits_total.load(Ordering::SeqCst), 0);
        let (_, second) = r.handle(&post("/v1/droop", body));
        assert_eq!(second.status, 200);
        assert_eq!(metrics.resp_cache_hits_total.load(Ordering::SeqCst), 1);
        assert_eq!(
            *first.body, *second.body,
            "cached body must be byte-identical"
        );
        // Error responses are never cached: a repeat recomputes the 400.
        let (_, bad) = r.handle(&post("/v1/droop", r#"{"from_a":-3}"#));
        assert_eq!(bad.status, 400);
        let (_, bad2) = r.handle(&post("/v1/droop", r#"{"from_a":-3}"#));
        assert_eq!(bad2.status, 400);
        assert_eq!(
            metrics.resp_cache_hits_total.load(Ordering::SeqCst),
            1,
            "400s must not populate the response cache"
        );
    }

    #[test]
    fn router_affinity_key_matches_the_shard_coalescing_key() {
        // Same physics, different JSON spelling → same affinity key.
        let a = content_key_of("POST", "/v1/droop", br#"{"from_a":10,"to_a":60}"#);
        let b = content_key_of("POST", "/v1/droop", br#"{"to_a":60,"from_a":10}"#);
        assert_eq!(a, b);
        // And it is exactly the shard's response-cache key.
        let direct = droop_key(&json::parse(r#"{"from_a":10,"to_a":60}"#).expect("json"));
        assert_eq!(a, direct);
        // Query strings do not perturb the key; unknown routes still key.
        assert_eq!(
            content_key_of("GET", "/v1/claims", b""),
            content_key_of("GET", "/v1/claims?pretty=1", b"")
        );
        assert_ne!(
            content_key_of("GET", "/nope", b"x"),
            content_key_of("GET", "/nope", b"y")
        );
    }

    #[test]
    fn kind_ignores_the_query_string() {
        for (method, target, kind) in [
            ("GET", "/healthz?probe=1", Kind::Control(Route::Healthz)),
            ("GET", "/metrics?x=1", Kind::Control(Route::Metrics)),
            ("POST", "/admin/drain?now", Kind::Control(Route::Other)),
            ("GET", "/v1/claims?pretty=1", Kind::Cacheable(Route::Claims)),
            ("POST", "/v1/droop?", Kind::Cacheable(Route::Droop)),
            ("POST", "/v1/explore?x=1", Kind::Stream(Route::Explore)),
            ("POST", "/v1/droop_sweep?x", Kind::Stream(Route::DroopSweep)),
            ("POST", "/healthz?probe=1", Kind::Other),
            ("GET", "/v1/droop?x=1", Kind::Other),
        ] {
            assert_eq!(kind_of(method, target), kind, "{method} {target}");
        }
    }

    #[test]
    fn metrics_route_renders_text() {
        let r = router();
        let (route, resp) = r.handle(&get("/metrics"));
        assert_eq!(route, Route::Metrics);
        assert!(resp.content_type.starts_with("text/plain"));
        assert!(resp.body.contains("dg_requests_total"));
    }
}
