//! Route table and handlers: the HTTP surface over the experiment stack.
//!
//! One table (`row_of`) lists every path with its one method, its
//! [`Kind`] and its parameter parser. [`Query::parse`] resolves a request
//! against it once — row, body, validation, content key — and the route
//! label, the reply and the 404/405 decision are read off that [`Query`].
//! A path with no row is a `404`; another method on a known path is a
//! `405` whose `Allow` names the row's method.
//!
//! Every simulation route runs through the response cache, keyed by the
//! content-hash scheme the substrate caches use
//! ([`darkgates::pdn::cache::ContentKey`]) over the validated parameters,
//! so two requests share an entry exactly when their physics is
//! identical; a ladder enters a key as
//! [`darkgates::pdn::cache::skylake_ladder_key`], so no key derivation
//! builds one. Handlers call the *library* entry points — nothing here
//! shells out to the bench binaries.

use crate::http::{write_response, Request};
use crate::json::{self, obj, Json, JsonError};
use crate::metrics::{Metrics, Route};
use crate::respcache::ResponseCache;
use darkgates::claims;
use darkgates::pdn::cache::{skylake_ladder_key, ContentKey};
use darkgates::pdn::didt;
use darkgates::pdn::impedance::ImpedanceAnalyzer;
use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};
use darkgates::pdn::transient::{LoadStep, TransientResult, TransientSim};
use darkgates::pdn::units::{Amps, Hertz, Seconds, Volts, Watts};
use darkgates::soc::products::Product;
use darkgates::soc::run::{run_energy, run_graphics, run_spec};
use darkgates::workloads::energy::{energy_star, ready_mode, video_conferencing, web_browsing};
use darkgates::workloads::graphics::three_dmark_suite;
use darkgates::workloads::spec::{by_name, SpecMode};
use darkgates::DarkGates;
use dg_explore::{ExploreError, ExploreSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Largest accepted impedance-sweep point count (compute admission).
const MAX_SWEEP_POINTS: u64 = 20_000;

/// Largest accepted `/v1/explore` grid (compute admission: one sweep
/// holds a worker for its whole runtime; the library's own
/// `dg_explore::MAX_POINTS` memory bound is far looser).
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
const MAX_SWEEP_LANES: u64 = 8_192;

/// Largest accepted debug-sleep duration.
const MAX_SLEEP_MS: u64 = 10_000;

/// A fully formed response, ready for the wire.
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
    /// A `405`'s `Allow` value: the one method its path's row lists.
    allow: Option<&'static str>,
}

impl Response {
    /// A JSON response around an already rendered body.
    fn of_body(status: u16, body: Arc<String>) -> Self {
        Response {
            status,
            reason: reason_of(status),
            content_type: "application/json",
            body,
            allow: None,
        }
    }

    pub(crate) fn ok_json(value: &Json) -> Self {
        Self::of_body(200, Arc::new(value.render()))
    }

    fn error(status: u16, message: &str) -> Self {
        let message = message.to_owned();
        let (status, body) = rendered(Err(RouteError { status, message }));
        Self::of_body(status, body)
    }

    /// A `200` in Prometheus text format.
    pub(crate) fn text(body: String) -> Self {
        Response {
            content_type: "text/plain; version=0.0.4",
            ..Self::of_body(200, Arc::new(body))
        }
    }

    /// The response framed for the wire, `Allow` header included.
    pub(crate) fn framed(&self, close: bool) -> Vec<u8> {
        let allow = self.allow.map(|m| ("Allow".to_owned(), m.to_owned()));
        write_response(
            self.status,
            self.reason,
            self.content_type,
            allow.as_slice(),
            self.body.as_bytes(),
            close,
        )
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

/// A handler result rendered as its reply: `{"ok":true,"result":…}` with
/// `200`, or `{"ok":false,"error":…}` with the error's status.
fn rendered(result: HandlerResult) -> (u16, Arc<String>) {
    let (status, value) = match result {
        Ok(value) => (200, obj(vec![("ok", Json::Bool(true)), ("result", value)])),
        Err(e) => (
            e.status,
            obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::Str(e.message)),
            ]),
        ),
    };
    (status, Arc::new(value.render()))
}

/// A planned stream computation, boxed so every streaming route
/// (`/v1/explore`, `/v1/droop_sweep`) presents the worker with the same
/// shape: invoke it with a sink for newline-terminated NDJSON progress
/// lines and collect the status and the final result line (no trailing
/// newline). The runner caches a `200` result line.
type StreamRunner<'r> = Box<dyn FnOnce(&mut dyn FnMut(&str)) -> (u16, Arc<String>) + 'r>;

/// What the worker should do with a query on a streaming route
/// (computed by [`Router::plan_stream`] before any bytes go out).
pub enum StreamPlan<'r> {
    /// No stream to run — a rejected spec or grid (400/413), or a query
    /// on a route that does not stream: answer with an ordinary framed
    /// response, and no stream ever starts.
    Reject(Response),
    /// The result line is already cached (memory or disk tier): stream
    /// head + result line + terminator without running anything.
    Cached(Arc<String>),
    /// Run the computation, streaming its progress lines.
    Run(StreamRunner<'r>),
}

/// How the serve tier treats a request, read off its route-table row; a
/// query string never changes it. A shard and `dg-router` both dispatch
/// on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GET /healthz`, `GET /metrics` and `POST /admin/drain` (labelled
    /// [`Route::Other`]): cheap control routes a shard and `dg-router`
    /// each answer on their event loop, so overload never queues or sheds
    /// them.
    Control(Route),
    /// A simulation route whose `200` body is a pure function of its
    /// content key, so a shard's memory-tier fast path and the router's
    /// reply cache may answer a repeat.
    Cacheable(Route),
    /// `POST /v1/explore` and `POST /v1/droop_sweep`: chunked NDJSON
    /// streams, relayed by the router and never held in its reply cache.
    Stream(Route),
    /// Anything else: 404s, 405s and the debug route.
    Other,
}

impl Kind {
    /// The metrics label: the row's route, or [`Route::Other`].
    pub fn route(self) -> Route {
        match self {
            Kind::Control(route) | Kind::Cacheable(route) | Kind::Stream(route) => route,
            Kind::Other => Route::Other,
        }
    }
}

/// One row of the route table: the one method its path answers (any
/// other gets a `405` naming it), its kind, and the parser that validates
/// a body into its call (`Err` is the rejection).
type Row = (&'static str, Kind, fn(&[u8]) -> Result<Call, Call>);

/// The route table: the one list of the paths the serve tier answers.
/// The debug row (`Kind::Other`) is visible only to a router that enables
/// debug routes.
fn row_of(path: &str) -> Option<Row> {
    Some(match path {
        "/healthz" => ("GET", Kind::Control(Route::Healthz), |_| Ok(Call::Control)),
        "/metrics" => ("GET", Kind::Control(Route::Metrics), |_| Ok(Call::Control)),
        "/admin/drain" => ("POST", Kind::Control(Route::Other), |_| Ok(Call::Control)),
        "/v1/claims" => ("GET", Kind::Cacheable(Route::Claims), |_| Ok(Call::Claims)),
        "/v1/droop" => ("POST", Kind::Cacheable(Route::Droop), |b| {
            json_call(b, b"droop-invalid", droop_params, Call::Droop)
        }),
        "/v1/droop_batch" => ("POST", Kind::Cacheable(Route::DroopBatch), |b| {
            json_call(
                b,
                b"droop-batch-invalid",
                droop_batch_params,
                Call::DroopBatch,
            )
        }),
        "/v1/sweep" => ("POST", Kind::Cacheable(Route::Sweep), |b| {
            json_call(b, b"sweep-invalid", sweep_params, Call::Sweep)
        }),
        "/v1/product" => ("POST", Kind::Cacheable(Route::Product), |b| {
            json_call(b, b"product-invalid", product_params, Call::Product)
        }),
        "/v1/explore" => ("POST", Kind::Stream(Route::Explore), explore_call),
        "/v1/droop_sweep" => ("POST", Kind::Stream(Route::DroopSweep), |b| {
            json_call(
                b,
                b"droop-sweep-invalid",
                droop_sweep_params,
                Call::DroopSweep,
            )
        }),
        "/v1/debug/sleep" => ("POST", Kind::Other, |b| Ok(Call::DebugSleep(sleep_ms(b)))),
        _ => return None,
    })
}

/// The path part of a request target.
fn path_of(target: &str) -> &str {
    target.split('?').next().unwrap_or(target)
}

/// Classifies a request by its method and the path part of its target,
/// from the route table alone (no body is read).
pub fn kind_of(method: &str, target: &str) -> Kind {
    match row_of(path_of(target)) {
        Some((row_method, kind, _)) if row_method == method => kind,
        _ => Kind::Other,
    }
}

/// What a query asks for, its parameters already validated.
#[derive(Debug)]
enum Call {
    /// A [`Kind::Control`] route, answered by [`Router::control`].
    Control,
    Claims,
    Droop(DroopParams),
    DroopBatch(DroopBatchParams),
    Sweep(SweepParams),
    Product(ProductParams),
    Explore(Box<ExploreSpec>),
    DroopSweep(DroopSweepParams),
    DebugSleep(u64),
    /// Answered without computing: a `400`/`413` for parameters that fail
    /// validation, a `405` or a `404`; keyed by its raw bytes when the key
    /// is `None`.
    Reject(Option<u64>, Response),
}

impl Call {
    /// The content key of a call that has one; `None` keys the request by
    /// its method, path and raw body.
    fn key(&self) -> Option<u64> {
        Some(match self {
            Call::Claims => ContentKey::new().bytes(b"claims").finish(),
            Call::Droop(p) => droop_key(p),
            Call::DroopBatch(p) => droop_batch_key(p),
            Call::Sweep(p) => sweep_key(p),
            Call::Product(p) => product_key(p),
            Call::Explore(spec) => explore_key(spec),
            Call::DroopSweep(p) => droop_sweep_key(p),
            Call::Reject(key, _) => return *key,
            Call::Control | Call::DebugSleep(_) => return None,
        })
    }
}

fn reject(key: Option<u64>, status: u16, message: &str) -> Call {
    Call::Reject(key, Response::error(status, message))
}

/// A request resolved once against the route table: its [`Kind`], its
/// content key, and what it asks for with its parameters validated. A
/// shard queues the query itself, so a worker never parses the request
/// again.
#[derive(Debug)]
pub struct Query {
    /// How the serve tier dispatches the request.
    pub kind: Kind,
    /// The content key: the shard's response-cache key and `dg-router`'s
    /// affinity key. Invalid parameters are keyed by a route tag and the
    /// body's canonical rendering; an unparsable body, a control route, a
    /// 404 or a 405 by its method, path and raw body.
    pub key: u64,
    call: Call,
}

impl Query {
    /// Resolves a request with every row visible, the debug route
    /// included (keys do not depend on it): finds the row, parses the
    /// body once and validates its parameters once.
    pub fn parse(method: &str, target: &str, body: &[u8]) -> Query {
        Query::resolve(method, target, body, true)
    }

    fn resolve(method: &str, target: &str, body: &[u8], debug_routes: bool) -> Query {
        let path = path_of(target);
        let row = row_of(path).filter(|(_, kind, _)| debug_routes || *kind != Kind::Other);
        let (kind, call) = match row {
            Some((row_method, kind, parse)) if row_method == method => {
                (kind, parse(body).unwrap_or_else(|rejected| rejected))
            }
            Some((allow, ..)) => {
                let mut response = Response::error(405, "method not allowed for this resource");
                response.allow = Some(allow);
                (Kind::Other, Call::Reject(None, response))
            }
            None => (Kind::Other, reject(None, 404, "no such resource")),
        };
        let key = call.key().unwrap_or_else(|| {
            ContentKey::new()
                .bytes(method.as_bytes())
                .bytes(path.as_bytes())
                .bytes(body)
                .finish()
        });
        Query { kind, key, call }
    }
}

/// The content key `dg-router` hashes for shard affinity:
/// [`Query::key`] of the parsed request.
// dg-analyze: allow(unreached-pub, reason = "the cache key a consumer outside the workspace uses: benchmark/tests/workloads.rs")
pub fn content_key_of(method: &str, target: &str, body: &[u8]) -> u64 {
    Query::parse(method, target, body).key
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

    /// Resolves a request as this router answers it: [`Query::parse`],
    /// with the debug route a `404` unless it is enabled.
    pub(crate) fn query(&self, req: &Request) -> Query {
        Query::resolve(&req.method, &req.target, &req.body, self.debug_routes)
    }

    /// Answers from the in-memory response-cache tier only — the event
    /// loop's inline fast path. Returns `None` for anything that must go
    /// through [`Router::handle`].
    pub fn cached_response(&self, req: &Request) -> Option<(Route, Response)> {
        let query = self.query(req);
        Some((query.kind.route(), self.memory_hit(&query)?))
    }

    /// The memory-tier hit for a [`Kind::Cacheable`] query: one lock, no
    /// disk and no worker, so repeats skip both thread handoffs of the
    /// dispatch path.
    pub(crate) fn memory_hit(&self, query: &Query) -> Option<Response> {
        if !matches!(query.kind, Kind::Cacheable(_)) {
            return None;
        }
        let body = self.respcache.get_memory(query.key)?;
        self.metrics
            .resp_cache_hits_total
            .fetch_add(1, Ordering::Relaxed);
        Some(Response::of_body(200, body))
    }

    /// Handles one parsed request, returning the route label (for
    /// metrics) and the response.
    pub fn handle(&self, req: &Request) -> (Route, Response) {
        let query = self.query(req);
        (query.kind.route(), self.answer(query))
    }

    /// Answers a query whole; a stream's reply is its result line alone.
    pub(crate) fn answer(&self, query: Query) -> Response {
        let key = query.key;
        match query.call {
            Call::Control => self.control(query.kind.route()),
            Call::Reject(_, response) => response,
            Call::DebugSleep(ms) => debug_sleep(ms),
            Call::Claims => self.cache_or_compute(key, claims_route),
            Call::Droop(p) => self.cache_or_compute(key, || droop_route(&p)),
            Call::DroopBatch(p) => self.cache_or_compute(key, || droop_batch_route(&p)),
            Call::Sweep(p) => self.cache_or_compute(key, || sweep_route(&p)),
            Call::Product(p) => self.cache_or_compute(key, || product_route(&p)),
            call @ (Call::Explore(_) | Call::DroopSweep(_)) => {
                match self.plan_stream(Query { call, ..query }) {
                    StreamPlan::Reject(response) => response,
                    StreamPlan::Cached(body) => Response::of_body(200, body),
                    StreamPlan::Run(run) => {
                        let (status, body) = run(&mut |_| {});
                        Response::of_body(status, body)
                    }
                }
            }
        }
    }

    /// Answers a [`Kind::Control`] route: `/healthz`, `/metrics`, and
    /// `POST /admin/drain` for [`Route::Other`]. It touches no disk, queue
    /// or sleep, so a shard runs it on its event loop.
    pub(crate) fn control(&self, route: Route) -> Response {
        match route {
            Route::Healthz => Response::ok_json(&obj(vec![
                ("status", Json::Str("ok".to_owned())),
                ("draining", Json::Bool(self.draining.load(Ordering::SeqCst))),
            ])),
            Route::Metrics => Response::text(self.metrics.render()),
            // `POST /admin/drain`, the one other control route.
            _ => drain(&self.draining),
        }
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
        let (status, body) = self.cache_ok(key, rendered(compute()));
        Response::of_body(status, body)
    }

    /// Decides how a worker answers a query on a streaming route: a
    /// rejection (400/413) comes back as an ordinary framed response, a
    /// cache hit skips compute entirely, and anything else is a boxed
    /// runner the worker drives with its progress-line sink.
    ///
    /// `/v1/droop_sweep` integrates its server-expanded delta grid in
    /// 32-lane batches through the explicit-SIMD kernel
    /// ([`didt::droop_sweep_with_progress`]) and emits one progress line
    /// per finished wave, its fresh droops in lane order. Waves ride
    /// `dg_engine`'s barrier-free streaming scheduler: a line flushes as
    /// soon as its prefix of lane groups seals, and the bytes are
    /// identical for any thread count, which the route's to_bits oracle
    /// tests pin.
    pub fn plan_stream(&self, query: Query) -> StreamPlan<'_> {
        let key = query.key;
        let run: StreamRunner<'_> = match query.call {
            Call::Explore(spec) => Box::new(move |progress| {
                let outcome = dg_explore::run_with_progress(&spec, |p| progress(&progress_line(p)));
                // An error is unreachable behind the parser's tighter point
                // bound, but the library contract allows it: render it like
                // any other handler error instead of panicking.
                let result = outcome.map(|r| r.to_json()).map_err(|e| RouteError {
                    status: 500,
                    message: e.to_string(),
                });
                self.cache_ok(key, rendered(result))
            }),
            Call::DroopSweep(p) => Box::new(move |progress| {
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
                self.cache_ok(key, rendered(Ok(droop_sweep_result(&p, &droops))))
            }),
            call => return StreamPlan::Reject(self.answer(Query { call, ..query })),
        };
        match self.cached(key) {
            Some(body) => StreamPlan::Cached(body),
            None => StreamPlan::Run(run),
        }
    }
}

/// Sets the drain flag and renders the reply to `POST /admin/drain`, on a
/// shard and on `dg-router` alike.
pub(crate) fn drain(draining: &AtomicBool) -> Response {
    draining.store(true, Ordering::SeqCst);
    Response::ok_json(&obj(vec![("status", Json::Str("draining".to_owned()))]))
}

/// Parses a body as JSON, once (an empty body reads as `{}`). A body that
/// is not UTF-8 or not JSON is a `400` keyed by its raw bytes, with the
/// message `describe` gives the parse error.
fn body_json(body: &[u8], describe: fn(JsonError) -> String) -> Result<Json, Call> {
    let text = std::str::from_utf8(body).map_err(|_| reject(None, 400, "body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    json::parse(text).map_err(|e| reject(None, 400, &describe(e)))
}

/// Parses and validates a JSON route's body once. Parameters that fail
/// validation are keyed by `tag` and the body's canonical rendering, so
/// identical bad requests share a key.
fn json_call<P>(
    body: &[u8],
    tag: &[u8],
    params: fn(&Json) -> Result<P, RouteError>,
    call: fn(P) -> Call,
) -> Result<Call, Call> {
    let json = body_json(body, |e| format!("body: {e}"))?;
    let p = params(&json).map_err(|e| reject(Some(error_key(tag, &json)), e.status, &e.message))?;
    Ok(call(p))
}

fn error_key(tag: &[u8], params: &Json) -> u64 {
    ContentKey::new()
        .bytes(tag)
        .bytes(params.render().as_bytes())
        .finish()
}

// ----------------------------------------------------------------- explore

/// Parses and validates an explore spec (an empty body is the default
/// Charm axes, as the CLI's `{}` spec is). A grid past
/// [`MAX_EXPLORE_POINTS`] is a `413`, keyed like the spec it would run.
fn explore_call(body: &[u8]) -> Result<Call, Call> {
    let json = body_json(body, |e| format!("spec: {}", ExploreError::from(e)))?;
    let spec = ExploreSpec::from_json(&json).map_err(|e| {
        reject(
            Some(error_key(b"explore-invalid", &json)),
            400,
            &format!("spec: {e}"),
        )
    })?;
    let points = spec.point_count();
    if points > MAX_EXPLORE_POINTS {
        let message =
            format!("grid of {points} points exceeds the {MAX_EXPLORE_POINTS} point limit");
        return Err(reject(Some(explore_key(&spec)), 413, &message));
    }
    Ok(Call::Explore(Box::new(spec)))
}

/// Response-cache / shard-affinity key for an explore sweep: the content
/// hash of the *normalized* spec rendering, so formatting, key order, and
/// omitted defaults never split the cache.
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

#[derive(Debug)]
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
fn droop_key(p: &DroopParams) -> u64 {
    ContentKey::new()
        .bytes(b"droop")
        .word(skylake_ladder_key(p.variant))
        .f64(p.source_v)
        .f64(p.from_a)
        .f64(p.to_a)
        .f64(p.slew_ns)
        .finish()
}

fn droop_route(p: &DroopParams) -> HandlerResult {
    let pdn = SkylakePdn::build(p.variant);
    let sim = TransientSim::droop_capture(Volts::new(p.source_v));
    let step = LoadStep {
        from: Amps::new(p.from_a),
        to: Amps::new(p.to_a),
        at: Seconds::from_us(1.0),
        slew: Seconds::from_ns(p.slew_ns),
    };
    let mut fields = vec![("variant", Json::Str(p.variant.label().to_owned()))];
    fields.extend(lane_fields(&sim.run(&pdn.ladder, step)));
    Ok(obj(fields))
}

/// The fields `/v1/droop` and each `/v1/droop_batch` lane report.
fn lane_fields(r: &TransientResult) -> Vec<(&'static str, Json)> {
    vec![
        ("droop_mv", Json::Num(r.droop().as_mv())),
        ("dc_shift_mv", Json::Num(r.dc_shift().as_mv())),
        ("dynamic_droop_mv", Json::Num(r.dynamic_droop().as_mv())),
        ("v_initial", Json::Num(r.v_initial.value())),
        ("v_min", Json::Num(r.v_min.value())),
        ("v_final", Json::Num(r.v_final.value())),
        ("t_min_us", Json::Num(r.t_min.value() * 1e6)),
        ("samples", Json::Num(approx_f64(r.samples.len()))),
    ]
}

// ------------------------------------------------------------- droop batch

#[derive(Debug)]
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
    let lane = |lane: &Json| -> Result<(f64, f64, f64), RouteError> {
        Ok((
            in_range("from_a", finite_f64(lane, "from_a", 10.0)?, 0.0, 500.0)?,
            in_range("to_a", finite_f64(lane, "to_a", 60.0)?, 0.0, 500.0)?,
            in_range("slew_ns", finite_f64(lane, "slew_ns", 0.0)?, 0.0, 1_000.0)?,
        ))
    };
    let lanes = (0..)
        .zip(steps)
        .map(|(i, l)| lane(l).map_err(|e| bad_request(format!("steps[{i}]: {}", e.message))))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DroopBatchParams {
        variant: variant_of(params)?,
        source_v: in_range("source_v", finite_f64(params, "source_v", 1.0)?, 0.5, 2.0)?,
        lanes,
    })
}

/// Cache key: route tag + ladder content hash + shared source + lane
/// count + every per-lane parameter in lane order — two batches share a
/// key exactly when their full lane-for-lane physics is identical.
fn droop_batch_key(p: &DroopBatchParams) -> u64 {
    let mut k = ContentKey::new()
        .bytes(b"droop_batch")
        .word(skylake_ladder_key(p.variant))
        .f64(p.source_v)
        .word(p.lanes.len() as u64);
    for (from_a, to_a, slew_ns) in &p.lanes {
        k = k.f64(*from_a).f64(*to_a).f64(*slew_ns);
    }
    k.finish()
}

fn droop_batch_route(p: &DroopBatchParams) -> HandlerResult {
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
    let lanes: Vec<Json> = results.iter().map(|r| obj(lane_fields(r))).collect();
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
#[derive(Debug)]
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
    let amps = |name, value| in_range(name, value, 0.0, 500.0);
    let p = DroopSweepParams {
        variant: variant_of(params)?,
        source_v: in_range("source_v", finite_f64(params, "source_v", 1.0)?, 0.5, 2.0)?,
        quiescent_a: amps("quiescent_a", finite_f64(params, "quiescent_a", 10.0)?)?,
        start_a: amps("delta.start_a", finite_f64(delta, "start_a", 1.0)?)?,
        stop_a: amps("delta.stop_a", finite_f64(delta, "stop_a", 50.0)?)?,
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

/// Cache key: route tag + ladder content hash + every grid parameter —
/// two sweeps share a key exactly when their expanded populations match.
fn droop_sweep_key(p: &DroopSweepParams) -> u64 {
    ContentKey::new()
        .bytes(b"droop_sweep")
        .word(skylake_ladder_key(p.variant))
        .f64(p.source_v)
        .f64(p.quiescent_a)
        .f64(p.start_a)
        .f64(p.stop_a)
        .word(p.points as u64)
        .f64(p.slew_ns)
        .finish()
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

/// The final result: the full droop population in lane order plus its
/// extremes.
fn droop_sweep_result(p: &DroopSweepParams, droops: &[Volts]) -> Json {
    let mut worst = f64::NEG_INFINITY;
    let mut best = f64::INFINITY;
    for d in droops {
        worst = worst.max(d.as_mv());
        best = best.min(d.as_mv());
    }
    let lanes: Vec<Json> = droops.iter().map(|d| Json::Num(d.as_mv())).collect();
    obj(vec![
        ("variant", Json::Str(p.variant.label().to_owned())),
        ("n_lanes", Json::Num(approx_f64(droops.len()))),
        ("quiescent_a", Json::Num(p.quiescent_a)),
        ("start_a", Json::Num(p.start_a)),
        ("stop_a", Json::Num(p.stop_a)),
        ("slew_ns", Json::Num(p.slew_ns)),
        ("worst_droop_mv", Json::Num(worst)),
        ("best_droop_mv", Json::Num(best)),
        ("droop_mv", Json::Arr(lanes)),
    ])
}

// ------------------------------------------------------------------- sweep

#[derive(Debug)]
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

fn sweep_key(p: &SweepParams) -> u64 {
    ContentKey::new()
        .bytes(b"sweep")
        .word(skylake_ladder_key(p.variant))
        .f64(p.start_hz)
        .f64(p.stop_hz)
        .word(p.points as u64)
        .word(p.decimate as u64)
        .finish()
}

fn sweep_route(p: &SweepParams) -> HandlerResult {
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

/// The validated `POST /v1/product` request. The workload's name is only
/// checked against its catalog when the cell runs.
#[derive(Debug)]
struct ProductParams {
    design: DarkGates,
    tdp: Watts,
    workload: Workload,
}

#[derive(Debug)]
enum Workload {
    Spec { benchmark: String, mode: SpecMode },
    Graphics(String),
    Energy(String),
}

fn product_params(params: &Json) -> Result<ProductParams, RouteError> {
    let design = design_of(params)?;
    let tdp = catalog_tdp(params)?;
    let workload = params
        .get("workload")
        .ok_or_else(|| bad_request("missing `workload` object"))?;
    let named = |field: &str, what: &str| {
        workload
            .get(field)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| bad_request(format!("`workload.{field}` is required for {what}")))
    };
    let workload = match workload.get("kind").and_then(Json::as_str) {
        Some("spec") => {
            let benchmark = named("benchmark", "spec")?;
            let mode = match workload.get("mode").and_then(Json::as_str) {
                None | Some("base") => SpecMode::Base,
                Some("rate") => SpecMode::Rate,
                Some(_) => return Err(bad_request("`workload.mode` must be \"base\" or \"rate\"")),
            };
            Workload::Spec { benchmark, mode }
        }
        Some("graphics") => Workload::Graphics(named("scene", "graphics")?),
        Some("energy") => Workload::Energy(named("name", "energy")?),
        Some(other) => return Err(bad_request(format!("unknown `workload.kind` \"{other}\""))),
        None => {
            return Err(bad_request(
                "`workload.kind` must be \"spec\", \"graphics\" or \"energy\"",
            ))
        }
    };
    Ok(ProductParams {
        design,
        tdp,
        workload,
    })
}

fn product_key(p: &ProductParams) -> u64 {
    let k = ContentKey::new()
        .bytes(b"product")
        .word(u64::from(p.design == DarkGates::desktop()))
        .f64(p.tdp.value());
    match &p.workload {
        Workload::Spec { benchmark, mode } => k
            .bytes(b"spec")
            .bytes(benchmark.as_bytes())
            .bytes(b":")
            .bytes(mode.label().as_bytes()),
        Workload::Graphics(scene) => k.bytes(b"graphics").bytes(scene.as_bytes()),
        Workload::Energy(name) => k.bytes(b"energy").bytes(name.as_bytes()),
    }
    .finish()
}

fn product_route(p: &ProductParams) -> HandlerResult {
    let product = p.design.product(p.tdp);
    let cell = match &p.workload {
        Workload::Spec { benchmark, mode } => spec_cell(&product, benchmark, *mode)?,
        Workload::Graphics(scene) => graphics_cell(&product, scene)?,
        Workload::Energy(name) => energy_cell(&product, name)?,
    };
    Ok(obj(vec![
        ("product", Json::Str(product.name.clone())),
        ("tdp_w", Json::Num(p.tdp.value())),
        ("fmax_1c_mhz", Json::Num(product.fmax_1c().as_mhz())),
        ("cell", cell),
    ]))
}

fn spec_cell(product: &Product, name: &str, mode: SpecMode) -> HandlerResult {
    let bench =
        by_name(name).ok_or_else(|| bad_request(format!("unknown SPEC benchmark \"{name}\"")))?;
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

fn graphics_cell(product: &Product, scene_name: &str) -> HandlerResult {
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

fn energy_cell(product: &Product, name: &str) -> HandlerResult {
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

/// The debug route's `ms`: 100 unless the body says otherwise, capped at
/// [`MAX_SLEEP_MS`].
fn sleep_ms(body: &[u8]) -> u64 {
    std::str::from_utf8(body)
        .ok()
        .and_then(|t| json::parse(t).ok())
        .and_then(|v| v.get("ms").and_then(Json::as_u64))
        .unwrap_or(100)
        .min(MAX_SLEEP_MS)
}

fn debug_sleep(ms: u64) -> Response {
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

    /// The typed cache key of a valid body's parameters.
    fn typed_key<P>(
        body: &str,
        params: fn(&Json) -> Result<P, RouteError>,
        key: fn(&P) -> u64,
    ) -> u64 {
        let json = json::parse(body).expect("json");
        params(&json)
            .map(|p| key(&p))
            .ok()
            .expect("valid parameters")
    }

    #[test]
    fn identical_droop_batches_share_a_content_key() {
        let key = |body| typed_key(body, droop_batch_params, droop_batch_key);
        let a = key(r#"{"steps":[{"from_a":5,"to_a":40},{"from_a":10,"to_a":60}]}"#);
        let b = key(r#"{"steps":[{"to_a":40,"from_a":5},{"to_a":60,"from_a":10}]}"#);
        let c = key(r#"{"steps":[{"from_a":10,"to_a":60},{"from_a":5,"to_a":40}]}"#);
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
        assert_eq!((resp.status, resp.allow), (404, None));
        // Any method a known path's row does not list is a 405 whose
        // Allow names the row's method.
        for (method, target, allow) in [
            ("GET", "/v1/droop", "POST"),
            ("PUT", "/v1/droop", "POST"),
            ("PATCH", "/v1/droop", "POST"),
            ("OPTIONS", "/healthz", "GET"),
            ("HEAD", "/metrics", "GET"),
            ("DELETE", "/admin/drain?now", "POST"),
            ("POST", "/v1/claims", "GET"),
            ("GET", "/v1/droop_sweep", "POST"),
        ] {
            let req = Request {
                method: method.to_owned(),
                ..get(target)
            };
            let (route, resp) = r.handle(&req);
            assert_eq!(
                (route, resp.status, resp.allow),
                (Route::Other, 405, Some(allow)),
                "{method} {target}"
            );
            assert!(resp.body.contains("method not allowed"), "{}", resp.body);
        }
        // Debug routes stay hidden unless enabled: 404 for every method.
        for method in ["POST", "GET", "PATCH"] {
            let req = Request {
                method: method.to_owned(),
                ..post("/v1/debug/sleep", r#"{"ms":1}"#)
            };
            let (_, resp) = r.handle(&req);
            assert_eq!((resp.status, resp.allow), (404, None), "{method}");
        }
        let debug = Router::new(
            Arc::new(Metrics::default()),
            Arc::new(AtomicBool::new(false)),
            true,
        );
        let (_, resp) = debug.handle(&get("/v1/debug/sleep"));
        assert_eq!((resp.status, resp.allow), (405, Some("POST")));
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
        let key = |body| typed_key(body, droop_params, droop_key);
        let a = key(r#"{"from_a":10,"to_a":60}"#);
        let b = key(r#"{"to_a":60,"from_a":10}"#);
        let c = key(r#"{"from_a":10,"to_a":61}"#);
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
    fn router_affinity_key_matches_the_shard_cache_key() {
        // Same physics, different JSON spelling → same affinity key.
        let a = content_key_of("POST", "/v1/droop", br#"{"from_a":10,"to_a":60}"#);
        let b = content_key_of("POST", "/v1/droop", br#"{"to_a":60,"from_a":10}"#);
        assert_eq!(a, b);
        // And it is exactly the shard's response-cache key.
        let direct = typed_key(r#"{"from_a":10,"to_a":60}"#, droop_params, droop_key);
        assert_eq!(a, direct);
        let shard = router().query(&post("/v1/droop", r#"{"from_a":10,"to_a":60}"#));
        assert_eq!(a, shard.key);
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
    fn content_keys_are_pinned() {
        // Literal keys: a change to how any request is keyed strands every
        // response-cache entry, `resp/` file and router affinity arc.
        let cases: &[(&str, &str, &[u8], u64)] = &[
            // One valid request per route.
            ("GET", "/healthz", b"", 0x309d_4f26_9105_782c),
            ("GET", "/metrics", b"", 0xebd3_36cc_cc2e_d74d),
            ("POST", "/admin/drain", b"", 0x2594_958c_5d63_a9f2),
            ("GET", "/v1/claims", b"", 0xbe2f_be80_062c_f874),
            (
                "POST",
                "/v1/droop",
                br#"{"variant":"bypassed","from_a":5,"to_a":40,"source_v":1.0}"#,
                0x641d_e376_5f9c_ad01,
            ),
            (
                "POST",
                "/v1/droop_batch",
                br#"{"variant":"gated","steps":[{"from_a":10,"to_a":40},{"from_a":10,"to_a":50,"slew_ns":10}]}"#,
                0x0125_bc13_f4df_8cce,
            ),
            (
                "POST",
                "/v1/sweep",
                br#"{"variant":"gated","points":64,"decimate":8}"#,
                0x8da6_0d3f_7452_d8c8,
            ),
            (
                "POST",
                "/v1/product",
                br#"{"design":"desktop","tdp_w":91,"workload":{"kind":"spec","benchmark":"444.namd","mode":"base"}}"#,
                0xa929_8cd9_bbfb_52c9,
            ),
            (
                "POST",
                "/v1/explore",
                br#"{"seed":1,"tech_nodes":[45,22],"tdp_w":[45,91],"big_perf":[20],"small_perf":[2],"fraction_parallelism":[0.9]}"#,
                0x692d_0110_f832_08b4,
            ),
            (
                "POST",
                "/v1/droop_sweep",
                br#"{"variant":"bypassed","quiescent_a":8,"slew_ns":2,"delta":{"start_a":5,"stop_a":45,"points":9}}"#,
                0x6635_aa4b_a858_b2fd,
            ),
            // Every body of bad_parameters_yield_400_not_500.
            ("POST", "/v1/droop", br#"{"variant":"wormhole"}"#, 0xd092_2789_af5c_faf1),
            ("POST", "/v1/droop", br#"{"from_a":-3}"#, 0x3554_9361_cec9_4497),
            ("POST", "/v1/droop", br#"{"source_v":99}"#, 0xd56b_22e2_4b06_e8b9),
            ("POST", "/v1/sweep", br#"{"points":1}"#, 0xaadb_9b2d_8975_aef1),
            ("POST", "/v1/sweep", br#"{"points":9999999}"#, 0xf30c_1bd5_5295_3367),
            (
                "POST",
                "/v1/product",
                br#"{"tdp_w":50,"workload":{"kind":"spec","benchmark":"444.namd"}}"#,
                0xd572_24d3_ea9a_2574,
            ),
            (
                "POST",
                "/v1/product",
                br#"{"workload":{"kind":"spec","benchmark":"no.such"}}"#,
                0x2c44_1eab_6ec9_df7b,
            ),
            ("POST", "/v1/product", br#"{"workload":{"kind":"dance"}}"#, 0xce88_a18e_f89d_a97c),
            ("POST", "/v1/product", br#"{}"#, 0x956b_e1b0_fd4f_bcb2),
            ("POST", "/v1/droop", b"{not json", 0xf383_d3f8_eb28_7fbe),
            // Invalid batch, sweep grid and explore spec.
            ("POST", "/v1/droop_batch", br#"{"steps":[]}"#, 0x17d6_74dc_2fc0_fb2b),
            ("POST", "/v1/droop_sweep", br#"{"delta":{"points":8193}}"#, 0xa035_cbf9_f3fd_f956),
            ("POST", "/v1/explore", br#"{"tdp_w":[]}"#, 0x3b16_3b97_bc9b_9caa),
            // Bodies that are not UTF-8, not JSON, or not an object.
            ("POST", "/v1/droop", b"\xff\xfe{}", 0xdc04_29a4_d809_ba2f),
            ("POST", "/v1/explore", b"\xff\xfe{}", 0xa220_ff06_39fe_2a64),
            ("GET", "/v1/claims", b"\xff\xfe{}", 0xbe2f_be80_062c_f874),
            ("POST", "/v1/explore", b"{not json", 0xa68a_3d0a_055f_1103),
            ("POST", "/v1/droop_sweep", b"{not json", 0xad5d_99a9_8816_4507),
            ("POST", "/v1/droop", b"[1,2]", 0x68e0_e1d4_1002_8df0),
            // Empty bodies take every default.
            ("POST", "/v1/explore", b"", 0xa04f_c030_59be_10cb),
            ("POST", "/v1/droop", b"  ", 0x68e0_e1d4_1002_8df0),
            // Query strings, unknown paths, wrong methods, debug route.
            ("GET", "/v1/claims?pretty=1", b"", 0xbe2f_be80_062c_f874),
            ("POST", "/v1/droop?x=1", br#"{"from_a":10,"to_a":60}"#, 0x68e0_e1d4_1002_8df0),
            ("GET", "/v1/nope", b"x", 0xca77_ef96_da96_a446),
            ("GET", "/v1/droop", b"", 0x6bd9_4bf6_d922_fefa),
            ("PATCH", "/v1/droop", br#"{"from_a":10}"#, 0x04d8_5d00_6d8b_e557),
            ("POST", "/v1/debug/sleep", br#"{"ms":1}"#, 0xc736_4da8_8e74_7526),
        ];
        for &(method, target, body, want) in cases {
            assert_eq!(
                content_key_of(method, target, body),
                want,
                "{method} {target} {}",
                String::from_utf8_lossy(body)
            );
        }
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
