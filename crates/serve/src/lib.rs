//! `dg-serve`: the DarkGates experiment stack as a service.
//!
//! A dependency-free (std-only TCP, hand-rolled JSON) multi-threaded
//! HTTP/1.1 daemon exposing the simulation library over a small API:
//!
//! | endpoint | what it computes |
//! |---|---|
//! | `POST /v1/droop` | one transient droop capture ([`darkgates::pdn::transient`]) |
//! | `POST /v1/droop_batch` | up to 256 load-step lanes through the lockstep explicit-SIMD kernel |
//! | `POST /v1/sweep` | an impedance sweep over the client's frequency grid, computed per request (repeats come from the response cache) |
//! | `POST /v1/product` | a SPEC / graphics / energy cell on a catalog product |
//! | `POST /v1/explore` | a design-space sweep ([`dg_explore`]) streamed as chunked NDJSON: progress lines per batch, then the result document |
//! | `POST /v1/droop_sweep` | a population droop sweep: a delta *grid* expanded server-side into up to 8192 lanes, streamed as chunked NDJSON waves |
//! | `GET /v1/claims` | the 12 paper-claim graders ([`darkgates::claims`]) |
//! | `GET /metrics` | Prometheus text: latency histograms, shed/cache/panic counters |
//! | `GET /healthz` | liveness + drain state |
//! | `POST /admin/drain` | start a graceful drain |
//!
//! The serve tier is event-driven (DESIGN.md §12) and has one connection
//! engine ([`event_loop`]): an epoll loop owns every connection's state
//! machine with HTTP/1.1 keep-alive, queued work runs on a bounded worker
//! pool, and completions wake the loop through a self-pipe. A shard
//! ([`server`]) and the `dg-router` binary ([`proxy`]) are two small
//! dispatchers on that engine. The router consistent-hashes requests
//! across N shards on the same content keys the caches use, so each
//! shard's caches see every repeat of a key; `--cache-dir` gives a
//! shard's response cache ([`respcache`]) its own disk tier, an
//! append-only log of bodies under a byte budget, so restarted shards
//! warm instantly.
//!
//! The client side has one connection type too, [`client::Conn`]: the
//! router's upstream pool and health probe and the one-shot
//! [`client::http_request`] both send on it. It retries once, on a fresh
//! socket, only when a reused keep-alive socket failed. Every reply it
//! reads is decoded once, by [`http::read_reply`]: one forward pass,
//! resumed where each read stopped, records the status, headers,
//! `Connection: close` verdict and chunk spans, and the
//! [`http::RawReply`] it returns hands out the de-chunked body and the
//! router's stream-replay verdict without parsing the reply again.
//!
//! Three mechanisms keep the daemon well-behaved under load (DESIGN.md
//! §9, §12): **admission control** (a bounded dispatch queue; overflow is
//! answered `503` with a queue-depth-derived `Retry-After` instead of
//! queuing unboundedly), **response caching** (deterministic 200s —
//! identical by the same content hashes the substrate caches use — are
//! reused outright, in memory and on disk), and **graceful drain** (stop
//! admitting, finish what was admitted, then exit; SIGTERM does this in
//! the binary). Control routes (`/healthz`, `/metrics`, `/admin/drain`)
//! are answered on the event loop, so overload never sheds them.
//!
//! `/v1/explore` and `/v1/droop_sweep` are the streaming routes
//! (DESIGN.md §14): the worker emits a chunked-transfer NDJSON stream — a
//! progress line after every evaluated batch or lane wave, then a result
//! line — through multi-completion dispatch to the event loop.
//! Response-cache replays stream only the result line, byte-identical to
//! the computed one.
//!
//! The crate is on the `dg-analyze` no-panic list. The connection engine
//! is the one panic boundary: a handler bug becomes a `500` (or, once a
//! stream's head is out, a cut stream and a close) and a
//! `dg_panics_total` increment, never a dead worker.

pub mod client;
mod diskcache;
pub mod event_loop;
pub mod http;
pub mod json;
pub mod metrics;
pub mod proxy;
pub mod queue;
pub mod respcache;
pub mod ring;
pub mod routes;
pub mod server;

pub use server::{DrainReport, Server, ServerConfig, ServerHandle};
