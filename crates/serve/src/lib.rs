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
//! | `GET /metrics` | Prometheus text: latency histograms, shed/coalesce/panic counters |
//! | `GET /healthz` | liveness + drain state |
//! | `POST /admin/drain` | start a graceful drain |
//!
//! The serve tier is event-driven (DESIGN.md §12) and has one connection
//! engine ([`event_loop`]): an epoll loop owns every connection's state
//! machine with HTTP/1.1 keep-alive, queued work runs on a bounded worker
//! pool, and completions wake the loop through a self-pipe. A shard
//! ([`server`]) and the `dg-router` binary ([`proxy`]) are two small
//! dispatchers on that engine. The router consistent-hashes requests
//! across N shards on the same content keys the caches use, so
//! coalescing and caches stay shard-local; `--cache-dir` persists
//! response bodies and impedance profiles to disk
//! ([`darkgates::pdn::diskcache`]) so restarted shards warm instantly.
//!
//! Four mechanisms keep the daemon well-behaved under load (DESIGN.md
//! §9, §12): **admission control** (a bounded dispatch queue; overflow is
//! answered `503` with a queue-depth-derived `Retry-After` instead of
//! queuing unboundedly), **request coalescing** (concurrent identical
//! requests — identical by the same content hashes the substrate caches
//! use — compute once), **response caching** (deterministic 200s are
//! reused outright, in memory and on disk), and **graceful drain** (stop
//! admitting, finish what was admitted, then exit; SIGTERM does this in
//! the binary).
//!
//! `/v1/explore` and `/v1/droop_sweep` are the streaming routes
//! (DESIGN.md §14): the worker emits a chunked-transfer NDJSON stream — a
//! progress line after every evaluated batch or lane wave, then a result
//! line — through multi-completion dispatch to the event loop. Replays
//! (response-cache hits, coalesced followers) stream only the result
//! line, byte-identical to the leader's.
//!
//! The crate is on the `dg-analyze` no-panic list: handler bugs become
//! `500`s and a `dg_panics_total` increment, never a dead worker.

pub mod client;
pub mod coalesce;
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
