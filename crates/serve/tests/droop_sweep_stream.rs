//! End-to-end tests for the streaming `/v1/droop_sweep` route: chunked
//! NDJSON framing on the wire, progress waves ahead of the result line,
//! rejection statuses, and the bit-identity contract — every lane served
//! over HTTP must equal a direct `didt::droop_sweep` library call down to
//! the f64 bit pattern, because the JSON renderer emits shortest-roundtrip
//! floats in both directions.

use darkgates::pdn::didt;
use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};
use darkgates::pdn::transient::TransientSim;
use darkgates::pdn::units::{Amps, Seconds, Volts};
use dg_serve::client::http_request;
use dg_serve::http::read_reply;
use dg_serve::json::{self, Json};
use dg_serve::proxy::{RouterConfig, RouterServer};
use dg_serve::routes::delta_grid;
use dg_serve::{Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

fn start() -> ServerHandle {
    Server::start(ServerConfig {
        workers: 2,
        queue_depth: 16,
        read_timeout_ms: 5_000,
        ..ServerConfig::default()
    })
    .expect("bind on 127.0.0.1:0")
}

/// An 11-point grid: not a multiple of either SIMD width (11 = 2x4+3 =
/// 8+3), so the batched kernel runs a full vector plus remainder lanes —
/// exactly the shape where a sloppy remainder path would diverge.
const SMALL_GRID: &str = r#"{"variant":"gated","source_v":1.0,"quiescent_a":6,
    "slew_ns":3,"delta":{"start_a":4,"stop_a":44,"points":11}}"#;

/// The droop population the library computes for [`SMALL_GRID`], in mV.
fn expected_lanes() -> Vec<f64> {
    let pdn = SkylakePdn::build(PdnVariant::Gated);
    let sim = TransientSim::droop_capture(Volts::new(1.0));
    let deltas: Vec<Amps> = delta_grid(4.0, 44.0, 11)
        .into_iter()
        .map(Amps::new)
        .collect();
    didt::droop_sweep(
        &pdn.ladder,
        &sim,
        Amps::new(6.0),
        &deltas,
        Seconds::from_ns(3.0),
    )
    .iter()
    .map(|v| v.as_mv())
    .collect()
}

/// Extracts `droop_mv` from a parsed NDJSON line (progress lines carry it
/// at the top level, the result line nests it under `result`).
fn droop_lanes(v: &Json) -> Vec<f64> {
    let arr = v
        .get("droop_mv")
        .or_else(|| v.get("result").and_then(|r| r.get("droop_mv")))
        .and_then(Json::as_arr)
        .expect("droop_mv array");
    arr.iter().map(|n| n.as_f64().expect("lane")).collect()
}

fn assert_bits_equal(served: &[f64], direct: &[f64]) {
    assert_eq!(served.len(), direct.len(), "lane count");
    for (lane, (s, d)) in served.iter().zip(direct).enumerate() {
        assert_eq!(
            s.to_bits(),
            d.to_bits(),
            "lane {lane}: served {s} vs library {d}"
        );
    }
}

#[test]
fn droop_sweep_streams_chunked_ndjson_and_lanes_are_bit_identical() {
    let handle = start();
    assert_streams_bit_identical_lanes(handle.local_addr());
    assert!(handle.shutdown().clean);

    // The same stream relayed by a router. Its shard is fresh: a repeat
    // on the first one would be a cache hit streaming only the result.
    let shard = start();
    let router = RouterServer::start(RouterConfig {
        shards: vec![shard.local_addr()],
        ..RouterConfig::default()
    })
    .expect("router start");
    assert_streams_bit_identical_lanes(router.local_addr());
    assert!(router.shutdown());
    assert!(shard.shutdown().clean);
}

/// Sends [`SMALL_GRID`] to `addr` and checks the chunked NDJSON framing,
/// the progress waves, and every lane against the library.
fn assert_streams_bit_identical_lanes(addr: SocketAddr) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let raw = format!(
        "POST /v1/droop_sweep HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        SMALL_GRID.len(),
        SMALL_GRID
    );
    s.write_all(raw.as_bytes()).expect("write");
    let mut bytes = Vec::new();
    s.read_to_end(&mut bytes).expect("read");
    let mut wire = bytes.as_slice();
    let mut leftover = Vec::new();
    let reply = read_reply(&mut wire, &mut leftover).expect("one complete chunked reply");
    assert!(wire.is_empty() && leftover.is_empty(), "nothing follows it");
    let text = String::from_utf8_lossy(&reply.bytes);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert_eq!(reply.header("transfer-encoding"), Some("chunked"), "{text}");
    let content_type = reply.header("content-type").unwrap_or_default();
    assert!(content_type.contains("application/x-ndjson"), "{text}");
    assert!(
        reply.header("content-length").is_none(),
        "a chunked head must not also declare a length: {text}"
    );

    let payload = reply.body().into_owned();
    let payload = String::from_utf8(payload).expect("utf-8 NDJSON");
    let lines: Vec<&str> = payload.lines().collect();
    assert!(
        lines.len() >= 2,
        "an 11-lane sweep must stream at least one progress wave: {payload}"
    );

    // Progress waves carry running lane counts and, concatenated, the
    // whole population in lane order.
    let mut streamed: Vec<f64> = Vec::new();
    for line in &lines[..lines.len() - 1] {
        let v = json::parse(line).expect("progress JSON");
        assert_eq!(v.get("total").and_then(Json::as_u64), Some(11), "{line}");
        assert!(
            v.get("completed").and_then(Json::as_u64).is_some(),
            "{line}"
        );
        streamed.extend(droop_lanes(&v));
    }
    let result = json::parse(lines.last().expect("result line")).expect("result JSON");
    assert_eq!(result.get("ok").and_then(Json::as_bool), Some(true));
    let result_lanes = droop_lanes(&result);
    let direct = expected_lanes();
    assert_bits_equal(&result_lanes, &direct);
    assert_bits_equal(&streamed, &direct);

    let r = result.get("result").expect("result object");
    assert_eq!(r.get("n_lanes").and_then(Json::as_u64), Some(11));
    let worst = r
        .get("worst_droop_mv")
        .and_then(Json::as_f64)
        .expect("worst");
    let max = direct.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(worst.to_bits(), max.to_bits(), "worst lane");
}

#[test]
fn droop_sweep_replay_is_byte_identical_and_served_from_the_cache() {
    let handle = start();
    let addr = handle.local_addr();
    let grid = r#"{"variant":"bypassed","delta":{"start_a":10,"stop_a":30,"points":3}}"#;
    let first = http_request(addr, "POST", "/v1/droop_sweep", Some(grid)).expect("first");
    assert_eq!(first.status, 200, "{}", first.body);
    let hits_before = handle
        .metrics()
        .resp_cache_hits_total
        .load(Ordering::Relaxed);
    // The same grid modulo key order and explicit defaults normalizes to
    // the same cache key, so this replays the first run's exact bytes.
    let reshaped = r#"{"delta":{"points":3,"stop_a":30,"start_a":10},
        "slew_ns":0,"quiescent_a":10,"source_v":1.0,"variant":"bypassed"}"#;
    let second = http_request(addr, "POST", "/v1/droop_sweep", Some(reshaped)).expect("second");
    assert_eq!(second.status, 200);
    assert_eq!(
        second.body.lines().count(),
        1,
        "a cache replay streams only the result line: {}",
        second.body
    );
    assert_eq!(
        first.body.lines().last(),
        second.body.lines().last(),
        "cache replay must be byte-identical to the computed result"
    );
    assert!(
        handle
            .metrics()
            .resp_cache_hits_total
            .load(Ordering::Relaxed)
            > hits_before,
        "the replay must come from the response cache"
    );
    assert!(handle.shutdown().clean);
}

#[test]
fn droop_sweep_rejects_bad_grids_with_plain_framing() {
    let handle = start();
    let addr = handle.local_addr();

    let bad =
        http_request(addr, "POST", "/v1/droop_sweep", Some("{not a grid")).expect("malformed");
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(
        bad.header("content-length").is_some(),
        "rejections are not streamed"
    );

    let oversized = http_request(
        addr,
        "POST",
        "/v1/droop_sweep",
        Some(r#"{"delta":{"start_a":1,"stop_a":50,"points":8193}}"#),
    )
    .expect("oversized");
    assert_eq!(oversized.status, 400, "{}", oversized.body);
    assert!(oversized.body.contains("8192"), "{}", oversized.body);

    let unknown = http_request(
        addr,
        "POST",
        "/v1/droop_sweep",
        Some(r#"{"variant":"wormhole","delta":{"points":2}}"#),
    )
    .expect("unknown variant");
    assert_eq!(unknown.status, 400, "{}", unknown.body);

    // GET on the route is a 405, not a stream; the server still serves
    // ordinary traffic afterwards.
    let wrong_method = http_request(addr, "GET", "/v1/droop_sweep", None).expect("method");
    assert_eq!(wrong_method.status, 405);
    let health = http_request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(handle.metrics().panics_total.load(Ordering::Relaxed), 0);
    assert!(handle.shutdown().clean);
}
