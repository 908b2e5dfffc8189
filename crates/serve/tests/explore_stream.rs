//! End-to-end tests for the streaming `/v1/explore` route: chunked
//! NDJSON framing on the wire, progress lines ahead of the result line,
//! rejection statuses, and the byte-identity contract — the result line
//! served over HTTP, replayed from the response cache, and computed by a
//! direct `dg_explore` library call must all match byte for byte.

use dg_serve::client::http_request;
use dg_serve::http::read_reply;
use dg_serve::json::{obj, Json};
use dg_serve::{Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
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

/// A 64-point spec with the smallest progress cadence, so the stream
/// carries several progress lines before the result.
const SMALL_SPEC: &str = r#"{"tech_nodes":[45,22],"tdp_w":[35,45,65,91],
    "big_perf":[10,20],"small_perf":[1,2],"fraction_parallelism":[0.9],
    "batch":16}"#;

/// What the library renders for `spec`: the exact body `/v1/explore`
/// must serve as its result line.
fn expected_result_body(spec_text: &str) -> String {
    let spec = dg_explore::ExploreSpec::from_text(spec_text).expect("valid spec");
    let result = dg_explore::run(&spec).expect("sweep runs");
    obj(vec![("ok", Json::Bool(true)), ("result", result.to_json())]).render()
}

#[test]
fn explore_streams_chunked_ndjson_progress_then_result() {
    let handle = start();
    let mut s = TcpStream::connect(handle.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let raw = format!(
        "POST /v1/explore HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        SMALL_SPEC.len(),
        SMALL_SPEC
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
        lines.len() >= 3,
        "64 points at batch 16 must stream progress before the result: {payload}"
    );
    for line in &lines[..lines.len() - 1] {
        assert!(
            line.contains("\"completed\"") && line.contains("\"total\":64"),
            "progress line malformed: {line}"
        );
    }
    let result_line = lines.last().expect("result line");
    assert_eq!(
        *result_line,
        expected_result_body(SMALL_SPEC),
        "the streamed result must equal the direct library rendering"
    );
    assert!(handle.shutdown().clean);
}

#[test]
fn explore_replay_is_byte_identical_and_served_from_the_cache() {
    let handle = start();
    let addr = handle.local_addr();
    let first = http_request(addr, "POST", "/v1/explore", Some(SMALL_SPEC)).expect("first");
    assert_eq!(first.status, 200, "{}", first.body);
    let hits_before = handle
        .metrics()
        .resp_cache_hits_total
        .load(Ordering::Relaxed);
    // Same spec modulo formatting and explicit defaults: the normalized
    // spec keys the cache, so this replays the first run's exact bytes.
    let reshaped = r#"{"batch":16,"fraction_parallelism":[0.9],"small_perf":[1,2],
        "big_perf":[10,20],"tdp_w":[35,45,65,91],"tech_nodes":[45,22],"seed":0}"#;
    let second = http_request(addr, "POST", "/v1/explore", Some(reshaped)).expect("second");
    assert_eq!(second.status, 200);
    // A replay streams no progress (the work already happened): its whole
    // payload is the result line, byte-identical to the first run's.
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
    // The de-chunked body is progress lines + result line; the result
    // line must match the library byte for byte.
    let result_line = first.body.lines().last().expect("result line");
    assert_eq!(result_line, expected_result_body(SMALL_SPEC));
    assert!(handle.shutdown().clean);
}

#[test]
fn explore_rejects_malformed_and_oversized_specs_with_plain_framing() {
    let handle = start();
    let addr = handle.local_addr();

    let bad = http_request(addr, "POST", "/v1/explore", Some("{not a spec")).expect("malformed");
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(
        bad.header("content-length").is_some(),
        "rejections are not streamed"
    );

    let unknown =
        http_request(addr, "POST", "/v1/explore", Some(r#"{"typo_axis":[1]}"#)).expect("unknown");
    assert_eq!(unknown.status, 400, "{}", unknown.body);
    assert!(unknown.body.contains("typo_axis"), "{}", unknown.body);

    // 6 nodes x 4 TDP x 4 big x 4 small x 32 F x 2 fuse = 24576 > 20000.
    let fractions: Vec<String> = (0..32)
        .map(|i| format!("{:.6}", f64::from(i) / 32.0))
        .collect();
    let oversized = format!("{{\"fraction_parallelism\":[{}]}}", fractions.join(","));
    let too_big = http_request(addr, "POST", "/v1/explore", Some(&oversized)).expect("oversized");
    assert_eq!(too_big.status, 413, "{}", too_big.body);
    assert!(too_big.body.contains("24576"), "{}", too_big.body);

    // GET on the route is a 405, not a stream.
    let wrong_method = http_request(addr, "GET", "/v1/explore", None).expect("method");
    assert_eq!(wrong_method.status, 405);

    // The server still serves ordinary traffic afterwards.
    let health = http_request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(handle.metrics().panics_total.load(Ordering::Relaxed), 0);
    assert!(handle.shutdown().clean);
}

#[test]
fn explore_completes_a_ten_thousand_point_sweep_over_http() {
    // The checked-in Charm-class sweep (14,400 configs, chunked through
    // `par_map`) must stream progress and finish with a result line that
    // matches the library rendering byte for byte — the acceptance bar
    // for serving real design-space sweeps, not just toy grids.
    let spec = include_str!("../../explore/specs/charm_full.json");
    let handle = start();
    let reply =
        http_request(handle.local_addr(), "POST", "/v1/explore", Some(spec)).expect("large sweep");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let lines: Vec<&str> = reply.body.lines().collect();
    assert!(
        lines.len() >= 2,
        "a 14,400-point sweep at batch 512 must stream progress: {} lines",
        lines.len()
    );
    for line in &lines[..lines.len() - 1] {
        assert!(
            line.contains("\"total\":14400"),
            "progress malformed: {line}"
        );
    }
    let result_line = lines.last().expect("result line");
    assert!(
        result_line.contains("\"total_points\":14400"),
        "{result_line}"
    );
    assert_eq!(
        *result_line,
        expected_result_body(spec),
        "HTTP and library renderings must agree on the large sweep"
    );
    assert!(handle.shutdown().clean);
}

#[test]
fn concurrent_identical_explores_agree_byte_for_byte() {
    let handle = start();
    let addr = handle.local_addr();
    // A spec nothing else requests (distinct seed) so the run is cold.
    let spec = r#"{"seed":9,"tech_nodes":[45,22,16],"tdp_w":[35,91],
        "big_perf":[10,30],"small_perf":[2],"fraction_parallelism":[0.99],"batch":16}"#;
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let reply = http_request(addr, "POST", "/v1/explore", Some(spec)).expect("reply");
                assert_eq!(reply.status, 200, "{}", reply.body);
                reply.body.lines().last().expect("result line").to_owned()
            })
        })
        .collect();
    let results: Vec<String> = threads
        .into_iter()
        .map(|t| t.join().expect("client"))
        .collect();
    for pair in results.windows(2) {
        assert_eq!(pair[0], pair[1], "all clients must see identical results");
    }
    assert!(handle.shutdown().clean);
}
