//! In-process end-to-end smoke: a real server on a real socket, the real
//! mixed burst (including malformed and oversized probes), forced
//! overload, coalescing under concurrency, metrics, and a clean drain.
//!
//! This is the library-level twin of the CI `dg-load --smoke --spawn`
//! step: same assertions, but against `Server::start` in-process, so a
//! regression is caught by `cargo test` without building binaries.

use dg_serve::client::{http_request, run_mix, run_mix_with, MixKind, RunOptions};
use dg_serve::http::ParserLimits;
use dg_serve::json::{self, Json};
use dg_serve::{Server, ServerConfig};
use std::sync::atomic::Ordering;

fn start(config: ServerConfig) -> dg_serve::ServerHandle {
    Server::start(config).expect("bind on 127.0.0.1:0")
}

fn small() -> ServerConfig {
    // Deliberately starved (8 burst clients against capacity 8 = 2 in
    // service + 6 queued) so overload stays reachable, but not so tight
    // that admission races dominate now that the explicit-SIMD kernel
    // answers transient routes in milliseconds even without optimization.
    ServerConfig {
        workers: 2,
        queue_depth: 6,
        read_timeout_ms: 500,
        enable_debug_routes: true,
        ..ServerConfig::default()
    }
}

#[test]
fn mixed_burst_has_no_5xx_other_than_503_and_drains_cleanly() {
    let handle = start(small());
    let addr = handle.local_addr();

    let report = run_mix(addr, 200, 42, 8);
    assert_eq!(report.requests, 200);
    assert_eq!(report.other_5xx, 0, "no 5xx other than 503: {report:?}");
    assert_eq!(report.transport_errors, 0, "{report:?}");
    assert_eq!(report.expectation_failures, 0, "{report:?}");
    assert!(report.ok_2xx > 100, "most of the mix succeeds: {report:?}");
    assert!(
        report.err_4xx > 0,
        "the mix's malformed/oversized probes must have been answered 4xx"
    );

    let metrics = handle.metrics();
    assert!(metrics.bad_requests_total.load(Ordering::Relaxed) > 0);
    assert_eq!(metrics.panics_total.load(Ordering::Relaxed), 0);

    let text = http_request(addr, "GET", "/metrics", None)
        .expect("metrics")
        .body;
    assert!(text.contains("dg_requests_total{route=\"droop\",class=\"2xx\"}"));
    assert!(text.contains("dg_request_latency_us_bucket"));
    assert!(text.contains("dg_bad_requests_total"));

    let drained = handle.shutdown();
    assert!(drained.clean, "graceful drain must be clean");
    // Shed connections are answered by the accept loop and malformed
    // framing is answered before a request parses, so the worker-served
    // count covers (at least) every 2xx the burst saw.
    assert!(
        drained.requests_served >= report.ok_2xx as usize,
        "served {} < ok_2xx {}",
        drained.requests_served,
        report.ok_2xx
    );
}

#[test]
fn served_droop_matches_direct_library_call() {
    use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};
    use darkgates::pdn::transient::{LoadStep, TransientSim};
    use darkgates::pdn::units::{Amps, Seconds, Volts};

    let handle = start(small());
    let reply = http_request(
        handle.local_addr(),
        "POST",
        "/v1/droop",
        Some(r#"{"variant":"gated","from_a":12,"to_a":55,"source_v":1.05,"slew_ns":5}"#),
    )
    .expect("request");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let served = json::parse(&reply.body)
        .expect("valid JSON")
        .get("result")
        .and_then(|r| r.get("droop_mv"))
        .and_then(Json::as_f64)
        .expect("droop_mv");

    let pdn = SkylakePdn::build(PdnVariant::Gated);
    let direct = TransientSim::droop_capture(Volts::new(1.05))
        .run(
            &pdn.ladder,
            LoadStep {
                from: Amps::new(12.0),
                to: Amps::new(55.0),
                at: Seconds::from_us(1.0),
                slew: Seconds::from_ns(5.0),
            },
        )
        .droop()
        .as_mv();
    assert!(
        (served - direct).abs() < 1e-9,
        "served {served} vs direct {direct}"
    );
    assert!(handle.shutdown().clean);
}

#[test]
fn forced_overload_sheds_with_503_and_retry_after_only() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..small()
    });
    let addr = handle.local_addr();

    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                http_request(addr, "POST", "/v1/debug/sleep", Some(r#"{"ms":400}"#)).map(|r| {
                    (
                        r.status,
                        r.header("retry-after").map(str::to_owned),
                        r.header("connection").map(str::to_owned),
                    )
                })
            })
        })
        .collect();
    let mut shed = 0;
    for t in threads {
        let (status, retry_after, connection) =
            t.join().expect("client thread").expect("transport");
        match status {
            200 => {}
            503 => {
                shed += 1;
                assert!(retry_after.is_some(), "503 must carry Retry-After");
                assert_eq!(
                    connection.as_deref(),
                    Some("close"),
                    "503 must carry Connection: close"
                );
            }
            other => panic!("overload must answer 200 or 503, got {other}"),
        }
    }
    assert!(
        shed >= 1,
        "with 1 worker + queue depth 1, 8 concurrent slow requests must shed"
    );
    assert_eq!(handle.metrics().shed_total.load(Ordering::Relaxed), shed);
    assert!(handle.shutdown().clean);
}

#[test]
fn shed_requests_recover_under_a_followup_burst() {
    // Regression for the shedding path: a burst that forces 503s must not
    // poison the server — an immediately following burst of valid traffic
    // has to come back entirely 2xx.
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..small()
    });
    let addr = handle.local_addr();

    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                http_request(addr, "POST", "/v1/debug/sleep", Some(r#"{"ms":300}"#))
                    .expect("transport")
                    .status
            })
        })
        .collect();
    let mut shed = 0;
    for t in threads {
        match t.join().expect("client thread") {
            200 => {}
            503 => shed += 1,
            other => panic!("overload must answer 200 or 503, got {other}"),
        }
    }
    assert!(shed >= 1, "the setup burst must actually shed");

    // Recovery: the same server, serial valid-only keep-alive traffic.
    // (One request in flight never fills even a depth-1 queue, so any
    // shed here means the burst left the admission path wedged.)
    let report = run_mix_with(
        addr,
        &RunOptions {
            n: 100,
            seed: 7,
            concurrency: 1,
            kind: MixKind::Valid,
            keep_alive: true,
        },
    );
    assert_eq!(report.requests, 100);
    assert_eq!(
        report.ok_2xx, 100,
        "post-shed valid traffic must be all-2xx: {report:?}"
    );
    assert_eq!(report.transport_errors, 0, "{report:?}");
    assert!(handle.shutdown().clean);
}

#[test]
fn keep_alive_valid_mix_is_error_free_end_to_end() {
    let handle = start(ServerConfig {
        workers: 4,
        queue_depth: 64,
        ..small()
    });
    let report = run_mix_with(
        handle.local_addr(),
        &RunOptions {
            n: 200,
            seed: 42,
            concurrency: 8,
            kind: MixKind::Valid,
            keep_alive: true,
        },
    );
    assert_eq!(report.requests, 200);
    assert_eq!(report.ok_2xx, 200, "{report:?}");
    assert_eq!(report.err_4xx, 0, "{report:?}");
    assert_eq!(report.transport_errors, 0, "{report:?}");
    assert!(report.p50_us() > 0 && report.p99_us() >= report.p50_us());
    let drained = handle.shutdown();
    assert!(drained.clean);
}

#[test]
fn concurrent_identical_sweeps_coalesce_to_one_leader() {
    let handle = start(ServerConfig {
        workers: 6,
        queue_depth: 32,
        ..small()
    });
    let addr = handle.local_addr();
    let metrics = handle.metrics();
    // Six concurrent identical sweeps of a shape nothing else computes
    // (a response-cache miss, expensive enough to overlap). The overlap
    // window is scheduling-dependent, so allow a few attempts — each with
    // a fresh content key — before declaring coalescing broken.
    let mut coalesced = false;
    for attempt in 0..5 {
        let body = format!(
            "{{\"variant\":\"gated\",\"points\":19999,\"decimate\":1000,\"start_hz\":{}}}",
            12_345 + attempt
        );
        let before_leaders = metrics.coalesce_leaders_total.load(Ordering::Relaxed);
        let before_followers = metrics.coalesced_total.load(Ordering::Relaxed);
        let before_hits = metrics.resp_cache_hits_total.load(Ordering::Relaxed);
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let body = body.clone();
                std::thread::spawn(move || {
                    http_request(addr, "POST", "/v1/sweep", Some(&body))
                        .expect("sweep")
                        .status
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().expect("client"), 200);
        }
        let leaders = metrics.coalesce_leaders_total.load(Ordering::Relaxed) - before_leaders;
        let followers = metrics.coalesced_total.load(Ordering::Relaxed) - before_followers;
        let cache_hits = metrics.resp_cache_hits_total.load(Ordering::Relaxed) - before_hits;
        assert_eq!(
            leaders + followers + cache_hits,
            6,
            "every request is a leader, a coalesced follower, or a response-cache hit"
        );
        assert!(leaders >= 1);
        if followers >= 1 {
            coalesced = true;
            break;
        }
    }
    assert!(
        coalesced,
        "no attempt produced a coalesced follower for identical concurrent sweeps"
    );
    assert!(handle.shutdown().clean);
}

#[test]
fn claims_endpoint_grades_all_twelve() {
    let handle = start(small());
    let reply = http_request(handle.local_addr(), "GET", "/v1/claims", None).expect("claims");
    assert_eq!(reply.status, 200);
    let v = json::parse(&reply.body).expect("valid JSON");
    let result = v.get("result").expect("result");
    assert_eq!(result.get("total").and_then(Json::as_u64), Some(12));
    assert_eq!(result.get("passed").and_then(Json::as_u64), Some(12));
    assert!(handle.shutdown().clean);
}

#[test]
fn oversized_and_malformed_requests_do_not_kill_the_connection_handling() {
    let handle = start(ServerConfig {
        limits: ParserLimits {
            max_body_bytes: 256,
            ..ParserLimits::default()
        },
        ..small()
    });
    let addr = handle.local_addr();
    let reply = dg_serve::client::raw_request(
        addr,
        b"POST /v1/droop HTTP/1.1\r\nHost: x\r\nContent-Length: 100000\r\n\r\n",
    )
    .expect("reply");
    assert_eq!(reply.status, 413);
    let reply = dg_serve::client::raw_request(addr, b"complete garbage\r\n\r\n").expect("reply");
    assert_eq!(reply.status, 400);
    // The server is still fine afterwards.
    let reply = http_request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(reply.status, 200);
    assert!(handle.shutdown().clean);
}
