//! `dg-router` on the shared connection engine: pipelining on a client
//! connection, verbatim forwarding of request bodies over pooled shard
//! connections, and the graceful drain it shares with the shards.

use dg_serve::client::{http_request, raw_request};
use dg_serve::http::{read_reply, RawReply};
use dg_serve::metrics::monotonic_us;
use dg_serve::proxy::{RouterConfig, RouterHandle, RouterServer};
use dg_serve::{Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const DROOP_40: &str = r#"{"variant":"gated","from_a":10,"to_a":40}"#;
const DROOP_60: &str = r#"{"variant":"gated","from_a":10,"to_a":60}"#;

fn start_shard(enable_debug_routes: bool) -> ServerHandle {
    Server::start(ServerConfig {
        workers: 2,
        enable_debug_routes,
        ..ServerConfig::default()
    })
    .expect("shard start")
}

/// One forward worker and no reply cache: every request reaches the shard
/// over the same pooled upstream connection.
fn start_router(shard: SocketAddr) -> RouterHandle {
    RouterServer::start(RouterConfig {
        shards: vec![shard],
        workers: 1,
        reply_cache_entries: 0,
        ..RouterConfig::default()
    })
    .expect("router start")
}

fn post(path: &str, body: &str, close: bool) -> String {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\n{connection}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn pipelined_requests_through_the_router_are_answered_in_order() {
    let shard = start_shard(false);
    let router = start_router(shard.local_addr());
    let direct = |body| {
        http_request(shard.local_addr(), "POST", "/v1/droop", Some(body))
            .expect("direct droop")
            .body
    };
    let (want_40, want_60) = (direct(DROOP_40), direct(DROOP_60));
    assert_ne!(want_40, want_60);

    let mut s = TcpStream::connect(router.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    // Three requests in one write; the last asks to close, so
    // read_to_end frames the burst.
    let burst = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n{}{}",
        post("/v1/droop", DROOP_40, false),
        post("/v1/droop", DROOP_60, true)
    );
    s.write_all(burst.as_bytes()).expect("write");
    let mut bytes = Vec::new();
    s.read_to_end(&mut bytes).expect("read");

    let mut wire = bytes.as_slice();
    let mut leftover = Vec::new();
    let replies: Vec<RawReply> = (0..3)
        .map(|_| read_reply(&mut wire, &mut leftover).expect("a complete reply"))
        .collect();
    assert!(
        leftover.is_empty() && wire.is_empty(),
        "exactly three replies"
    );
    assert!(replies.iter().all(|r| r.status == 200));
    let health = String::from_utf8_lossy(&replies[0].body()).into_owned();
    assert!(health.contains("\"role\":\"router\""), "{health}");
    assert_eq!(&*replies[1].body(), want_40.as_bytes());
    assert_eq!(&*replies[2].body(), want_60.as_bytes());

    assert!(router.shutdown());
    assert!(shard.shutdown().clean);
}

#[test]
fn non_utf8_bodies_are_forwarded_verbatim() {
    let shard = start_shard(false);
    let router = start_router(shard.local_addr());
    let addr = router.local_addr();

    let bad = raw_request(
        addr,
        b"POST /v1/droop HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\nConnection: close\r\n\r\n\xff",
    )
    .expect("reply");
    assert_eq!(bad.status, 400, "{}", bad.body);
    // The next request rides the same pooled shard connection: a body
    // re-encoded to more bytes than its Content-Length would have left
    // the surplus in the shard's parser, in front of this request.
    let good = http_request(addr, "POST", "/v1/droop", Some(DROOP_40)).expect("droop");
    assert_eq!(good.status, 200, "{}", good.body);

    assert!(router.shutdown());
    assert!(shard.shutdown().clean);
}

#[test]
fn admin_drain_drains_the_router_and_no_shard() {
    let shards = [start_shard(false), start_shard(false)];
    let router = RouterServer::start(RouterConfig {
        shards: shards.iter().map(ServerHandle::local_addr).collect(),
        ..RouterConfig::default()
    })
    .expect("router start");
    let addr = router.local_addr();

    let reply = http_request(addr, "POST", "/admin/drain", None).expect("drain");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.body, r#"{"status":"draining"}"#);
    assert_eq!(reply.header("connection"), Some("close"));
    // Neither shard saw the drain.
    for shard in &shards {
        let health =
            http_request(shard.local_addr(), "GET", "/healthz", None).expect("shard healthz");
        assert!(
            health.body.contains("\"draining\":false"),
            "{}",
            health.body
        );
    }
    // The router closed its listener.
    let deadline = monotonic_us() + 5_000_000;
    while http_request(addr, "GET", "/healthz", None).is_ok() {
        assert!(
            monotonic_us() < deadline,
            "router still serving after a drain"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(router.shutdown(), "router drains cleanly");
    for shard in shards {
        assert!(shard.shutdown().clean);
    }
}
