//! The seeded request mix the smoke tests fire at a real server.
//!
//! The mix generator is seeded (the client's own LCG, no wall-clock
//! entropy), so a given `(seed, n)` always produces the same request
//! sequence, and every framed probe carries the exact status it must be
//! answered with. [`run_mix`] sends the framed probes on one keep-alive
//! [`Conn`] per client thread and the broken-framing probes on one-shot
//! connections.

use dg_serve::client::{Conn, Lcg};
use std::net::SocketAddr;
use std::time::Duration;

/// The socket timeout of every mix connection.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// One request of the generated mix.
#[derive(Debug, Clone)]
enum MixItem {
    /// `(method, path, body, expected status)` of a well-formed request:
    /// 200 for valid traffic, the exact rejection for an error probe.
    Framed(&'static str, &'static str, String, u16),
    /// Raw bytes with intentionally broken framing; the expected status.
    Raw(Vec<u8>, u16),
}

/// Renders a keep-alive request with `Host` and `Content-Length`.
fn render_request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: dg-serve\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn droop_probe(rng: &mut Lcg) -> MixItem {
    // Four droop variants → heavy repetition across the burst.
    let to = 40 + 10 * rng.below(4);
    MixItem::Framed(
        "POST",
        "/v1/droop",
        format!("{{\"variant\":\"gated\",\"from_a\":10,\"to_a\":{to}}}"),
        200,
    )
}

fn sweep_probe(rng: &mut Lcg) -> MixItem {
    let variant = if rng.below(2) == 0 {
        "gated"
    } else {
        "bypassed"
    };
    MixItem::Framed(
        "POST",
        "/v1/sweep",
        format!("{{\"variant\":\"{variant}\",\"points\":128,\"decimate\":16}}"),
        200,
    )
}

fn product_spec_probe() -> MixItem {
    MixItem::Framed(
        "POST",
        "/v1/product",
        "{\"design\":\"desktop\",\"tdp_w\":91,\
         \"workload\":{\"kind\":\"spec\",\"benchmark\":\"444.namd\",\"mode\":\"base\"}}"
            .to_owned(),
        200,
    )
}

fn product_energy_probe() -> MixItem {
    MixItem::Framed(
        "POST",
        "/v1/product",
        "{\"design\":\"mobile\",\"tdp_w\":45,\
         \"workload\":{\"kind\":\"energy\",\"name\":\"energy-star\"}}"
            .to_owned(),
        200,
    )
}

fn valid_batch_probe(rng: &mut Lcg) -> MixItem {
    // A small valid batch (2–4 lanes from a fixed menu): few distinct
    // shapes → the response cache and the batch kernel both see repetition.
    let lanes = 2 + rng.below(3);
    let steps: Vec<String> = (0..lanes)
        .map(|k| format!("{{\"from_a\":10,\"to_a\":{}}}", 40 + 10 * k))
        .collect();
    MixItem::Framed(
        "POST",
        "/v1/droop_batch",
        format!("{{\"variant\":\"gated\",\"steps\":[{}]}}", steps.join(",")),
        200,
    )
}

fn explore_probe(rng: &mut Lcg) -> MixItem {
    // A small 2x2 design-space sweep (8 points with two fuse modes):
    // streams chunked NDJSON, which the reply readers de-chunk. Two seeds
    // keep the response cache honest without splitting it per request.
    let seed = rng.below(2);
    MixItem::Framed(
        "POST",
        "/v1/explore",
        format!(
            "{{\"seed\":{seed},\"tech_nodes\":[45,22],\"tdp_w\":[45,91],\"big_perf\":[20],\
             \"small_perf\":[2],\"fraction_parallelism\":[0.9]}}"
        ),
        200,
    )
}

fn malformed_explore_probe() -> MixItem {
    // Well-framed HTTP around an unparseable spec document: the route
    // must 400 before any grid work.
    MixItem::Framed("POST", "/v1/explore", "{not a spec".to_owned(), 400)
}

fn oversized_explore_probe() -> MixItem {
    // A 32-value parallelism axis over the default Charm axes crosses to
    // 6*4*4*4*32*2 = 24576 points, past the serve tier's 20k cap: 413
    // before any evaluation.
    let fractions: Vec<String> = (0..32)
        .map(|i| format!("{:.6}", f64::from(i) / 32.0))
        .collect();
    MixItem::Framed(
        "POST",
        "/v1/explore",
        format!("{{\"fraction_parallelism\":[{}]}}", fractions.join(",")),
        413,
    )
}

fn garbage_probe() -> MixItem {
    MixItem::Raw(b"THIS IS NOT HTTP\r\n\r\n".to_vec(), 400)
}

fn oversized_probe() -> MixItem {
    // Declares a body far beyond the server's cap: rejected with 413
    // before any body byte is transferred.
    MixItem::Raw(
        b"POST /v1/droop HTTP/1.1\r\nHost: x\r\nContent-Length: 10000000\r\n\r\n".to_vec(),
        413,
    )
}

fn empty_batch_probe() -> MixItem {
    // An empty batch is a client error, never a computation.
    MixItem::Framed("POST", "/v1/droop_batch", "{\"steps\":[]}".to_owned(), 400)
}

fn oversized_batch_probe() -> MixItem {
    // One lane beyond the admission limit: rejected with 400 before any
    // lane is integrated.
    let steps = vec!["{\"from_a\":10,\"to_a\":40}"; 257];
    MixItem::Framed(
        "POST",
        "/v1/droop_batch",
        format!("{{\"steps\":[{}]}}", steps.join(",")),
        400,
    )
}

fn droop_sweep_probe(rng: &mut Lcg) -> MixItem {
    // A small delta grid (2 or 3 lanes from two fixed shapes): streams
    // chunked NDJSON waves like explore, with enough repetition that the
    // response cache sees the route. Kept tiny on purpose — each lane is
    // a full transient capture, and the smoke servers are deliberately
    // starved (2 workers, a queue of 6), so a fat grid would turn the
    // whole burst into a shed storm.
    let points = 2 + rng.below(2);
    MixItem::Framed(
        "POST",
        "/v1/droop_sweep",
        format!(
            "{{\"variant\":\"gated\",\"quiescent_a\":10,\
             \"delta\":{{\"start_a\":20,\"stop_a\":40,\"points\":{points}}}}}"
        ),
        200,
    )
}

fn oversized_sweep_probe() -> MixItem {
    // One grid point past the population cap: rejected with 400 before
    // any lane is expanded or integrated.
    MixItem::Framed(
        "POST",
        "/v1/droop_sweep",
        "{\"delta\":{\"start_a\":1,\"stop_a\":50,\"points\":8193}}".to_owned(),
        400,
    )
}

/// The deterministic next request of the seeded mix.
///
/// The mix leans on repetition on purpose: repeated identical droops and
/// sweeps exercise the substrate caches and the response cache; the
/// malformed and oversized entries exercise the parser's rejection paths;
/// the batch probes (valid, empty, oversized) exercise the lockstep
/// transient kernel and its admission limits.
fn mix_item_of(rng: &mut Lcg) -> MixItem {
    match rng.below(24) {
        0 | 1 => MixItem::Framed("GET", "/healthz", String::new(), 200),
        2 => MixItem::Framed("GET", "/v1/claims", String::new(), 200),
        3..=6 => droop_probe(rng),
        7..=9 => sweep_probe(rng),
        10 | 11 => product_spec_probe(),
        12 => product_energy_probe(),
        13 => MixItem::Framed("GET", "/metrics", String::new(), 200),
        14 => garbage_probe(),
        15 => oversized_probe(),
        16 => valid_batch_probe(rng),
        17 => empty_batch_probe(),
        18 => oversized_batch_probe(),
        19 => explore_probe(rng),
        20 => malformed_explore_probe(),
        21 => oversized_explore_probe(),
        22 => droop_sweep_probe(rng),
        _ => oversized_sweep_probe(),
    }
}

/// Aggregated outcome counts of a mix run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests attempted.
    pub requests: usize,
    /// 2xx responses.
    pub ok_2xx: usize,
    /// 4xx responses (the mix's malformed probes land here by design).
    pub err_4xx: usize,
    /// 503 sheds (admission control working as specified).
    pub shed_503: usize,
    /// 5xx responses other than 503 — the smoke tests require **zero**.
    pub other_5xx: usize,
    /// Requests that failed at the transport layer.
    pub transport_errors: usize,
    /// Probes answered with a status other than the one baked into the
    /// mix (e.g. a valid request answered 400, or a malformed frame that
    /// was *not*). A 503 shed never counts here.
    pub expectation_failures: usize,
}

impl LoadReport {
    fn absorb(&mut self, status: u16, expected: u16) {
        self.requests += 1;
        match status {
            200..=299 => self.ok_2xx += 1,
            503 => self.shed_503 += 1,
            400..=499 => self.err_4xx += 1,
            _ => self.other_5xx += 1,
        }
        // A shed (503) is an admission-level outcome and can pre-empt any
        // probe, so it never counts against a probe's expected status.
        if status != expected && status != 503 {
            self.expectation_failures += 1;
        }
    }

    fn merge(&mut self, other: &LoadReport) {
        self.requests += other.requests;
        self.ok_2xx += other.ok_2xx;
        self.err_4xx += other.err_4xx;
        self.shed_503 += other.shed_503;
        self.other_5xx += other.other_5xx;
        self.transport_errors += other.transport_errors;
        self.expectation_failures += other.expectation_failures;
    }
}

/// Runs `n` requests of the seeded mix against `addr` from `concurrency`
/// client threads (clamped to `1..=256`), and counts the outcomes.
///
/// Each thread derives its own sub-seed from `seed`, so the union of
/// requests is deterministic for a given `(n, seed, concurrency)`. Each
/// thread sends its framed probes on its own keep-alive [`Conn`]. The
/// raw probes go out on one-shot connections, because broken framing on
/// a shared connection would poison the requests behind it.
pub fn run_mix(addr: SocketAddr, n: usize, seed: u64, concurrency: usize) -> LoadReport {
    let concurrency = concurrency.clamp(1, 256);
    let threads: Vec<_> = (0..concurrency)
        .map(|t| {
            let quota = n / concurrency + usize::from(t < n % concurrency);
            let sub_seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(t as u64 + 1));
            std::thread::spawn(move || {
                let mut rng = Lcg::new(sub_seed);
                let mut conn = Conn::new(addr, CLIENT_TIMEOUT);
                let mut report = LoadReport::default();
                for _ in 0..quota {
                    let (reply, expected) = match mix_item_of(&mut rng) {
                        MixItem::Framed(method, path, body, expected) => {
                            let raw = render_request(method, path, &body);
                            (conn.exchange(raw.as_bytes()), expected)
                        }
                        MixItem::Raw(bytes, expected) => {
                            (Conn::new(addr, CLIENT_TIMEOUT).exchange(&bytes), expected)
                        }
                    };
                    match reply {
                        Ok(reply) => report.absorb(reply.status, expected),
                        Err(_) => {
                            report.requests += 1;
                            report.transport_errors += 1;
                        }
                    }
                }
                report
            })
        })
        .collect();
    let mut total = LoadReport::default();
    for t in threads {
        match t.join() {
            Ok(report) => total.merge(&report),
            Err(_) => total.transport_errors += 1,
        }
    }
    total
}

#[test]
fn mix_is_deterministic_for_a_seed() {
    let seq = |seed| {
        let mut rng = Lcg::new(seed);
        (0..50)
            .map(|_| format!("{:?}", mix_item_of(&mut rng)))
            .collect::<Vec<_>>()
    };
    assert_eq!(seq(7), seq(7));
    assert_ne!(seq(7), seq(8));
}

#[test]
fn mix_covers_every_probe_kind() {
    let mut rng = Lcg::new(3);
    let items: Vec<MixItem> = (0..200).map(|_| mix_item_of(&mut rng)).collect();
    let raws = items
        .iter()
        .filter(|i| matches!(i, MixItem::Raw(..)))
        .count();
    let framed = items.len() - raws;
    assert!(raws > 5, "mix must include malformed/oversized probes");
    assert!(framed > 100);
    for path in [
        "/healthz",
        "/v1/droop",
        "/v1/droop_batch",
        "/v1/sweep",
        "/v1/product",
        "/v1/claims",
        "/v1/explore",
        "/v1/droop_sweep",
    ] {
        assert!(
            items
                .iter()
                .any(|i| matches!(i, MixItem::Framed(_, p, _, _) if **p == *path)),
            "mix never hit {path}"
        );
    }
    let probes_of = |route: &str| -> Vec<(&String, u16)> {
        items
            .iter()
            .filter_map(|i| match i {
                MixItem::Framed(_, path, body, expect) if *path == route => Some((body, *expect)),
                _ => None,
            })
            .collect()
    };
    // The batch probes cover the whole admission surface: a valid
    // batch, an empty one (400), and an oversized one (400).
    let batch_probes = probes_of("/v1/droop_batch");
    assert!(
        batch_probes.iter().any(|(_, e)| *e == 200),
        "no valid batch probe"
    );
    assert!(
        batch_probes
            .iter()
            .any(|(b, e)| *e == 400 && b.contains("\"steps\":[]")),
        "no empty-batch probe"
    );
    assert!(
        batch_probes
            .iter()
            .any(|(b, e)| *e == 400 && b.len() > 1000),
        "no oversized-batch probe"
    );
    // The explore probes cover its whole admission surface too:
    // a valid streamed sweep, a malformed spec (400), and a grid
    // past the point cap (413).
    let explore_probes = probes_of("/v1/explore");
    assert!(
        explore_probes.iter().any(|(_, e)| *e == 200),
        "no valid explore probe"
    );
    assert!(
        explore_probes.iter().any(|(_, e)| *e == 400),
        "no malformed explore probe"
    );
    assert!(
        explore_probes.iter().any(|(_, e)| *e == 413),
        "no oversized explore probe"
    );
    // And the droop-sweep probes: a valid streamed grid plus a grid
    // one point past the population cap (400).
    let sweep_probes = probes_of("/v1/droop_sweep");
    assert!(
        sweep_probes.iter().any(|(_, e)| *e == 200),
        "no valid droop-sweep probe"
    );
    assert!(
        sweep_probes
            .iter()
            .any(|(b, e)| *e == 400 && b.contains("8193")),
        "no oversized droop-sweep probe"
    );
}

#[test]
fn valid_mix_is_error_free() {
    // Every well-formed probe in the mix expects 200: the library
    // router answers each distinct framed probe with exactly the
    // status the probe carries, so only the deliberate error probes
    // expect a rejection.
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    let router = dg_serve::routes::Router::new(
        Arc::new(dg_serve::metrics::Metrics::default()),
        Arc::new(AtomicBool::new(false)),
        false,
    );
    let mut rng = Lcg::new(5);
    let mut seen = std::collections::HashSet::new();
    let mut well_formed = 0;
    for _ in 0..300 {
        let MixItem::Framed(method, path, body, expected) = mix_item_of(&mut rng) else {
            continue;
        };
        if !seen.insert((method, path, body.clone())) {
            continue;
        }
        let request = dg_serve::http::Request {
            method: method.to_owned(),
            target: path.to_owned(),
            headers: Vec::new(),
            body: body.clone().into_bytes(),
        };
        let (_, response) = router.handle(&request);
        assert_eq!(response.status, expected, "{method} {path} {body}");
        well_formed += usize::from(response.status == 200);
    }
    assert!(well_formed > 10, "{well_formed} well-formed probes");
}

#[test]
fn mix_content_keys_are_pinned() {
    // The content key of every framed probe, valid shapes and error
    // probes alike, folded into one digest: any change to how a
    // request is keyed moves it, which would strand every response
    // cache entry, `resp/` record and router affinity arc.
    let mut digest = darkgates::pdn::cache::ContentKey::new();
    let mut framed = 0;
    for seed in 1..=3 {
        let mut rng = Lcg::new(seed);
        for _ in 0..300 {
            if let MixItem::Framed(method, path, body, _) = mix_item_of(&mut rng) {
                let key = dg_serve::routes::content_key_of(method, path, body.as_bytes());
                digest = digest.word(key);
                framed += 1;
            }
        }
    }
    assert_eq!(framed, 823);
    assert_eq!(digest.finish(), 0x63af_6157_e536_5054);
}

#[test]
fn report_classifies_statuses() {
    let mut r = LoadReport::default();
    r.absorb(200, 200);
    r.absorb(400, 400);
    r.absorb(413, 400); // expectation miss
    r.absorb(400, 200); // a valid probe answered 400: a miss too
    r.absorb(503, 200); // a shed pre-empts any probe
    r.absorb(500, 200);
    assert_eq!((r.ok_2xx, r.err_4xx, r.shed_503, r.other_5xx), (1, 3, 1, 1));
    assert_eq!(r.expectation_failures, 3);
}
