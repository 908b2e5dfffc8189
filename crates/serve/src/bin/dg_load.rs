//! `dg-load`: smoke harness for `dg-serve`.
//!
//! ```text
//! # CI smoke gate: spawn a constrained server, fire a 200-request mixed
//! # burst (including malformed, oversized, and streaming /v1/explore and
//! # /v1/droop_sweep probes), force an overload,
//! # verify only-503 shedding, spot-check results against the library,
//! # and require a clean graceful drain. Exit 0 only if all of it holds.
//! cargo run --release -p dg-serve --bin dg-load -- --smoke --spawn
//!
//! # The same checks against an already-running server:
//! cargo run --release -p dg-serve --bin dg-load -- --smoke --addr 127.0.0.1:8737
//! ```
//!
//! Throughput and latency are measured by the serve-tier benchmark
//! (`bash benchmark/run.sh`), not here.

use dg_serve::client::{http_request, run_mix, spawn_sibling, SpawnedServer};
use dg_serve::json::{self, Json};
use std::net::SocketAddr;

struct Options {
    /// The server to drive; `None` spawns one (`--spawn`).
    addr: Option<SocketAddr>,
    n: usize,
    seed: u64,
    concurrency: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: dg-load --smoke (--spawn|--addr HOST:PORT) [-n N] [--seed S] [--concurrency C]"
    );
    std::process::exit(2);
}

/// Parses the command line. `Err` holds the message to print above the
/// usage line (empty for `--help`).
fn parse_options(args: &[String]) -> Result<Options, String> {
    let (mut smoke, mut spawn) = (false, false);
    let mut opts = Options {
        addr: None,
        n: 200,
        seed: 42,
        concurrency: 8,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--spawn" => spawn = true,
            "--addr" => {
                let raw = iter.next().ok_or("--addr requires HOST:PORT")?;
                let addr = raw
                    .parse()
                    .map_err(|e| format!("bad --addr {raw:?}: {e}"))?;
                opts.addr = Some(addr);
            }
            "-n" => opts.n = positive(arg, iter.next())?,
            "--seed" => {
                opts.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed requires an unsigned integer")?;
            }
            "--concurrency" => opts.concurrency = positive(arg, iter.next())?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !smoke || spawn == opts.addr.is_some() {
        return Err("--smoke needs exactly one of --spawn and --addr".to_owned());
    }
    Ok(opts)
}

/// The value of a flag that takes a positive integer.
fn positive(flag: &str, value: Option<&String>) -> Result<usize, String> {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} requires a positive integer")),
    }
}

/// One named check; prints PASS/FAIL and accumulates the verdict.
struct Gate {
    failures: usize,
}

impl Gate {
    fn check(&mut self, name: &str, ok: bool, detail: &str) {
        println!("[{}] {name}: {detail}", if ok { "PASS" } else { "FAIL" });
        self.failures += usize::from(!ok);
    }
}

/// Fetches `droop_mv` over HTTP and recomputes it with a direct library
/// call: the served number must be the library's number.
fn spot_check_droop(addr: SocketAddr, gate: &mut Gate) {
    let body = r#"{"variant":"bypassed","from_a":5,"to_a":40,"source_v":1.0}"#;
    let served = http_request(addr, "POST", "/v1/droop", Some(body))
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| json::parse(&r.body).ok())
        .and_then(|v| {
            v.get("result")
                .and_then(|r| r.get("droop_mv"))
                .and_then(Json::as_f64)
        });
    use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};
    use darkgates::pdn::transient::{LoadStep, TransientSim};
    use darkgates::pdn::units::{Amps, Seconds, Volts};
    let pdn = SkylakePdn::build(PdnVariant::Bypassed);
    let direct = TransientSim::droop_capture(Volts::new(1.0))
        .run(
            &pdn.ladder,
            LoadStep {
                from: Amps::new(5.0),
                to: Amps::new(40.0),
                at: Seconds::from_us(1.0),
                slew: Seconds::from_ns(0.0),
            },
        )
        .droop()
        .as_mv();
    match served {
        Some(mv) => gate.check(
            "droop spot-check vs direct library call",
            (mv - direct).abs() < 1e-9,
            &format!("served {mv:.6} mV, library {direct:.6} mV"),
        ),
        None => gate.check(
            "droop spot-check vs direct library call",
            false,
            "no result",
        ),
    }
}

/// Fetches a two-lane `/v1/droop_batch` response and recomputes both lanes
/// with a direct `run_batch` call, then probes the malformed-batch edges:
/// an empty `steps` array and an oversized batch must both be rejected
/// with 400.
fn spot_check_droop_batch(addr: SocketAddr, gate: &mut Gate) {
    let body = r#"{"variant":"bypassed","source_v":1.0,"steps":[{"from_a":5,"to_a":40},{"from_a":10,"to_a":60,"slew_ns":5}]}"#;
    let served: Option<Vec<f64>> = http_request(addr, "POST", "/v1/droop_batch", Some(body))
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| json::parse(&r.body).ok())
        .and_then(|v| {
            let lanes = v
                .get("result")
                .and_then(|r| r.get("lanes"))
                .and_then(Json::as_arr)?;
            lanes
                .iter()
                .map(|lane| lane.get("droop_mv").and_then(Json::as_f64))
                .collect()
        });
    use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};
    use darkgates::pdn::transient::{LoadStep, TransientSim};
    use darkgates::pdn::units::{Amps, Seconds, Volts};
    let pdn = SkylakePdn::build(PdnVariant::Bypassed);
    let steps = [
        LoadStep {
            from: Amps::new(5.0),
            to: Amps::new(40.0),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(0.0),
        },
        LoadStep {
            from: Amps::new(10.0),
            to: Amps::new(60.0),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(5.0),
        },
    ];
    let direct: Vec<f64> = TransientSim::droop_capture(Volts::new(1.0))
        .run_batch(&pdn.ladder, &steps)
        .iter()
        .map(|r| r.droop().as_mv())
        .collect();
    let lanes_match = served.as_ref().is_some_and(|mvs| {
        mvs.len() == direct.len()
            && mvs
                .iter()
                .zip(&direct)
                .all(|(mv, lib)| (mv - lib).abs() < 1e-9)
    });
    gate.check(
        "droop_batch spot-check vs direct run_batch",
        lanes_match,
        &format!("served {served:?} mV, library {direct:?} mV"),
    );

    let empty = http_request(addr, "POST", "/v1/droop_batch", Some(r#"{"steps":[]}"#));
    gate.check(
        "droop_batch rejects an empty steps array",
        empty.as_ref().is_ok_and(|r| r.status == 400),
        &format!("status {:?}", empty.map(|r| r.status)),
    );

    let lanes = vec![r#"{"from_a":10,"to_a":40}"#; 257].join(",");
    let oversized_body = format!("{{\"steps\":[{lanes}]}}");
    let oversized = http_request(addr, "POST", "/v1/droop_batch", Some(&oversized_body));
    gate.check(
        "droop_batch rejects an oversized batch",
        oversized.as_ref().is_ok_and(|r| r.status == 400),
        &format!("status {:?}", oversized.map(|r| r.status)),
    );
}

/// Streams a `/v1/droop_sweep` delta grid and recomputes it with a direct
/// library call: both the concatenated progress waves and the result
/// line's lanes must be *bit*-identical to [`didt::droop_sweep`] over the
/// same [`delta_grid`] expansion (the renderer is shortest-roundtrip, so
/// the HTTP round trip preserves every bit). Then probes the population
/// cap: one grid point past it must be rejected with 400.
///
/// [`didt::droop_sweep`]: darkgates::pdn::didt::droop_sweep
/// [`delta_grid`]: dg_serve::routes::delta_grid
fn spot_check_droop_sweep(addr: SocketAddr, gate: &mut Gate) {
    let body = r#"{"variant":"bypassed","source_v":1.0,"quiescent_a":8,"slew_ns":2,"delta":{"start_a":5,"stop_a":45,"points":9}}"#;
    let lines: Vec<Json> = http_request(addr, "POST", "/v1/droop_sweep", Some(body))
        .ok()
        .filter(|r| r.status == 200)
        .map(|r| {
            r.body
                .lines()
                .filter_map(|line| json::parse(line).ok())
                .collect()
        })
        .unwrap_or_default();
    let mv_array = |v: &Json| -> Option<Vec<f64>> {
        v.get("droop_mv")
            .and_then(Json::as_arr)?
            .iter()
            .map(Json::as_f64)
            .collect()
    };
    let streamed: Option<Vec<f64>> = lines
        .split_last()
        .filter(|(_, progress)| !progress.is_empty())
        .map(|(_, progress)| progress)
        .and_then(|progress| {
            let mut lanes = Vec::new();
            for wave in progress {
                lanes.extend(mv_array(wave)?);
            }
            Some(lanes)
        });
    let result: Option<Vec<f64>> = lines
        .last()
        .and_then(|line| line.get("result"))
        .and_then(mv_array);

    use darkgates::pdn::didt;
    use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};
    use darkgates::pdn::transient::TransientSim;
    use darkgates::pdn::units::{Amps, Seconds, Volts};
    use dg_serve::routes::delta_grid;
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
    let bits_equal = |lanes: &Option<Vec<f64>>| {
        lanes.as_ref().is_some_and(|mvs| {
            mvs.len() == direct.len()
                && mvs
                    .iter()
                    .zip(&direct)
                    .all(|(mv, lib)| mv.to_bits() == lib.to_bits())
        })
    };
    gate.check(
        "droop_sweep result lanes bit-identical to library droop_sweep",
        bits_equal(&result),
        &format!("served {result:?} mV, library {direct:?} mV"),
    );
    gate.check(
        "droop_sweep progress waves concatenate to the result lanes",
        bits_equal(&streamed),
        &format!("{} streamed lane(s)", streamed.map_or(0, |s| s.len())),
    );

    let oversized_body = r#"{"delta":{"start_a":1,"stop_a":50,"points":8193}}"#;
    let oversized = http_request(addr, "POST", "/v1/droop_sweep", Some(oversized_body));
    gate.check(
        "droop_sweep rejects a grid past the population cap",
        oversized.as_ref().is_ok_and(|r| r.status == 400),
        &format!("status {:?}", oversized.map(|r| r.status)),
    );
}

/// Saturates the constrained server with slow debug-sleep requests and
/// verifies overload is answered *only* with 503 + `Retry-After`.
fn forced_overload(addr: SocketAddr, gate: &mut Gate) {
    let threads: Vec<_> = (0..12)
        .map(|_| {
            std::thread::spawn(move || {
                http_request(addr, "POST", "/v1/debug/sleep", Some(r#"{"ms":500}"#)).map(|r| {
                    (
                        r.status,
                        r.header("retry-after").map(str::to_owned),
                        r.header("connection").map(str::to_owned),
                    )
                })
            })
        })
        .collect();
    let mut served = 0usize;
    let mut shed = 0usize;
    let mut shed_with_header = 0usize;
    let mut shed_with_close = 0usize;
    let mut unexpected = Vec::new();
    for t in threads {
        match t.join() {
            Ok(Ok((200, _, _))) => served += 1,
            Ok(Ok((503, retry, connection))) => {
                shed += 1;
                shed_with_header += usize::from(retry.is_some());
                shed_with_close += usize::from(connection.as_deref() == Some("close"));
            }
            Ok(Ok((status, _, _))) => unexpected.push(status),
            Ok(Err(e)) => unexpected.push({
                eprintln!("transport error during overload: {e}");
                0
            }),
            Err(_) => unexpected.push(0),
        }
    }
    gate.check(
        "forced overload sheds with 503 only",
        shed >= 1 && unexpected.is_empty(),
        &format!("{served} served, {shed} shed, unexpected {unexpected:?}"),
    );
    gate.check(
        "shed responses carry Retry-After",
        shed_with_header == shed,
        &format!("{shed_with_header}/{shed}"),
    );
    gate.check(
        "shed responses carry Connection: close",
        shed_with_close == shed,
        &format!("{shed_with_close}/{shed}"),
    );
}

fn smoke(addr: SocketAddr, opts: &Options, spawned: Option<SpawnedServer>) -> i32 {
    let mut gate = Gate { failures: 0 };

    spot_check_droop(addr, &mut gate);
    spot_check_droop_batch(addr, &mut gate);
    spot_check_droop_sweep(addr, &mut gate);

    let report = run_mix(addr, opts.n, opts.seed, opts.concurrency);
    gate.check(
        &format!("{}-request mixed burst: no 5xx other than 503", opts.n),
        report.other_5xx == 0,
        &format!(
            "2xx={} 4xx={} 503={} other5xx={} transport={}",
            report.ok_2xx,
            report.err_4xx,
            report.shed_503,
            report.other_5xx,
            report.transport_errors
        ),
    );
    gate.check(
        "mixed burst: no transport errors",
        report.transport_errors == 0,
        &format!("{}", report.transport_errors),
    );
    gate.check(
        "every probe answered with its expected status",
        report.expectation_failures == 0 && report.err_4xx > 0,
        &format!(
            "expectation_failures={} err_4xx={}",
            report.expectation_failures, report.err_4xx
        ),
    );

    forced_overload(addr, &mut gate);

    let metrics = http_request(addr, "GET", "/metrics", None);
    let metrics_ok = metrics
        .as_ref()
        .is_ok_and(|r| r.status == 200 && r.body.contains("dg_requests_total"));
    let counters_visible = metrics.as_ref().is_ok_and(|r| {
        r.body.contains("dg_shed_total") && r.body.contains("dg_resp_cache_hits_total")
    });
    gate.check(
        "/metrics is populated",
        metrics_ok && counters_visible,
        &format!(
            "{} bytes",
            metrics.as_ref().map(|r| r.body.len()).unwrap_or(0)
        ),
    );

    // Graceful drain: ask the server to drain, then (if we spawned it)
    // require it to exit cleanly with the drain report on stderr.
    let drain = http_request(addr, "POST", "/admin/drain", Some(""));
    gate.check(
        "drain request accepted",
        drain.is_ok_and(|r| r.status == 200),
        "POST /admin/drain",
    );
    if let Some(mut spawned) = spawned {
        let status = spawned.child.wait();
        gate.check(
            "spawned server exited cleanly after drain",
            status.as_ref().is_ok_and(std::process::ExitStatus::success),
            &format!("{status:?}"),
        );
    }

    println!("smoke: {} check(s) failed", gate.failures);
    i32::from(gate.failures > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(opts) => opts,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            usage();
        }
    };

    // Smoke wants a deliberately constrained server (small worker pool +
    // queue so overload is reachable) with the debug sleep route enabled.
    let (addr, spawned) = match opts.addr {
        Some(addr) => (addr, None),
        None => {
            let args = [
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--queue",
                "4",
                "--debug-routes",
            ]
            .map(str::to_owned);
            match spawn_sibling("dg-serve", &args) {
                Ok(s) => (s.addr, Some(s)),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
    };
    std::process::exit(smoke(addr, &opts, spawned));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse_options(&args)
    }

    #[test]
    fn omitted_numbers_take_their_defaults() {
        let opts = parse(&["--smoke", "--spawn"]).expect("valid");
        assert!(opts.addr.is_none(), "--spawn leaves no address");
        assert_eq!((opts.n, opts.seed, opts.concurrency), (200, 42, 8));
        let opts = parse(&[
            "--smoke",
            "--addr",
            "127.0.0.1:9",
            "-n",
            "50",
            "--seed",
            "0",
            "--concurrency",
            "3",
        ])
        .expect("valid");
        assert_eq!(opts.addr, Some("127.0.0.1:9".parse().expect("addr")));
        assert_eq!((opts.n, opts.seed, opts.concurrency), (50, 0, 3));
    }

    #[test]
    fn malformed_numbers_are_usage_errors() {
        for (flag, value) in [
            ("-n", "abc"),
            ("-n", "-5"),
            ("-n", "0"),
            ("--seed", "x"),
            ("--seed", "-1"),
            ("--concurrency", "0"),
            ("--concurrency", "many"),
        ] {
            let err = parse(&["--smoke", "--spawn", flag, value])
                .err()
                .unwrap_or_else(|| panic!("{flag} {value} must be rejected"));
            assert!(err.contains(flag), "{flag} {value}: {err}");
        }
        for flag in ["-n", "--seed", "--concurrency", "--addr"] {
            assert!(
                parse(&["--smoke", "--spawn", flag]).is_err(),
                "{flag} without a value must be rejected"
            );
        }
    }

    #[test]
    fn mode_and_unknown_flags_are_usage_errors() {
        for args in [
            &["--spawn"][..],
            &["--smoke"],
            &["--smoke", "--spawn", "--addr", "127.0.0.1:9"],
            &["--smoke", "--addr", "not-an-addr"],
            &["--smoke", "--spawn", "--bench"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
        assert_eq!(parse(&["--help"]).err().as_deref(), Some(""));
    }
}
