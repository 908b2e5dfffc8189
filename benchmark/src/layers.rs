//! Per-layer probes of the traced run.
//!
//! Each probe times calls into one layer's public functions from outside,
//! or replays a workload's requests against one process of a probe fleet,
//! and records a span around what it timed. Which end-to-end metric each
//! layer metric should move is listed in the README.

use crate::clock;
use crate::drive::{self, Outcome};
use crate::fleet::Fleet;
use crate::oracle::{self, local_router, request_of, HotOracle, SweepParams};
use crate::runner::{self, hot_jobs, sweep_jobs};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{self, Req, Rng, Workload, CONNECTIONS, MIXED_OPEN_LOOP_RPS};
use darkgates::pdn::didt;
use darkgates::pdn::skylake::SkylakePdn;
use darkgates::pdn::transient::TransientSim;
use darkgates::pdn::units::Volts;
use dg_explore::ExploreSpec;
use dg_serve::http::{write_response, ParserLimits, RequestParser};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Lanes per batched kernel call, as `didt` groups a sweep.
const GROUP_LANES: usize = 32;
/// Lane groups per progress wave, as `didt` streams a sweep.
const WAVE_GROUPS: usize = 8;
/// Timing rounds of the in-process serve probes (each round calls every
/// menu entry once; the median round is reported).
const MICRO_ROUNDS: usize = 300;

/// Per-layer metric values plus the requests the probes sent.
#[derive(Debug, Default)]
pub struct LayerValues {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Requests the probes attempted.
    pub attempted: usize,
    /// Of those, failed (including oracle mismatches).
    pub failed: usize,
}

impl LayerValues {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    fn book(&mut self, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed();
    }
}

fn ms(from: Instant) -> f64 {
    clock::ns_between(from, clock::now()) as f64 / 1e6
}

/// Runs every layer probe: the library and serve-stage probes in this
/// process, then the shard/router probes against a fresh probe fleet.
///
/// # Errors
///
/// A probe fleet that cannot be spawned or never becomes healthy.
pub fn probe(
    bin_dir: &Path,
    dir: &Path,
    seed: u64,
    seconds: f64,
    hot: &HotOracle,
    tracer: &Tracer,
) -> Result<LayerValues, String> {
    let mut out = LayerValues::default();
    let mut rng = Rng::new(seed ^ 0x001A_7E2B_0BE5);
    let root = tracer.open("layers", None);
    let parent = Some(root.id());
    pdn(&mut rng, tracer, parent, &mut out);
    explore(&mut rng, tracer, parent, &mut out);
    serve_stages(&mut rng, tracer, parent, &mut out);
    let fleet = tracer.time("serve.fleet", parent, |fleet_span| {
        fleet_probes(
            bin_dir, dir, &mut rng, seconds, hot, tracer, fleet_span, &mut out,
        )
    });
    tracer.close(root);
    fleet?;
    Ok(out)
}

/// The RK4 kernel, `didt`'s streaming sweep and the engine scheduler,
/// on sweep-stream grids (fresh grids for each probe, so every DC
/// steady state is a cache miss as it is in a shard).
fn pdn(rng: &mut Rng, tracer: &Tracer, parent: Option<u64>, out: &mut LayerValues) {
    let sim = TransientSim::droop_capture(Volts::new(1.0));
    let grids = |rng: &mut Rng, n: usize| -> Vec<SweepParams> {
        workload::sweep_requests(rng, n)
            .iter()
            .filter_map(|r| SweepParams::of(r).ok())
            .collect()
    };

    // One thread, one 32-lane group at a time.
    let (mut lanes, mut secs) = (0usize, 0.0);
    for g in grids(rng, 2) {
        let pdn = SkylakePdn::build(g.variant);
        for group in g.steps().chunks(GROUP_LANES) {
            let t = clock::now();
            tracer.time("pdn.run_batch", parent, |_| {
                black_box(sim.run_batch(&pdn.ladder, group))
            });
            secs += ms(t) / 1e3;
            lanes += group.len();
        }
    }
    out.set("pdn.run_batch.lanes_per_s", lanes as f64 / secs.max(1e-9));

    let (mut lanes, mut secs, mut first) = (0usize, 0.0, Vec::new());
    for g in grids(rng, 3) {
        let pdn = SkylakePdn::build(g.variant);
        let deltas: Vec<_> = g.steps().iter().map(|s| s.to - s.from).collect();
        let t = clock::now();
        let mut first_at = None;
        tracer.time("pdn.didt.droop_sweep_with_progress", parent, |_| {
            black_box(didt::droop_sweep_with_progress(
                &pdn.ladder,
                &sim,
                g.quiescent,
                &deltas,
                g.slew,
                |_, _| {
                    first_at.get_or_insert_with(clock::now);
                },
            ))
        });
        secs += ms(t) / 1e3;
        first.push(first_at.map_or(0.0, |f| clock::ns_between(t, f) as f64 / 1e6));
        lanes += deltas.len();
    }
    out.set("pdn.didt.lanes_per_s", lanes as f64 / secs.max(1e-9));
    out.set("pdn.didt.first_wave_ms", stats::median(&first));

    // The scheduler's busy share: summed closure time over the time the
    // pool's threads were available.
    let busy_ns = AtomicU64::new(0);
    let mut wall_ns = 0u64;
    for g in grids(rng, 2) {
        let pdn = SkylakePdn::build(g.variant);
        let steps = g.steps();
        let groups: Vec<_> = steps.chunks(GROUP_LANES).collect();
        let t = clock::now();
        tracer.time("engine.par_map_progress", parent, |_| {
            dg_engine::par_map_progress(
                &groups,
                WAVE_GROUPS,
                |_, group| {
                    let s = clock::now();
                    let r = black_box(sim.run_batch(&pdn.ladder, group)).len();
                    busy_ns.fetch_add(clock::ns_between(s, clock::now()), Ordering::Relaxed);
                    r
                },
                |_, _| {},
            )
        });
        wall_ns += clock::ns_between(t, clock::now());
    }
    let threads = dg_engine::num_threads() as f64;
    out.set(
        "engine.par_map.busy_frac",
        busy_ns.load(Ordering::Relaxed) as f64 / (wall_ns as f64 * threads).max(1.0),
    );
}

/// `dg_explore::run_with_progress` and the result rendering, on
/// explore-stream specs.
fn explore(rng: &mut Rng, tracer: &Tracer, parent: Option<u64>, out: &mut LayerValues) {
    let (mut points, mut secs, mut first, mut render) = (0u64, 0.0, Vec::new(), Vec::new());
    for req in workload::explore_requests(rng, 24) {
        let Ok(spec) = ExploreSpec::from_text(&req.body) else {
            out.failed += 1;
            continue;
        };
        let t = clock::now();
        let mut first_at = None;
        let result = tracer.time("explore.run_with_progress", parent, |_| {
            dg_explore::run_with_progress(&spec, |_| {
                first_at.get_or_insert_with(clock::now);
            })
        });
        secs += ms(t) / 1e3;
        first.push(first_at.map_or(0.0, |f| clock::ns_between(t, f) as f64 / 1e6));
        points += spec.point_count();
        match result {
            Ok(result) => {
                let t = clock::now();
                tracer.time("explore.render", parent, |_| {
                    black_box(result.to_json().render())
                });
                render.push(ms(t));
            }
            Err(_) => out.failed += 1,
        }
    }
    out.set("explore.run.points_per_s", points as f64 / secs.max(1e-9));
    out.set("explore.run.first_progress_ms", stats::median(&first));
    out.set("explore.render_ms", stats::median(&render));
}

/// Median µs per call of `f` over `items`, timed a whole round at a time.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let rounds: Vec<f64> = (0..MICRO_ROUNDS)
        .map(|_| {
            let t = clock::now();
            items.iter().for_each(&mut f);
            clock::ns_between(t, clock::now()) as f64 / 1e3 / items.len().max(1) as f64
        })
        .collect();
    stats::median(&rounds)
}

/// The shard's request stages, in process, on the hot-mix bytes; then
/// cold handling of fresh sweep and explore requests.
fn serve_stages(rng: &mut Rng, tracer: &Tracer, parent: Option<u64>, out: &mut LayerValues) {
    let menu = workload::hot_menu();
    let router = local_router();
    let requests: Vec<_> = menu.iter().map(request_of).collect();
    let responses: Vec<_> = requests.iter().map(|r| router.handle(r).1).collect();
    let plain: Vec<_> = menu
        .iter()
        .zip(&requests)
        .filter(|(m, _)| !m.streaming)
        .map(|(_, r)| r.clone())
        .collect();
    let streaming: Vec<_> = menu
        .iter()
        .zip(&requests)
        .filter(|(m, _)| m.streaming)
        .map(|(_, r)| r.clone())
        .collect();

    let parse = tracer.time("serve.http.parse", parent, |_| {
        per_call_us(&menu, |m: &Req| {
            black_box(
                RequestParser::new(ParserLimits::default())
                    .feed(&m.wire)
                    .ok(),
            );
        })
    });
    let cached = tracer.time("serve.routes.cached_response", parent, |_| {
        per_call_us(&plain, |r| {
            black_box(router.cached_response(r));
        })
    });
    let handle = tracer.time("serve.routes.handle.warm", parent, |_| {
        per_call_us(&streaming, |r| {
            black_box(router.handle(r));
        })
    });
    let write = tracer.time("serve.http.write_response", parent, |_| {
        per_call_us(&responses, |r| {
            black_box(write_response(
                r.status,
                r.reason,
                r.content_type,
                &[],
                r.body.as_bytes(),
                false,
            ));
        })
    });
    out.set("serve.http.parse_us", parse);
    out.set("serve.routes.cached_us", cached);
    out.set("serve.routes.handle_us", handle);
    out.set("serve.http.write_us", write);

    for (name, reqs) in [
        ("sweep", workload::sweep_requests(rng, 3)),
        ("explore", workload::explore_requests(rng, 24)),
    ] {
        let times: Vec<f64> = reqs
            .iter()
            .map(|req| {
                let t = clock::now();
                let status = tracer.time("serve.routes.handle.miss", parent, |_| {
                    router.handle(&request_of(req)).1.status
                });
                if status != 200 {
                    out.failed += 1;
                }
                ms(t)
            })
            .collect();
        out.set(
            &format!("serve.routes.miss_ms.{name}"),
            stats::median(&times),
        );
    }
}

/// Percentile `pct` of a replay's latencies (or first lines), µs.
fn percentile_us(outcome: &Outcome, pct: f64, first_line: bool) -> f64 {
    let v: Vec<f64> = outcome
        .samples
        .iter()
        .map(|s| if first_line { s.first_line_ns } else { s.latency_ns } as f64 / 1e3)
        .collect();
    stats::percentile(&stats::sorted(v), pct)
}

/// Replays against one shard directly and through the router, the
/// open-loop generator's lateness, and the tracing overhead.
#[allow(clippy::too_many_arguments)]
fn fleet_probes(
    bin_dir: &Path,
    dir: &Path,
    rng: &mut Rng,
    seconds: f64,
    hot: &HotOracle,
    tracer: &Tracer,
    parent: Option<u64>,
    out: &mut LayerValues,
) -> Result<(), String> {
    let fleet = Fleet::spawn(bin_dir, dir).map_err(|e| format!("spawn probe fleet: {e}"))?;
    fleet
        .wait_healthy()
        .map_err(|e| format!("probe fleet never became healthy: {e}"))?;
    let router = fleet.router_addr();
    let shard = fleet.shard_addr(0).ok_or("probe fleet has no shard")?;
    let menu = workload::hot_menu();
    for addr in [router, shard] {
        let (attempted, failed) = runner::warm_up(addr, &menu);
        out.attempted += attempted;
        out.failed += failed;
    }
    let n = (Workload::HotMix.plan(seconds).requests / 8).max(100);
    let check = |out: &mut LayerValues, o: &Outcome| {
        out.book(o);
        out.failed += hot.check(&menu, &o.class_bodies).len();
    };
    let replay = |addr: SocketAddr, rng: &mut Rng, out: &mut LayerValues, name: &str| {
        let seq = workload::hot_sequence(rng, menu.len(), n);
        let o = tracer.time(name, parent, |span| {
            drive::closed_loop(addr, &hot_jobs(&menu, &seq), CONNECTIONS, tracer, span)
        });
        check(out, &o);
        o
    };
    let direct = replay(shard, rng, out, "serve.shard.hot_replay");
    let routed = replay(router, rng, out, "serve.router.hot_replay");
    out.set("serve.shard.p50_us", percentile_us(&direct, 50.0, false));
    out.set("serve.shard.p99_us", percentile_us(&direct, 99.0, false));
    out.set(
        "serve.router.hop_p50_us",
        percentile_us(&routed, 50.0, false) - percentile_us(&direct, 50.0, false),
    );
    out.set(
        "serve.router.hop_p99_us",
        percentile_us(&routed, 99.0, false) - percentile_us(&direct, 99.0, false),
    );
    let stages: f64 = [
        "serve.http.parse_us",
        "serve.routes.cached_us",
        "serve.http.write_us",
    ]
    .iter()
    .filter_map(|k| out.metrics.get(*k))
    .sum();
    out.set(
        "serve.residual_p50_us",
        percentile_us(&direct, 50.0, false) - stages,
    );

    let block = workload::SWEEP_BLOCK;
    let sweep_first = |addr: SocketAddr, rng: &mut Rng, out: &mut LayerValues, name: &str| {
        let sweeps = workload::sweep_requests(rng, block);
        let o = tracer.time(name, parent, |span| {
            drive::closed_loop(addr, &sweep_jobs(&sweeps), CONNECTIONS, tracer, span)
        });
        out.book(&o);
        for (&i, body) in &o.kept {
            if sweeps
                .get(i)
                .map(|r| oracle::check_sweep(r, body))
                .is_some_and(|c| c.is_err())
            {
                out.failed += 1;
            }
        }
        percentile_us(&o, 50.0, true) / 1e3
    };
    let direct_first = sweep_first(shard, rng, out, "serve.shard.sweep_replay");
    let routed_first = sweep_first(router, rng, out, "serve.router.sweep_replay");
    out.set("serve.shard.first_line_ms", direct_first);
    out.set(
        "serve.router.hop_first_line_ms",
        routed_first - direct_first,
    );

    // The open-loop generator beside sweeps, as on mixed.
    let seq = workload::hot_sequence(rng, menu.len(), 4_096);
    let sweeps = workload::sweep_requests(rng, block);
    let (open, closed) = tracer.time("client.open_loop", parent, |span| {
        drive::mixed(
            router,
            &hot_jobs(&menu, &seq),
            MIXED_OPEN_LOOP_RPS,
            &sweep_jobs(&sweeps),
            tracer,
            span,
        )
    });
    check(out, &open);
    out.book(&closed);
    let late: Vec<f64> = open.lateness_ns.iter().map(|&l| l as f64 / 1e6).collect();
    out.set(
        "client.late_p99_ms",
        stats::percentile(&stats::sorted(late), 99.0),
    );

    // Tracing overhead: the same replay with spans off and on, alternated.
    let off = Tracer::off();
    let (mut rps_off, mut rps_on) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (traced, rps) in [(false, &mut rps_off), (true, &mut rps_on)] {
            let seq = workload::hot_sequence(rng, menu.len(), n);
            let t = if traced { tracer } else { &off };
            let o = drive::closed_loop(router, &hot_jobs(&menu, &seq), CONNECTIONS, t, parent);
            check(out, &o);
            rps.push(o.samples.len() as f64 / o.elapsed.as_secs_f64().max(1e-9));
        }
    }
    out.set(
        "trace.overhead_frac",
        1.0 - stats::median(&rps_on) / stats::median(&rps_off).max(1e-9),
    );

    if !fleet.teardown() {
        out.failed += 1;
    }
    Ok(())
}
