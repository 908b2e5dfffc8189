//! `dg-benchmark`: the serve-tier benchmark binary.
//!
//! ```text
//! bash benchmark/run.sh [--workload NAME|all] [--seed S] [--seconds N]
//!     [--trace 0|1] [--check] [--record]
//! ```
//!
//! Prints one `workload metric value unit` line per metric, then a JSON
//! result object as the last line of stdout. Exits non-zero when any
//! request fails or any oracle disagrees.

use dg_benchmark::clock;
use dg_benchmark::fleet::{Counters, Fleet};
use dg_benchmark::host::HostSpeed;
use dg_benchmark::layers;
use dg_benchmark::ledger;
use dg_benchmark::oracle::HotOracle;
use dg_benchmark::report::{self, Rep, Summary, END_TO_END, PER_LAYER};
use dg_benchmark::runner::{self, Inputs};
use dg_benchmark::trace::{self, Tracer};
use dg_benchmark::workload::{self, Workload, REPS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    record: bool,
}

const USAGE: &str =
    "usage: dg-benchmark [--workload hot-mix|sweep-stream|explore-stream|mixed|all] \
                     [--seed S] [--seconds N] [--trace 0|1] [--check] [--record]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        check: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--check" => args.check = true,
            "--record" => args.record = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Where runtime files go: a `benchmark` directory under the Cargo
/// target directory, inside the checkout.
fn run_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

/// Runs one repetition of `workload` on a fresh fleet.
fn run_rep(
    workload: Workload,
    inputs: &Inputs,
    plan: workload::Plan,
    bin_dir: &Path,
    dir: &Path,
    hot: &HotOracle,
    tracer: &Tracer,
) -> Result<Rep, String> {
    let before = HostSpeed::measure().map_err(|e| format!("host probe: {e}"))?;
    let rep_span = tracer.open(&format!("rep.{}", workload.name()), None);
    let start = clock::now();
    let fleet = Fleet::spawn(bin_dir, dir).map_err(|e| format!("spawn fleet: {e}"))?;
    let router = fleet.router_addr();
    fleet
        .wait_healthy()
        .map_err(|e| format!("router never became healthy: {e}"))?;
    let warm_up = runner::warm_up(router, &inputs.menu);
    let setup_s = start.elapsed().as_secs_f64();

    let (router_before, shards_before) = fleet.stats();
    let drove = runner::drive(router, workload, inputs, plan, tracer, Some(rep_span.id()));
    let (router_after, shards_after) = fleet.stats();
    let mut errors = Vec::new();
    let counters = Counters::scrape(router).unwrap_or_else(|e| {
        errors.push(format!("metrics scrape failed: {e}"));
        Counters::default()
    });
    let disk_mb = fleet.disk_mb();
    if !fleet.teardown() {
        errors.push("a shard did not drain cleanly".into());
    }
    tracer.close(rep_span);
    let after = HostSpeed::measure().map_err(|e| format!("host probe: {e}"))?;
    errors.extend(tracer.time("oracle", None, |_| {
        runner::verify(workload, inputs, &drove, hot)
    }));
    Ok(Rep {
        setup_s,
        drove,
        rss_mb: router_after.hwm_mb + shards_after.hwm_mb,
        disk_mb,
        router_cpu_ms: router_after.cpu_ms - router_before.cpu_ms,
        shard_cpu_ms: shards_after.cpu_ms - shards_before.cpu_ms,
        counters,
        warm_up,
        errors,
        slowness: (before.slowness() * after.slowness()).sqrt(),
    })
}

fn fmt(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

fn print_summary(s: &Summary) {
    let name = s.workload.name();
    for m in END_TO_END {
        if let Some(v) = s.values.get(m.name) {
            println!("{name} {} {} {}", m.name, fmt(v.value), m.unit);
        }
    }
    for m in END_TO_END {
        if let Some(v) = s.values.get(m.name) {
            eprintln!(
                "{name} {} per-rep range [{}, {}]",
                m.name,
                fmt(v.min),
                fmt(v.max)
            );
        }
    }
    eprintln!(
        "{name}: tail_ms is p{} of {} samples (p99 {} ms); first_line_ms over {} streaming requests",
        s.tail_percentile,
        s.latency_samples,
        fmt(s.p99_ms),
        s.first_line_samples
    );
    for (k, v) in &s.counters {
        eprintln!("{name} {k} {}", fmt(*v));
    }
    for e in &s.errors {
        eprintln!("{name}: ORACLE/FLEET ERROR: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bin_dir = match std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
    {
        Some(dir) if dir.join("dg-serve").is_file() && dir.join("dg-router").is_file() => dir,
        _ => {
            eprintln!("error: dg-serve and dg-router must sit next to dg-benchmark (build with benchmark/run.sh)");
            return ExitCode::from(1);
        }
    };
    let runtime = run_dir();
    if let Err(e) = std::fs::create_dir_all(&runtime) {
        eprintln!("error: cannot create {}: {e}", runtime.display());
        return ExitCode::from(1);
    }
    let result = if args.trace {
        run_traced(&args, &bin_dir, &runtime)
    } else {
        run_untraced(&args, &bin_dir, &runtime)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// The end-to-end run: every workload `REPS` times, reps interleaved
/// across workloads, each on a fresh fleet.
fn run_untraced(args: &Args, bin_dir: &Path, runtime: &Path) -> Result<bool, String> {
    let menu = workload::hot_menu();
    let hot = HotOracle::new(&menu);
    let tracer = Tracer::off();
    let mut reps: Vec<Vec<Rep>> = args.workloads.iter().map(|_| Vec::new()).collect();
    for rep in 0..REPS {
        for (w, &workload) in args.workloads.iter().enumerate() {
            let plan = workload.plan(args.seconds);
            let inputs = Inputs::generate(workload, args.seed, rep, plan);
            let dir = runtime.join(format!("fleet-{}", std::process::id()));
            reps[w].push(run_rep(
                workload, &inputs, plan, bin_dir, &dir, &hot, &tracer,
            )?);
        }
    }
    let summaries: Vec<Summary> = args
        .workloads
        .iter()
        .zip(&reps)
        .map(|(&w, r)| report::summarize(w, r))
        .collect();
    for s in &summaries {
        print_summary(s);
    }
    let attempted = summaries.iter().map(|s| s.attempted).sum();
    let failed: usize = summaries.iter().map(|s| s.failed).sum();
    let mut ok = failed == 0;
    if args.record {
        ledger::record(&summaries, args.seed, args.seconds)?;
    }
    if args.check {
        ok &= ledger::check(&summaries)?;
    }
    let single = summaries.len() == 1;
    let metrics: Vec<(String, f64, &str)> = summaries
        .iter()
        .flat_map(|s| {
            END_TO_END.iter().filter(|m| m.gated).filter_map(move |m| {
                let v = s.values.get(m.name)?;
                let name = if single {
                    m.name.to_owned()
                } else {
                    format!("{}.{}", s.workload.name(), m.name)
                };
                Some((name, v.value, m.unit))
            })
        })
        .collect();
    println!(
        "{}",
        report::result_json(failed == 0, attempted, failed, &metrics)
    );
    Ok(ok)
}

/// The traced run: each workload once at a quarter of its request count
/// with spans around every request, then the per-layer probes.
fn run_traced(args: &Args, bin_dir: &Path, runtime: &Path) -> Result<bool, String> {
    let menu = workload::hot_menu();
    let hot = HotOracle::new(&menu);
    let tracer = Tracer::on();
    let mut attempted = 0;
    let mut failed = 0;
    let mut summaries = Vec::new();
    for &workload in &args.workloads {
        let mut plan = workload.plan(args.seconds);
        plan.requests = (plan.requests * REPS / 4).max(2);
        let inputs = Inputs::generate(workload, args.seed, 0, plan);
        let dir = runtime.join(format!("fleet-{}", std::process::id()));
        let rep = run_rep(workload, &inputs, plan, bin_dir, &dir, &hot, &tracer)?;
        let s = report::summarize(workload, std::slice::from_ref(&rep));
        attempted += s.attempted;
        failed += s.failed;
        for e in &s.errors {
            eprintln!("{}: ORACLE/FLEET ERROR: {e}", workload.name());
        }
        summaries.push(s);
    }
    let probe_dir = runtime.join(format!("probe-{}", std::process::id()));
    let mut values = layers::probe(bin_dir, &probe_dir, args.seed, args.seconds, &hot, &tracer)?;
    attempted += values.attempted;
    failed += values.failed;
    // Process and counter metrics come from the traced workload runs;
    // the open-loop lateness comes from the probe, so every workload's
    // traced run reports it.
    for s in &summaries {
        for (k, v) in &s.counters {
            if *k != "client.late_p99_ms" {
                values.metrics.insert((*k).to_owned(), *v);
            }
        }
    }
    let spans = tracer.spans();
    let path = runtime.join("trace.json");
    std::fs::write(&path, trace::to_json(&spans).render())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("trace: {} spans written to {}", spans.len(), path.display());
    for (name, (count, total, own)) in trace::self_times(&spans) {
        eprintln!(
            "self-time {name}: {count} span(s), total {:.3} ms, self {:.3} ms",
            total as f64 / 1e3,
            own as f64 / 1e3
        );
    }
    let mut metrics = Vec::new();
    for (name, unit, _) in PER_LAYER {
        let v = values
            .metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("layer metric {name} was not measured"))?;
        println!("layer {name} {} {unit}", fmt(v));
        metrics.push((name.to_owned(), v, unit));
    }
    println!(
        "{}",
        report::result_json(failed == 0, attempted, failed, &metrics)
    );
    Ok(failed == 0)
}
