//! Metric definitions, per-repetition results and their summary.

use crate::fleet::Counters;
use crate::runner::Drove;
use crate::stats;
use crate::workload::Workload;
use dg_serve::json::{obj, Json};
use std::collections::BTreeMap;

/// Whether a larger value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughput-like.
    Higher,
    /// Time- or cost-like.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Whether `BENCHMARK.json` gates it. An un-gated metric is printed
    /// and recorded, and only `--check` compares it.
    pub gated: bool,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    gated: bool,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        gated,
    }
}

/// The end-to-end metrics, reported for every workload. Timings carry
/// the widest bound: on the shared two-core reference host the spread
/// between quartiles of ten seeded runs reached 13 % even after host
/// scaling. The tail is not gated because mixed's p90 spread reached
/// 22 %, and a metric is gated on every workload or on none.
pub const END_TO_END: [Metric; 8] = [
    metric("setup_s", "s", Better::Lower, 0.25, true),
    metric("rps", "1/s", Better::Higher, 0.25, true),
    metric("p50_ms", "ms", Better::Lower, 0.25, true),
    metric("tail_ms", "ms", Better::Lower, 0.25, false),
    metric("first_line_ms", "ms", Better::Lower, 0.25, true),
    metric("work_per_s", "1/s", Better::Higher, 0.25, true),
    metric("rss_mb", "MiB", Better::Lower, 0.15, true),
    metric("disk_mb", "MiB", Better::Lower, 0.10, true),
];

/// The per-layer metrics of the traced run: name, unit, direction.
pub const PER_LAYER: [(&str, &str, Better); 29] = [
    ("pdn.run_batch.lanes_per_s", "1/s", Better::Higher),
    ("pdn.didt.lanes_per_s", "1/s", Better::Higher),
    ("pdn.didt.first_wave_ms", "ms", Better::Lower),
    ("engine.par_map.busy_frac", "ratio", Better::Higher),
    ("explore.run.points_per_s", "1/s", Better::Higher),
    ("explore.run.first_progress_ms", "ms", Better::Lower),
    ("explore.render_ms", "ms", Better::Lower),
    ("serve.http.parse_us", "us", Better::Lower),
    ("serve.routes.cached_us", "us", Better::Lower),
    ("serve.routes.handle_us", "us", Better::Lower),
    ("serve.http.write_us", "us", Better::Lower),
    ("serve.routes.miss_ms.sweep", "ms", Better::Lower),
    ("serve.routes.miss_ms.explore", "ms", Better::Lower),
    ("serve.shard.p50_us", "us", Better::Lower),
    ("serve.shard.p99_us", "us", Better::Lower),
    ("serve.shard.first_line_ms", "ms", Better::Lower),
    ("serve.router.hop_p50_us", "us", Better::Lower),
    ("serve.router.hop_p99_us", "us", Better::Lower),
    ("serve.router.hop_first_line_ms", "ms", Better::Lower),
    ("serve.residual_p50_us", "us", Better::Lower),
    ("router.cpu_ms_per_kreq", "ms", Better::Lower),
    ("shard.cpu_ms_per_kreq", "ms", Better::Lower),
    ("router.reply_cache.hit_frac", "ratio", Better::Higher),
    ("serve.respcache.hit_frac", "ratio", Better::Higher),
    ("serve.coalesced_frac", "ratio", Better::Higher),
    ("serve.shed_count", "count", Better::Lower),
    ("serve.disk_cache.stores", "count", Better::Lower),
    ("client.late_p99_ms", "ms", Better::Lower),
    ("trace.overhead_frac", "ratio", Better::Lower),
];

/// Everything one repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// Fleet spawn through router health through the warm-up pass, s.
    pub setup_s: f64,
    /// The timed window's load and bodies.
    pub drove: Drove,
    /// Peak RSS summed over the router and shards, MiB.
    pub rss_mb: f64,
    /// Cache-dir bytes at fleet end, MiB.
    pub disk_mb: f64,
    /// Router CPU time spent in the timed window, ms.
    pub router_cpu_ms: f64,
    /// Shard CPU time (summed) spent in the timed window, ms.
    pub shard_cpu_ms: f64,
    /// Counters scraped after the timed window.
    pub counters: Counters,
    /// Warm-up requests attempted and failed.
    pub warm_up: (usize, usize),
    /// Oracle mismatches and fleet faults.
    pub errors: Vec<String>,
    /// How much slower than the reference host the host ran around this
    /// repetition ([`crate::host::HostSpeed::slowness`]); 1 when unscaled.
    pub slowness: f64,
}

impl Rep {
    /// Requests attempted, warm-up included.
    pub fn attempted(&self) -> usize {
        self.warm_up.0 + self.drove.attempted()
    }

    /// Failed requests, body mismatches and oracle errors.
    pub fn failed(&self) -> usize {
        self.warm_up.1 + self.drove.failed() + self.errors.len()
    }

    fn window_s(&self) -> f64 {
        self.drove.main.elapsed.as_secs_f64().max(1e-9)
    }

    /// Completed requests per second over both sides, scaled to the
    /// reference host. Mixed's rate is set by its open-loop generator, so
    /// it is reported as measured.
    pub fn rps(&self) -> f64 {
        let side = self.drove.side.as_ref().map_or(0, |s| s.samples.len());
        let rate = (self.drove.main.samples.len() + side) as f64 / self.window_s();
        if self.drove.side.is_some() {
            rate
        } else {
            rate * self.slowness
        }
    }

    /// Work units per second, scaled to the reference host: menu lanes
    /// and points on hot-mix, lanes on sweep-stream and mixed's sweep
    /// side, points on explore-stream.
    pub fn work_per_s(&self) -> f64 {
        let work: u64 = self
            .drove
            .streaming_side()
            .samples
            .iter()
            .map(|s| s.work)
            .sum();
        work as f64 / self.window_s() * self.slowness
    }

    /// Setup time scaled to the reference host, s.
    pub fn setup_scaled_s(&self) -> f64 {
        self.setup_s / self.slowness
    }

    /// Latency samples of the measured side scaled to the reference
    /// host, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let ms = 1e6 * self.slowness;
        self.drove
            .main
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / ms)
            .collect()
    }

    /// First-line samples of the streaming requests scaled to the
    /// reference host, ms.
    pub fn first_lines_ms(&self) -> Vec<f64> {
        let ms = 1e6 * self.slowness;
        self.drove
            .streaming_side()
            .samples
            .iter()
            .filter(|s| s.streaming)
            .map(|s| s.first_line_ns as f64 / ms)
            .collect()
    }

    /// Requests completed in the window, both sides.
    pub fn completed(&self) -> usize {
        self.drove.main.samples.len() + self.drove.side.as_ref().map_or(0, |s| s.samples.len())
    }
}

/// One summarized metric: the reported value and the per-rep extremes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The reported value (median over reps, or pooled percentile).
    pub value: f64,
    /// Smallest per-rep value.
    pub min: f64,
    /// Largest per-rep value.
    pub max: f64,
}

/// A workload's end-to-end summary.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The workload.
    pub workload: Workload,
    /// Metric name → value, in [`END_TO_END`] order by name.
    pub values: BTreeMap<&'static str, Value>,
    /// The percentile `tail_ms` reports.
    pub tail_percentile: f64,
    /// Pooled p99 latency, ms (printed, not gated).
    pub p99_ms: f64,
    /// Pooled latency samples.
    pub latency_samples: usize,
    /// Pooled first-line samples.
    pub first_line_samples: usize,
    /// Requests attempted, warm-up included.
    pub attempted: usize,
    /// Failures and oracle mismatches.
    pub failed: usize,
    /// Every oracle or fleet error message.
    pub errors: Vec<String>,
    /// Process and counter metrics collected in every run.
    pub counters: BTreeMap<&'static str, f64>,
}

fn spread(per_rep: &[f64], value: f64) -> Value {
    let min = per_rep.iter().copied().fold(f64::INFINITY, f64::min);
    let max = per_rep.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Value { value, min, max }
}

fn by_median(per_rep: &[f64]) -> Value {
    spread(per_rep, stats::median(per_rep))
}

fn pooled(per_rep: &[Vec<f64>], p: f64) -> Value {
    let each: Vec<f64> = per_rep
        .iter()
        .map(|v| stats::percentile(&stats::sorted(v.clone()), p))
        .collect();
    let all = stats::sorted(per_rep.concat());
    spread(&each, stats::percentile(&all, p))
}

/// Summarizes the repetitions of one workload: rates and resources are
/// medians over reps, latency percentiles come from pooled samples.
pub fn summarize(workload: Workload, reps: &[Rep]) -> Summary {
    let lat: Vec<Vec<f64>> = reps.iter().map(Rep::latencies_ms).collect();
    let first: Vec<Vec<f64>> = reps.iter().map(Rep::first_lines_ms).collect();
    let n_lat = lat.iter().map(Vec::len).sum();
    let n_first = first.iter().map(Vec::len).sum();
    let tail = stats::tail_percentile(n_lat);
    let per = |f: fn(&Rep) -> f64| by_median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut values = BTreeMap::new();
    values.insert("setup_s", per(Rep::setup_scaled_s));
    values.insert("rps", per(Rep::rps));
    values.insert("p50_ms", pooled(&lat, 50.0));
    values.insert("tail_ms", pooled(&lat, tail));
    values.insert("first_line_ms", pooled(&first, 50.0));
    values.insert("work_per_s", per(Rep::work_per_s));
    values.insert("rss_mb", per(|r| r.rss_mb));
    values.insert("disk_mb", per(|r| r.disk_mb));

    let kreq = |r: &Rep| (r.completed() as f64 / 1e3).max(1e-9);
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let med = |f: &dyn Fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut counters = BTreeMap::new();
    counters.insert(
        "router.cpu_ms_per_kreq",
        med(&|r| r.router_cpu_ms / kreq(r)),
    );
    counters.insert("shard.cpu_ms_per_kreq", med(&|r| r.shard_cpu_ms / kreq(r)));
    counters.insert(
        "router.reply_cache.hit_frac",
        med(&|r| frac(r.counters.router_cache_hits, r.counters.router_requests)),
    );
    counters.insert(
        "serve.respcache.hit_frac",
        med(&|r| frac(r.counters.respcache_hits, r.counters.shard_requests)),
    );
    counters.insert(
        "serve.coalesced_frac",
        med(&|r| {
            frac(
                r.counters.coalesced,
                r.counters.coalesced + r.counters.leaders,
            )
        }),
    );
    counters.insert("serve.shed_count", med(&|r| r.counters.shed));
    counters.insert("serve.disk_cache.stores", med(&|r| r.counters.disk_stores));
    let late: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.drove.main.lateness_ns.iter().map(|&l| l as f64 / 1e6))
        .collect();
    if !late.is_empty() {
        counters.insert(
            "client.late_p99_ms",
            stats::percentile(&stats::sorted(late), 99.0),
        );
    }
    let attempted: usize = reps.iter().map(Rep::attempted).sum();
    let failed = reps.iter().map(Rep::failed).sum();
    counters.insert("fail_frac", frac(failed as f64, attempted as f64));
    counters.insert("host.slowness", med(&|r| r.slowness));

    Summary {
        workload,
        values,
        tail_percentile: tail,
        p99_ms: stats::percentile(&stats::sorted(lat.concat()), 99.0),
        latency_samples: n_lat,
        first_line_samples: n_first,
        attempted,
        failed,
        errors: reps.iter().flat_map(|r| r.errors.iter().cloned()).collect(),
        counters,
    }
}

/// The JSON result object printed as the last line of stdout.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.as_str(),
                obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str((*unit).to_owned())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .render()
}
