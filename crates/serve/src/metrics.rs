//! Live serving metrics: per-route latency histograms and counters,
//! rendered in Prometheus text exposition format at `GET /metrics`.
//!
//! Everything is lock-free (`AtomicU64` relaxed counters), so recording a
//! sample on the hot path costs a handful of atomic increments. The
//! histograms use fixed power-of-two microsecond buckets: coarse, but
//! stable across runs and cheap to merge, and good enough to read p50/p99
//! off a serving benchmark.
//!
//! This module is the one place in the workspace's library code that reads
//! the wall clock: serving latency *is* wall time, and no simulation result
//! flows through it (the determinism contract of the result-producing
//! crates is untouched — `dg-serve` is deliberately not on the
//! `dg-analyze` determinism-hygiene crate list).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of histogram buckets: bucket `i` counts samples with
/// `latency_us < 2^i`, the last bucket is the overflow (+Inf) bucket.
pub const BUCKETS: usize = 22;

/// A monotonic microsecond timestamp for latency measurement.
///
/// Serving latency is observational-only and never feeds a simulation
/// result, so the wall-clock read is sanctioned here (see the module
/// docs); the clippy lint is acknowledged rather than disabled globally.
#[allow(clippy::disallowed_methods)]
pub fn monotonic_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A fixed-bucket latency histogram with power-of-two bounds.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one latency sample.
    pub fn record(&self, latency_us: u64) {
        let idx = bucket_index(latency_us);
        if let Some(b) = self.buckets.get(idx) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_us.fetch_add(latency_us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded latencies, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// The upper bucket bound (µs) below which a `q` fraction of samples
    /// fall — a conservative quantile estimate (returns 0 with no samples).
    ///
    /// The rank is clamped to `1..=count`, so `q = 0` reports the first
    /// *non-empty* bucket (not bucket zero's bound) and f64 rounding on
    /// huge counts cannot push the rank past the last sample. If racing
    /// recorders make `count` momentarily outrun the bucket increments,
    /// the estimate falls back to the highest non-empty bucket instead of
    /// claiming the overflow (+Inf) bound.
    pub fn quantile_upper_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = (((total as f64) * q.clamp(0.0, 1.0)).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        let mut last_nonempty = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                last_nonempty = bucket_bound_us(i);
            }
            seen += n;
            if seen >= rank {
                return bucket_bound_us(i);
            }
        }
        last_nonempty
    }

    /// Snapshot of cumulative bucket counts `(upper_bound_us, count)`.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut acc = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                acc += b.load(Ordering::Relaxed);
                (bucket_bound_us(i), acc)
            })
            .collect()
    }
}

fn bucket_index(latency_us: u64) -> usize {
    for i in 0..BUCKETS - 1 {
        if latency_us < (1u64 << i) {
            return i;
        }
    }
    BUCKETS - 1
}

fn bucket_bound_us(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// The routes the registry tracks. `Other` absorbs 404s and probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/droop`
    Droop,
    /// `POST /v1/droop_batch`
    DroopBatch,
    /// `POST /v1/sweep`
    Sweep,
    /// `POST /v1/product`
    Product,
    /// `POST /v1/explore` (streamed)
    Explore,
    /// `POST /v1/droop_sweep` (streamed)
    DroopSweep,
    /// `GET /v1/claims`
    Claims,
    /// `GET /metrics`
    Metrics,
    /// `GET /healthz`
    Healthz,
    /// Anything else (404s, malformed targets, debug routes).
    Other,
}

impl Route {
    /// All tracked routes, in render order.
    pub const ALL: [Route; 10] = [
        Route::Droop,
        Route::DroopBatch,
        Route::Sweep,
        Route::Product,
        Route::Explore,
        Route::DroopSweep,
        Route::Claims,
        Route::Metrics,
        Route::Healthz,
        Route::Other,
    ];

    /// The metrics label for this route.
    pub fn label(self) -> &'static str {
        match self {
            Route::Droop => "droop",
            Route::DroopBatch => "droop_batch",
            Route::Sweep => "sweep",
            Route::Product => "product",
            Route::Explore => "explore",
            Route::DroopSweep => "droop_sweep",
            Route::Claims => "claims",
            Route::Metrics => "metrics",
            Route::Healthz => "healthz",
            Route::Other => "other",
        }
    }
}

/// One [`RouteMetrics`] slot per tracked route.
#[derive(Debug, Default)]
struct RouteSlots {
    droop: RouteMetrics,
    droop_batch: RouteMetrics,
    sweep: RouteMetrics,
    product: RouteMetrics,
    explore: RouteMetrics,
    droop_sweep: RouteMetrics,
    claims: RouteMetrics,
    metrics: RouteMetrics,
    healthz: RouteMetrics,
    other: RouteMetrics,
}

/// Per-route counters and latency histogram.
#[derive(Debug, Default)]
pub struct RouteMetrics {
    /// Responses in the 2xx class.
    pub ok_2xx: AtomicU64,
    /// Responses in the 4xx class.
    pub client_err_4xx: AtomicU64,
    /// Responses in the 5xx class (includes 503 sheds recorded per route).
    pub server_err_5xx: AtomicU64,
    /// Handler latency.
    pub latency: Histogram,
}

/// The process-wide metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    routes: RouteSlots,
    /// Connections accepted.
    pub connections_total: AtomicU64,
    /// Connections rejected at admission (503 + Retry-After).
    pub shed_total: AtomicU64,
    /// Handler panics the connection engine contained: a 500, or a cut
    /// stream once its head is out.
    pub panics_total: AtomicU64,
    /// Requests rejected by the HTTP parser (malformed framing).
    pub bad_requests_total: AtomicU64,
    /// Requests currently being handled by workers.
    pub inflight: AtomicU64,
    /// Requests answered from the response cache (memory or disk tier)
    /// without running a handler.
    pub resp_cache_hits_total: AtomicU64,
}

impl Metrics {
    /// The per-route slot.
    pub fn route(&self, route: Route) -> &RouteMetrics {
        match route {
            Route::Droop => &self.routes.droop,
            Route::DroopBatch => &self.routes.droop_batch,
            Route::Sweep => &self.routes.sweep,
            Route::Product => &self.routes.product,
            Route::Explore => &self.routes.explore,
            Route::DroopSweep => &self.routes.droop_sweep,
            Route::Claims => &self.routes.claims,
            Route::Metrics => &self.routes.metrics,
            Route::Healthz => &self.routes.healthz,
            Route::Other => &self.routes.other,
        }
    }

    /// Records one handled request.
    pub fn record(&self, route: Route, status: u16, latency_us: u64) {
        let slot = self.route(route);
        match status {
            200..=299 => slot.ok_2xx.fetch_add(1, Ordering::Relaxed),
            400..=499 => slot.client_err_4xx.fetch_add(1, Ordering::Relaxed),
            _ => slot.server_err_5xx.fetch_add(1, Ordering::Relaxed),
        };
        slot.latency.record(latency_us);
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# HELP dg_requests_total Handled requests by route and status class.\n");
        out.push_str("# TYPE dg_requests_total counter\n");
        for route in Route::ALL {
            let slot = self.route(route);
            let label = route.label();
            for (class, v) in [
                ("2xx", slot.ok_2xx.load(Ordering::Relaxed)),
                ("4xx", slot.client_err_4xx.load(Ordering::Relaxed)),
                ("5xx", slot.server_err_5xx.load(Ordering::Relaxed)),
            ] {
                out.push_str(&format!(
                    "dg_requests_total{{route=\"{label}\",class=\"{class}\"}} {v}\n"
                ));
            }
        }
        out.push_str("# HELP dg_request_latency_us Handler latency histogram (µs).\n");
        out.push_str("# TYPE dg_request_latency_us histogram\n");
        for route in Route::ALL {
            let slot = self.route(route);
            if slot.latency.count() == 0 {
                continue;
            }
            let label = route.label();
            for (bound, cum) in slot.latency.cumulative() {
                let le = if bound == u64::MAX {
                    "+Inf".to_owned()
                } else {
                    format!("{bound}")
                };
                out.push_str(&format!(
                    "dg_request_latency_us_bucket{{route=\"{label}\",le=\"{le}\"}} {cum}\n"
                ));
            }
            out.push_str(&format!(
                "dg_request_latency_us_sum{{route=\"{label}\"}} {}\n",
                slot.latency.sum_us()
            ));
            out.push_str(&format!(
                "dg_request_latency_us_count{{route=\"{label}\"}} {}\n",
                slot.latency.count()
            ));
        }
        let (disk_hits, disk_misses, disk_stores) = darkgates::pdn::diskcache::stats();
        for (name, help, v) in [
            (
                "dg_connections_total",
                "Connections accepted.",
                self.connections_total.load(Ordering::Relaxed),
            ),
            (
                "dg_shed_total",
                "Connections shed at admission with 503.",
                self.shed_total.load(Ordering::Relaxed),
            ),
            (
                "dg_panics_total",
                "Handler panics converted to 500s.",
                self.panics_total.load(Ordering::Relaxed),
            ),
            (
                "dg_bad_requests_total",
                "Requests rejected by the HTTP parser.",
                self.bad_requests_total.load(Ordering::Relaxed),
            ),
            (
                "dg_resp_cache_hits_total",
                "Requests answered from the response cache without recompute.",
                self.resp_cache_hits_total.load(Ordering::Relaxed),
            ),
            (
                "dg_disk_cache_hits_total",
                "Disk-tier content-cache hits (all kinds).",
                disk_hits,
            ),
            (
                "dg_disk_cache_misses_total",
                "Disk-tier content-cache misses (all kinds).",
                disk_misses,
            ),
            (
                "dg_disk_cache_stores_total",
                "Disk-tier content-cache stores (all kinds).",
                disk_stores,
            ),
            (
                "dg_inflight_requests",
                "Requests currently in a worker.",
                self.inflight.load(Ordering::Relaxed),
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n"));
            let kind = if name == "dg_inflight_requests" {
                "gauge"
            } else {
                "counter"
            };
            out.push_str(&format!("# TYPE {name} {kind}\n{name} {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_quantiles_bound_samples() {
        let h = Histogram::default();
        for us in [1u64, 3, 7, 100, 1000, 100_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum_us(), 101_111);
        let cum = h.cumulative();
        let mut prev = 0;
        for (_, c) in &cum {
            assert!(*c >= prev);
            prev = *c;
        }
        assert_eq!(cum.last().map(|(_, c)| *c), Some(6));
        // p50 of the set is 7 µs → bucket bound 8; p99 covers the max.
        assert_eq!(h.quantile_upper_us(0.5), 8);
        assert!(h.quantile_upper_us(0.99) >= 100_000);
        assert_eq!(Histogram::default().quantile_upper_us(0.5), 0);
    }

    #[test]
    fn overflow_bucket_catches_huge_samples() {
        let h = Histogram::default();
        h.record(u64::MAX / 2);
        assert_eq!(h.quantile_upper_us(1.0), u64::MAX);
    }

    #[test]
    fn quantile_edge_cases_never_report_empty_overflow() {
        // q = 0 must report the first non-empty bucket, not bucket zero.
        let h = Histogram::default();
        h.record(100); // bucket bound 128
        h.record(100);
        assert_eq!(h.quantile_upper_us(0.0), 128);
        // An exact-boundary rank (q = 1 → rank == count) lands on the
        // last non-empty bucket, never the +Inf bound.
        assert_eq!(h.quantile_upper_us(1.0), 128);
        // q outside [0, 1] clamps instead of overshooting the ranks.
        assert_eq!(h.quantile_upper_us(-1.0), 128);
        assert_eq!(h.quantile_upper_us(2.0), 128);
    }

    #[test]
    fn quantile_survives_count_outrunning_buckets() {
        // record() bumps the bucket and then the count; a reader between
        // two racing recorders can observe count > Σ buckets. The estimate
        // must degrade to the highest non-empty bucket, not +Inf.
        let h = Histogram::default();
        h.record(1000); // bucket bound 1024
        h.count.fetch_add(3, Ordering::Relaxed);
        assert_eq!(h.quantile_upper_us(0.99), 1024);
        assert_eq!(h.quantile_upper_us(1.0), 1024);
    }

    #[test]
    fn render_names_every_counter() {
        let m = Metrics::default();
        m.record(Route::Droop, 200, 42);
        m.record(Route::Droop, 400, 1);
        m.record(Route::Sweep, 503, 5);
        m.shed_total.fetch_add(3, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("dg_requests_total{route=\"droop\",class=\"2xx\"} 1"));
        assert!(text.contains("dg_requests_total{route=\"droop\",class=\"4xx\"} 1"));
        assert!(text.contains("dg_requests_total{route=\"sweep\",class=\"5xx\"} 1"));
        assert!(text.contains("dg_shed_total 3"));
        assert!(text.contains("dg_request_latency_us_count{route=\"droop\"} 2"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn monotonic_clock_advances() {
        let a = monotonic_us();
        let b = monotonic_us();
        assert!(b >= a);
    }
}
