//! The four workloads and their seeded request generators.
//!
//! The seed picks every input; the serve tier only ever sees the
//! generated requests. What each workload stresses, and why it exists,
//! is in the README.

use crate::client::render_request;
use std::collections::HashSet;

/// SplitMix64: a small, well-mixed generator for request parameters.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next pseudo-random word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[0, n)` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        usize::try_from(self.next_u64() % n as u64).unwrap_or(0)
    }

    /// A value in `[lo, hi)` with three decimals, so its rendering is exact.
    pub fn milli(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 1000.0) as usize;
        lo + self.below(steps) as f64 / 1000.0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop replay of the fixed 24-entry menu: every key repeats.
    HotMix,
    /// Closed-loop distinct `/v1/droop_sweep` grids: every key misses.
    SweepStream,
    /// Closed-loop distinct `/v1/explore` specs: render- and write-bound.
    ExploreStream,
    /// The menu open-loop at a fixed rate beside closed-loop sweeps.
    Mixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::HotMix,
        Workload::SweepStream,
        Workload::ExploreStream,
        Workload::Mixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotMix => "hot-mix",
            Workload::SweepStream => "sweep-stream",
            Workload::ExploreStream => "explore-stream",
            Workload::Mixed => "mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per repetition for a run measuring `seconds` in total.
    ///
    /// The counts are fixed per workload rather than stopped by a clock,
    /// so the work done — and with it the cache-dir size and memory — is
    /// the same for every build; a faster build just finishes sooner. The
    /// rates below are what the two-vCPU reference host (README) sustained
    /// when the benchmark was defined, so the timed phases there add up to
    /// about `seconds`.
    pub fn plan(self, seconds: f64) -> Plan {
        let per_rep = seconds / REPS as f64;
        let count = |rate: f64| ((rate * per_rep).round() as usize).max(2);
        // Sweep counts are whole blocks of the size cycle, so every rep
        // sends the same multiset of grid sizes.
        let blocks = |rate: f64| {
            ((rate * per_rep / SWEEP_BLOCK as f64).round() as usize).max(1) * SWEEP_BLOCK
        };
        match self {
            Workload::HotMix => Plan {
                requests: count(HOT_MIX_RPS),
                open_loop_rps: 0.0,
            },
            Workload::SweepStream => Plan {
                requests: blocks(SWEEP_GRIDS_PER_S),
                open_loop_rps: 0.0,
            },
            Workload::ExploreStream => Plan {
                requests: count(EXPLORE_RPS),
                open_loop_rps: 0.0,
            },
            Workload::Mixed => Plan {
                requests: blocks(MIXED_SWEEP_GRIDS_PER_S),
                open_loop_rps: MIXED_OPEN_LOOP_RPS,
            },
        }
    }
}

/// Repetitions per run, each on a fresh fleet.
pub const REPS: usize = 4;

/// Closed-loop client connections (and threads) of every workload.
pub const CONNECTIONS: usize = 2;

/// Calibration rates: see [`Workload::plan`].
const HOT_MIX_RPS: f64 = 45_000.0;
const SWEEP_GRIDS_PER_S: f64 = 4.0;
const EXPLORE_RPS: f64 = 550.0;
const MIXED_SWEEP_GRIDS_PER_S: f64 = 3.3;

/// The fixed arrival rate of the mixed workload's open-loop menu side.
pub const MIXED_OPEN_LOOP_RPS: f64 = 1_000.0;

/// Request counts for one repetition of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Closed-loop requests: menu requests on hot-mix, grids on
    /// sweep-stream and mixed, specs on explore-stream.
    pub requests: usize,
    /// The open-loop menu rate on mixed (0 elsewhere).
    pub open_loop_rps: f64,
}

/// One generated request, rendered once up front.
#[derive(Debug, Clone)]
pub struct Req {
    /// HTTP method.
    pub method: &'static str,
    /// Request target.
    pub path: &'static str,
    /// JSON body (empty for GET).
    pub body: String,
    /// The full request as sent on the wire.
    pub wire: Vec<u8>,
    /// Whether its route answers with a chunked NDJSON stream (progress
    /// lines, then the result line).
    pub streaming: bool,
    /// Work units: droop lanes, explore points, or 1.
    pub work: u64,
}

impl Req {
    fn new(method: &'static str, path: &'static str, body: String, work: u64) -> Req {
        let wire = render_request(method, path, (method == "POST").then_some(body.as_str()));
        Req {
            method,
            path,
            body,
            wire,
            streaming: matches!(path, "/v1/explore" | "/v1/droop_sweep"),
            work,
        }
    }
}

/// The hot-mix menu: 24 fixed entries whose repetition follows the
/// `dg-load` valid-mix weights without `/healthz` and `/metrics`.
pub fn hot_menu() -> Vec<Req> {
    let mut menu = vec![Req::new("GET", "/v1/claims", String::new(), 1)];
    for _ in 0..2 {
        for to in [40, 50, 60, 70] {
            menu.push(Req::new(
                "POST",
                "/v1/droop",
                format!("{{\"variant\":\"gated\",\"from_a\":10,\"to_a\":{to}}}"),
                1,
            ));
        }
        for variant in ["gated", "bypassed"] {
            menu.push(Req::new(
                "POST",
                "/v1/sweep",
                format!("{{\"variant\":\"{variant}\",\"points\":128,\"decimate\":16}}"),
                1,
            ));
        }
    }
    for _ in 0..3 {
        menu.push(Req::new(
            "POST",
            "/v1/product",
            "{\"design\":\"desktop\",\"tdp_w\":91,\"workload\":{\"kind\":\"spec\",\
             \"benchmark\":\"444.namd\",\"mode\":\"base\"}}"
                .to_owned(),
            1,
        ));
    }
    menu.push(Req::new(
        "POST",
        "/v1/product",
        "{\"design\":\"mobile\",\"tdp_w\":45,\"workload\":{\"kind\":\"energy\",\
         \"name\":\"energy-star\"}}"
            .to_owned(),
        1,
    ));
    for lanes in 2..=4u64 {
        let steps: Vec<String> = (0..lanes)
            .map(|k| format!("{{\"from_a\":10,\"to_a\":{}}}", 40 + 10 * k))
            .collect();
        menu.push(Req::new(
            "POST",
            "/v1/droop_batch",
            format!("{{\"variant\":\"gated\",\"steps\":[{}]}}", steps.join(",")),
            lanes,
        ));
    }
    for seed in 0..2 {
        // 2 nodes x 1 x 1 x 1 x 1 x 2 default fuse modes x 1 guardband.
        menu.push(Req::new(
            "POST",
            "/v1/explore",
            format!(
                "{{\"seed\":{seed},\"tech_nodes\":[45,22],\"tdp_w\":[45],\"big_perf\":[20],\
                 \"small_perf\":[2],\"fraction_parallelism\":[0.9]}}"
            ),
            4,
        ));
    }
    for points in 2..=3u64 {
        menu.push(Req::new(
            "POST",
            "/v1/droop_sweep",
            format!(
                "{{\"variant\":\"gated\",\"quiescent_a\":10,\
                 \"delta\":{{\"start_a\":20,\"stop_a\":40,\"points\":{points}}}}}"
            ),
            points,
        ));
    }
    menu
}

/// Draws menu indices for `n` hot-mix requests.
pub fn hot_sequence(rng: &mut Rng, menu_len: usize, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.below(menu_len)).collect()
}

/// Grid sizes of sweep-stream requests. Every block of seven requests
/// uses each size once in a seeded order, so every seed sees the same
/// size mix and latency medians stay comparable across seeds.
const SWEEP_SIZES: [u64; 7] = [32, 48, 64, 80, 96, 112, 128];

/// Sweep requests per size cycle; sweep counts are multiples of it.
pub const SWEEP_BLOCK: usize = SWEEP_SIZES.len();

/// `n` distinct `/v1/droop_sweep` requests: the seed draws the variant,
/// quiescent current, slew, delta range and the order of grid sizes.
pub fn sweep_requests(rng: &mut Rng, n: usize) -> Vec<Req> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut sizes = Vec::new();
    while out.len() < n {
        if sizes.is_empty() {
            sizes = SWEEP_SIZES.to_vec();
            rng.shuffle(&mut sizes);
        }
        let points = sizes.pop().unwrap_or(64);
        let variant = if rng.below(2) == 0 {
            "gated"
        } else {
            "bypassed"
        };
        let quiescent = rng.milli(2.0, 40.0);
        let slew = rng.milli(0.0, 20.0);
        let start = rng.milli(1.0, 20.0);
        let stop = start + rng.milli(10.0, 60.0);
        let body = format!(
            "{{\"variant\":\"{variant}\",\"quiescent_a\":{quiescent:.3},\"slew_ns\":{slew:.3},\
             \"delta\":{{\"start_a\":{start:.3},\"stop_a\":{stop:.3},\"points\":{points}}}}}"
        );
        if seen.insert(body.clone()) {
            out.push(Req::new("POST", "/v1/droop_sweep", body, points));
        } else {
            sizes.push(points);
        }
    }
    out
}

/// The Charm axes of `crates/explore/specs/charm_full.json`
/// (6 x 5 x 4 x 4 x 5 x 2 x 3 = 14,400 points, under the 20,000 cap).
const CHARM_AXES: [(&str, &[&str]); 7] = [
    ("tech_nodes", &["45", "32", "22", "16", "11", "8"]),
    ("tdp_w", &["35", "45", "65", "91", "125"]),
    ("big_perf", &["10", "20", "30", "40"]),
    ("small_perf", &["1", "2", "4", "8"]),
    (
        "fraction_parallelism",
        &["0.999", "0.99", "0.95", "0.9", "0.8"],
    ),
    ("fuse", &["\"gated\"", "\"bypassed\""]),
    ("guardband", &["\"none\"", "\"droop\"", "\"full\""]),
];

/// The largest explore grid [`explore_requests`] can draw.
pub const MAX_EXPLORE_POINTS: u64 = 14_400;

/// `n` distinct `/v1/explore` specs: a seeded non-empty subset of every
/// Charm axis and a spec `seed` unique within the run.
pub fn explore_requests(rng: &mut Rng, n: usize) -> Vec<Req> {
    let seed_base = rng.below(1 << 20) as u64 * 1_000_000;
    (0..n)
        .map(|i| {
            let mut points = 1u64;
            let mut fields = vec![format!("\"seed\":{}", seed_base + i as u64)];
            for (axis, values) in CHARM_AXES {
                let k = 1 + rng.below(values.len());
                let mut picks: Vec<usize> = (0..values.len()).collect();
                rng.shuffle(&mut picks);
                picks.truncate(k);
                picks.sort_unstable();
                let chosen: Vec<&str> = picks.iter().map(|&i| values[i]).collect();
                fields.push(format!("\"{axis}\":[{}]", chosen.join(",")));
                points *= k as u64;
            }
            Req::new(
                "POST",
                "/v1/explore",
                format!("{{{}}}", fields.join(",")),
                points,
            )
        })
        .collect()
}
