//! Every workload, at tiny size, against in-process shards behind an
//! in-process router: checks only, no timing gates. Plus the properties
//! of the generators and the percentile-selection rule.

use dg_benchmark::oracle::HotOracle;
use dg_benchmark::report::{END_TO_END, PER_LAYER};
use dg_benchmark::runner::{self, Inputs};
use dg_benchmark::stats::tail_percentile;
use dg_benchmark::trace::Tracer;
use dg_benchmark::workload::{self, Plan, Workload, MAX_EXPLORE_POINTS, REPS, SWEEP_BLOCK};
use dg_explore::ExploreSpec;
use dg_serve::json::{self, Json};
use dg_serve::proxy::{RouterConfig, RouterServer};
use dg_serve::routes::content_key_of;
use dg_serve::{Server, ServerConfig};
use std::collections::HashSet;

fn tiny(workload: Workload) -> Plan {
    match workload {
        Workload::HotMix => Plan {
            requests: 300,
            open_loop_rps: 0.0,
        },
        Workload::SweepStream => Plan {
            requests: SWEEP_BLOCK,
            open_loop_rps: 0.0,
        },
        Workload::ExploreStream => Plan {
            requests: 40,
            open_loop_rps: 0.0,
        },
        Workload::Mixed => Plan {
            requests: SWEEP_BLOCK,
            open_loop_rps: 500.0,
        },
    }
}

#[test]
fn every_workload_answers_correctly_in_process() {
    let shards: Vec<_> = (0..2)
        .map(|_| Server::start(ServerConfig::default()).expect("shard starts"))
        .collect();
    let router = RouterServer::start(RouterConfig {
        shards: shards.iter().map(|s| s.local_addr()).collect(),
        ..RouterConfig::default()
    })
    .expect("router starts");
    let addr = router.local_addr();
    let hot = HotOracle::new(&workload::hot_menu());
    for w in Workload::ALL {
        let plan = tiny(w);
        let inputs = Inputs::generate(w, 7, 0, plan);
        let (attempted, failed) = runner::warm_up(addr, &inputs.menu);
        assert_eq!((attempted, failed), (24, 0), "{}: warm-up", w.name());
        let drove = runner::drive(addr, w, &inputs, plan, &Tracer::off(), None);
        assert!(drove.attempted() > 0, "{}: nothing sent", w.name());
        assert_eq!(drove.failed(), 0, "{}: failed requests", w.name());
        let errors = runner::verify(w, &inputs, &drove, &hot);
        assert!(errors.is_empty(), "{}: {errors:?}", w.name());
        let checked = drove.streaming_side().kept.len() + drove.main.class_bodies.len();
        assert!(checked > 0, "{}: no body reached an oracle", w.name());
    }
    assert!(router.shutdown(), "router stops cleanly");
    for s in shards {
        assert!(s.shutdown().clean, "shard drains cleanly");
    }
}

#[test]
fn a_corrupted_body_fails_its_oracle() {
    let inputs = Inputs::generate(Workload::SweepStream, 3, 0, tiny(Workload::SweepStream));
    let req = &inputs.sweeps[0];
    let body = b"{\"completed\":1,\"total\":1,\"droop_mv\":[1.5]}\n{\"ok\":true,\"result\":{\"droop_mv\":[1.5]}}\n";
    assert!(dg_benchmark::oracle::check_sweep(req, body).is_err());
}

#[test]
fn generators_are_deterministic_per_seed() {
    for w in Workload::ALL {
        let plan = Plan {
            requests: 21,
            open_loop_rps: 0.0,
        };
        let bodies = |seed| {
            let i = Inputs::generate(w, seed, 1, plan);
            let mut all: Vec<String> = i.hot.iter().map(|m| m.to_string()).collect();
            all.extend(i.sweeps.iter().chain(&i.explores).map(|r| r.body.clone()));
            all
        };
        assert_eq!(bodies(11), bodies(11), "{}", w.name());
        assert_ne!(bodies(11), bodies(12), "{}", w.name());
    }
}

#[test]
fn sweep_and_explore_keys_never_repeat_within_a_run() {
    for w in [
        Workload::SweepStream,
        Workload::ExploreStream,
        Workload::Mixed,
    ] {
        let plan = w.plan(60.0);
        let mut keys = HashSet::new();
        let mut n = 0;
        for rep in 0..REPS {
            let inputs = Inputs::generate(w, 5, rep, plan);
            for req in inputs.sweeps.iter().chain(&inputs.explores) {
                keys.insert(content_key_of(req.method, req.path, req.body.as_bytes()));
                n += 1;
            }
        }
        assert!(n > 0);
        assert_eq!(keys.len(), n, "{}: a key repeats", w.name());
    }
}

#[test]
fn explore_specs_stay_under_the_point_cap() {
    let inputs = Inputs::generate(
        Workload::ExploreStream,
        9,
        0,
        Plan {
            requests: 2_000,
            open_loop_rps: 0.0,
        },
    );
    let mut largest = 0;
    for req in &inputs.explores {
        let spec = ExploreSpec::from_text(&req.body).expect("generated specs parse");
        assert_eq!(spec.point_count(), req.work);
        largest = largest.max(spec.point_count());
    }
    assert!(largest <= MAX_EXPLORE_POINTS && MAX_EXPLORE_POINTS <= 20_000);
}

#[test]
fn sweep_sizes_are_balanced_and_in_range() {
    let plan = Workload::SweepStream.plan(9.0);
    assert_eq!(plan.requests % SWEEP_BLOCK, 0);
    let inputs = Inputs::generate(Workload::SweepStream, 4, 0, plan);
    let mut sizes: Vec<u64> = inputs.sweeps.iter().map(|r| r.work).collect();
    sizes.sort_unstable();
    let mut other: Vec<u64> = Inputs::generate(Workload::SweepStream, 5, 2, plan)
        .sweeps
        .iter()
        .map(|r| r.work)
        .collect();
    other.sort_unstable();
    assert_eq!(sizes, other, "every seed sends the same size mix");
    assert!(sizes.iter().all(|&s| (32..=128).contains(&s)));
}

#[test]
fn the_hot_menu_has_24_entries() {
    let menu = workload::hot_menu();
    assert_eq!(menu.len(), 24);
    let distinct: HashSet<_> = menu.iter().map(|r| (r.path, r.body.clone())).collect();
    assert_eq!(distinct.len(), 16);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(100_000), 90.0);
    assert_eq!(tail_percentile(100), 90.0);
    assert_eq!(tail_percentile(99), 75.0);
    assert_eq!(tail_percentile(40), 75.0);
    assert_eq!(tail_percentile(39), 50.0);
    assert_eq!(tail_percentile(3), 50.0);
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("array").to_vec();
    let field = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .expect("string")
            .to_owned()
    };

    let names: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);

    let gated: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                bound,
            )
        })
        .collect();
    let ours: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .filter(|m| m.gated)
        .map(|m| {
            (
                m.name.to_owned(),
                m.unit.to_owned(),
                m.better.label().to_owned(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(gated, ours);

    let layers: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let ours: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, b)| ((*n).to_owned(), (*u).to_owned(), b.label().to_owned()))
        .collect();
    assert_eq!(layers, ours);
}
