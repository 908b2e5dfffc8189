//! End-to-end chaos campaign at reduced scale: a real server, seeded
//! transport faults, the differential oracle, and seed replay — the same
//! path the `dg-chaos` CI gate drives, small enough for `cargo test`.

use dg_chaos::{conn_seed, run_chaos, run_connection, ChaosConfig, ConnPlan, OutcomeClass};

fn test_config(seed: u64, connections: usize) -> ChaosConfig {
    ChaosConfig {
        seed,
        connections,
        concurrency: 6,
        read_timeout_ms: 120,
        workers: 3,
        queue_depth: 64,
        repro_sample: 6,
    }
}

#[test]
fn reduced_campaign_passes_and_covers_the_faults() {
    let report = run_chaos(&test_config(0x5EED, 72));
    assert!(
        report.passed(),
        "mismatches: {:?}\nrepro failures: {:?}\ntransport errors: {}, panics: {}, clean: {}",
        report.mismatches,
        report.repro_failures,
        report.transport_errors,
        report.worker_panics,
        report.clean_shutdown
    );
    assert_eq!(report.replies + report.truncated, 72);
    let exercised = report.fault_counts.iter().filter(|&&n| n > 0).count();
    assert!(
        exercised >= 5,
        "fault mix too thin: {:?}",
        report.fault_counts
    );
}

#[test]
fn a_failing_seed_replays_to_the_same_outcome_class() {
    // Outside run_chaos: stand a server up, pick seeds that exercise the
    // truncating faults, and check a bare replay lands in the same class.
    let server = dg_serve::Server::start(dg_serve::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 32,
        read_timeout_ms: 100,
        ..dg_serve::ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();
    for index in 0..12 {
        let seed = conn_seed(0xBAD_CAFE, index);
        let plan = ConnPlan::from_seed(seed);
        let (first, _) = run_connection(addr, &plan, 100);
        let (second, _) = run_connection(addr, &plan, 100);
        let shed = |o: &OutcomeClass| matches!(o, OutcomeClass::Reply(503));
        if !shed(&first) && !shed(&second) {
            assert_eq!(
                first,
                second,
                "seed {seed:#018x} ({}) did not replay",
                plan.fault.label()
            );
        }
    }
    assert!(server.shutdown().clean);
}
