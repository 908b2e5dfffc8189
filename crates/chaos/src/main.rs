//! `dg-chaos`: seeded fault-injection campaign against an in-process
//! `dg-serve`, with a differential oracle and seed-replay checks.
//!
//! ```text
//! cargo run --release -p dg-chaos -- --smoke
//! cargo run --release -p dg-chaos -- --seed 7 --connections 1000 --verbose
//! cargo run --release -p dg-chaos -- --shards   # router + 2 shards, kill one, drain
//! ```
//!
//! Exit code 0 when the campaign passes (no worker deaths, no
//! HTTP-vs-library mismatches, every sampled seed reproduces), 1 otherwise.
//! `--shards` runs the process-level shard-kill campaign instead and
//! requires the `dg-serve`/`dg-router` binaries next to this one.

use dg_chaos::{run_chaos, run_shard_kill, ChaosConfig, Fault, ShardKillConfig};

fn parse_u64(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn run_shards_mode(args: &[String]) -> ! {
    let defaults = ShardKillConfig::default();
    let config = ShardKillConfig {
        seed: parse_u64(args, "--seed", defaults.seed),
        ..defaults
    };
    println!(
        "dg-chaos: shard-kill campaign, seed {:#018x}, {} requests, \
         SIGKILL shard 0 after {}",
        config.seed, config.requests, config.kill_after
    );
    let report = match run_shard_kill(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("dg-chaos: shard-kill setup failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{:-<72}", "");
    println!(
        "  ok {}/{} | failures {} | mismatches {} | ejection observed {} | \
         router drained {} | shard drained {} | {:.2} s",
        report.ok,
        report.requests,
        report.failures.len(),
        report.mismatches.len(),
        report.ejection_observed,
        report.router_drained,
        report.shard_drained,
        report.elapsed_us as f64 / 1e6
    );
    for line in report.failures.iter().chain(&report.mismatches).take(10) {
        println!("  FAIL {line}");
    }
    if report.passed() {
        println!("dg-chaos: PASS");
        std::process::exit(0);
    }
    println!("dg-chaos: FAIL");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--shards") {
        run_shards_mode(&args);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let verbose = args.iter().any(|a| a == "--verbose");

    let defaults = ChaosConfig::default();
    let config = ChaosConfig {
        seed: parse_u64(&args, "--seed", defaults.seed),
        connections: usize::try_from(parse_u64(
            &args,
            "--connections",
            if smoke {
                240
            } else {
                defaults.connections as u64
            },
        ))
        .unwrap_or(defaults.connections),
        ..defaults
    };

    println!(
        "dg-chaos: seed {:#018x}, {} connections, {} client threads",
        config.seed, config.connections, config.concurrency
    );
    let report = run_chaos(&config);

    println!("{:-<72}", "");
    for fault in Fault::ALL {
        let count = report.fault_counts.get(fault.index()).copied().unwrap_or(0);
        println!("  {:<20} {count:>5} connections", fault.label());
    }
    println!("{:-<72}", "");
    println!(
        "  replies {} | truncated {} | transport errors {} | {:.2} s",
        report.replies,
        report.truncated,
        report.transport_errors,
        report.elapsed_us as f64 / 1e6
    );
    println!(
        "  worker panics {} | clean shutdown {} | mismatches {} | repro failures {}",
        report.worker_panics,
        report.clean_shutdown,
        report.mismatches.len(),
        report.repro_failures.len()
    );
    let failures = report.mismatches.iter().chain(&report.repro_failures);
    for line in failures.take(if verbose { usize::MAX } else { 10 }) {
        println!("  FAIL {line}");
    }

    if report.passed() {
        println!("dg-chaos: PASS");
    } else {
        println!("dg-chaos: FAIL (replay any seed above with ConnPlan::from_seed)");
        std::process::exit(1);
    }
}
