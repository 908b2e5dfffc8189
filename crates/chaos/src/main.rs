//! `dg-chaos`: seeded fault-injection campaign against an in-process
//! `dg-serve`, with a differential oracle and seed-replay checks.
//!
//! ```text
//! cargo run --release -p dg-chaos                # the CI campaign: 240 connections
//! cargo run --release -p dg-chaos -- --seed 7 --connections 1000 --verbose
//! cargo run --release -p dg-chaos -- --shards   # router + 2 shards, kill one, drain, replay its dir
//! ```
//!
//! Exit code 0 when the campaign passes (no worker deaths, no
//! HTTP-vs-library mismatches, no truncated reply under a fault that does
//! not cut the connection, every sampled seed reproduces), 1 otherwise,
//! and 2 on a usage error. `--shards` runs the process-level shard-kill
//! campaign instead and requires the `dg-serve`/`dg-router` binaries next
//! to this one.

use dg_chaos::{run_chaos, run_shard_kill, ChaosConfig, Fault, ShardKillConfig};

const USAGE: &str = "usage: dg-chaos [--seed N] [--connections N] [--verbose]\n       \
                     dg-chaos --shards [--seed N]";

/// What one command line asks for.
#[derive(Debug)]
enum Campaign {
    /// The fault campaign, printing every failure when `verbose`.
    Faults { config: ChaosConfig, verbose: bool },
    /// The shard-kill campaign.
    Shards(ShardKillConfig),
}

/// Parses the command line. `Err` holds the message to print above the
/// usage line (empty for `--help`).
fn parse_args(args: &[String]) -> Result<Campaign, String> {
    let (mut seed, mut connections, mut verbose, mut shards) = (None, None, false, false);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut number = |what: &str| -> Result<u64, String> {
            let value = iter.next().ok_or(format!("{arg} requires {what}"))?;
            value
                .parse()
                .map_err(|_| format!("{arg} takes {what}, not {value:?}"))
        };
        match arg.as_str() {
            "--seed" => seed = Some(number("a number")?),
            "--connections" => match number("a positive count")? {
                0 => return Err("--connections takes a positive count, not 0".to_owned()),
                n => connections = Some(usize::try_from(n).map_err(|e| e.to_string())?),
            },
            "--verbose" => verbose = true,
            "--shards" => shards = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if shards {
        if connections.is_some() || verbose {
            return Err("--shards takes only --seed".to_owned());
        }
        let defaults = ShardKillConfig::default();
        return Ok(Campaign::Shards(ShardKillConfig {
            seed: seed.unwrap_or(defaults.seed),
            ..defaults
        }));
    }
    let defaults = ChaosConfig::default();
    let config = ChaosConfig {
        seed: seed.unwrap_or(defaults.seed),
        connections: connections.unwrap_or(defaults.connections),
        ..defaults
    };
    Ok(Campaign::Faults { config, verbose })
}

/// The fault campaign's first line. The seed prints in decimal, the form
/// `--seed` reads back.
fn faults_banner(config: &ChaosConfig) -> String {
    format!(
        "dg-chaos: seed {}, {} connections, {} client threads",
        config.seed, config.connections, config.concurrency
    )
}

/// The shard-kill campaign's first line, seed in decimal as above.
fn shards_banner(config: &ShardKillConfig) -> String {
    format!(
        "dg-chaos: shard-kill campaign, seed {}, {} requests, SIGKILL shard 0 after {}",
        config.seed, config.requests, config.kill_after
    )
}

fn run_shards_mode(config: &ShardKillConfig) -> ! {
    println!("{}", shards_banner(config));
    let report = match run_shard_kill(config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("dg-chaos: shard-kill setup failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{:-<72}", "");
    println!(
        "  ok {}/{} | failures {} | mismatches {} | ejection observed {} | \
         router drained {} | shard drained {} | disk replay hits {} | {:.2} s",
        report.ok,
        report.requests,
        report.failures.len(),
        report.mismatches.len(),
        report.ejection_observed,
        report.router_drained,
        report.shard_drained,
        report.disk_replay_hits,
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
    let (config, verbose) = match parse_args(&args) {
        Ok(Campaign::Shards(config)) => run_shards_mode(&config),
        Ok(Campaign::Faults { config, verbose }) => (config, verbose),
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    println!("{}", faults_banner(&config));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Campaign, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse_args(&args)
    }

    #[test]
    fn no_flag_runs_the_default_fault_campaign() {
        let Ok(Campaign::Faults { config, verbose }) = parse(&[]) else {
            panic!("no flags is the fault campaign");
        };
        let defaults = ChaosConfig::default();
        assert_eq!((config.seed, config.connections), (defaults.seed, 240));
        assert!(!verbose);
    }

    #[test]
    fn kept_flags_parse() {
        let parsed = parse(&["--seed", "7", "--connections", "1000", "--verbose"]);
        let Ok(Campaign::Faults { config, verbose }) = parsed else {
            panic!("valid flags: {parsed:?}");
        };
        assert_eq!((config.seed, config.connections, verbose), (7, 1000, true));
        let Ok(Campaign::Shards(config)) = parse(&["--shards", "--seed", "9"]) else {
            panic!("--shards with a seed is the shard-kill campaign");
        };
        assert_eq!(config.seed, 9);
    }

    /// The seed a banner prints, as typed after `--seed`.
    fn banner_seed(banner: &str) -> &str {
        banner
            .split("seed ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .unwrap_or_default()
    }

    #[test]
    fn banner_seeds_feed_back_through_seed() {
        for flags in [
            &[][..],
            &["--seed", "7"],
            &["--seed", "18446744073709551615"],
        ] {
            let Ok(Campaign::Faults { config, .. }) = parse(flags) else {
                panic!("{flags:?} is the fault campaign");
            };
            let banner = faults_banner(&config);
            let Ok(Campaign::Faults { config: again, .. }) =
                parse(&["--seed", banner_seed(&banner)])
            else {
                panic!("{banner:?} prints a seed --seed rejects");
            };
            assert_eq!(format!("{again:?}"), format!("{config:?}"), "{banner}");

            let shards: Vec<&str> = ["--shards"].iter().chain(flags).copied().collect();
            let Ok(Campaign::Shards(config)) = parse(&shards) else {
                panic!("{shards:?} is the shard-kill campaign");
            };
            let banner = shards_banner(&config);
            let Ok(Campaign::Shards(again)) = parse(&["--shards", "--seed", banner_seed(&banner)])
            else {
                panic!("{banner:?} prints a seed --seed rejects");
            };
            assert_eq!(format!("{again:?}"), format!("{config:?}"), "{banner}");
        }
    }

    #[test]
    fn unknown_flags_and_bad_values_are_usage_errors() {
        for (args, want) in [
            (&["--smoke"][..], "unknown flag"),
            (&["--smok"], "unknown flag"),
            (&["--witness", "/tmp/x"], "unknown flag"),
            (&["--seed"], "--seed requires"),
            (&["--connections"], "--connections requires"),
            (&["--seed", "0x10"], "not \"0x10\""),
            (&["--connections", "many"], "not \"many\""),
            (&["--connections", "0"], "not 0"),
            (&["--shards", "--connections", "10"], "only --seed"),
        ] {
            let err = parse(args).expect_err("a usage error");
            assert!(err.contains(want), "{args:?}: {err}");
        }
        assert_eq!(parse(&["--help"]).err().as_deref(), Some(""));
    }
}
