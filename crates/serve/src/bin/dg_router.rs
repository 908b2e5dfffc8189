//! The `dg-router` consistent-hash reverse-proxy binary.
//!
//! ```text
//! cargo run --release -p dg-serve --bin dg-router -- \
//!     --shard HOST:PORT --shard HOST:PORT [--addr HOST:PORT] [--reply-cache N]
//! ```
//!
//! Prints `listening on <addr>` once bound (the benchmark and the chaos
//! harness read that line), then routes until SIGTERM/SIGINT or `POST
//! /admin/drain`, and exits 0 after a clean drain; a usage error exits 2.
//! Each request is consistent-hashed on its content key across the
//! shards, so identical requests always hit the same shard's caches; dead
//! shards are ejected and their arcs fail over to the next shard
//! clockwise.

use dg_serve::event_loop::{stop_on_signals, stop_signalled};
use dg_serve::proxy::{RouterConfig, RouterServer};
use std::io::Write;
use std::time::Duration;

const USAGE: &str =
    "usage: dg-router --shard HOST:PORT [--shard HOST:PORT ...] [--addr HOST:PORT] [--reply-cache N]";

/// Parses the command line. `Err` holds the message to print above the
/// usage line (empty for `--help`).
fn parse_config(args: &[String]) -> Result<RouterConfig, String> {
    let mut config = RouterConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => config.addr = iter.next().ok_or("--addr requires HOST:PORT")?.clone(),
            "--shard" => {
                let shard = iter.next().and_then(|a| a.parse().ok());
                config
                    .shards
                    .push(shard.ok_or("--shard requires HOST:PORT")?);
            }
            // 0 is meaningful here: it disables the reply cache.
            "--reply-cache" => {
                let entries = iter.next().and_then(|v| v.parse().ok());
                config.reply_cache_entries =
                    entries.ok_or("--reply-cache requires a non-negative integer")?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if config.shards.is_empty() {
        return Err("at least one --shard is required".to_owned());
    }
    Ok(config)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_config(&args) {
        Ok(config) => config,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    stop_on_signals();
    let handle = match RouterServer::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", handle.local_addr());
    let _ = std::io::stdout().flush();

    while !stop_signalled() && !handle.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("stopping router...");
    let clean = handle.shutdown();
    std::process::exit(i32::from(!clean));
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHARD: [&str; 2] = ["--shard", "127.0.0.1:9"];

    fn parse(args: &[&str]) -> Result<RouterConfig, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse_config(&args)
    }

    #[test]
    fn kept_flags_parse() {
        let config = parse(&SHARD).expect("one shard");
        assert_eq!(config.shards, ["127.0.0.1:9".parse().expect("addr")]);
        assert_eq!(config.addr, RouterConfig::default().addr);
        assert_eq!(
            config.reply_cache_entries,
            RouterConfig::default().reply_cache_entries
        );
        let config = parse(&[
            "--shard",
            "127.0.0.1:9",
            "--shard",
            "127.0.0.1:10",
            "--addr",
            "127.0.0.1:0",
            "--reply-cache",
            "0",
        ])
        .expect("valid");
        assert_eq!(config.shards.len(), 2);
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.reply_cache_entries, 0, "0 disables the cache");
    }

    #[test]
    fn removed_flags_are_usage_errors() {
        for flag in ["--workers", "--queue", "--health-interval-ms"] {
            let err = parse(&[SHARD[0], SHARD[1], flag, "4"])
                .expect_err("a removed flag must be rejected");
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn malformed_values_and_missing_shards_are_usage_errors() {
        for flag in ["--addr", "--shard", "--reply-cache"] {
            let err = parse(&[SHARD[0], SHARD[1], flag]).expect_err("a missing value");
            assert!(err.contains(flag), "{flag}: {err}");
        }
        for (flag, value) in [
            ("--reply-cache", "abc"),
            ("--reply-cache", "-1"),
            ("--shard", "nowhere"),
        ] {
            let err = parse(&[SHARD[0], SHARD[1], flag, value]).expect_err("a bad value");
            assert!(err.contains(flag), "{flag} {value}: {err}");
        }
        let err = parse(&["--addr", "127.0.0.1:0"]).expect_err("no shard");
        assert!(err.contains("--shard"), "{err}");
        assert_eq!(parse(&["--help"]).err().as_deref(), Some(""));
    }
}
