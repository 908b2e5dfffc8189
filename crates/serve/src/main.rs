//! The `dg-serve` daemon binary.
//!
//! ```text
//! cargo run --release -p dg-serve --bin dg-serve -- [--addr HOST:PORT]
//!     [--cache-dir PATH]
//! ```
//!
//! Prints `listening on <addr>` once bound (the benchmark and `dg-chaos
//! --shards` read that line), then serves until SIGTERM/SIGINT or a
//! `POST /admin/drain`, at which point it drains gracefully: stops
//! admitting, finishes every admitted request, reports, and exits 0 only
//! if the drain was clean. A usage error exits 2.

use dg_serve::event_loop::{stop_on_signals, stop_signalled};
use dg_serve::{Server, ServerConfig};
use std::io::Write;
use std::time::Duration;

const USAGE: &str = "usage: dg-serve [--addr HOST:PORT] [--cache-dir PATH]";

/// Parses the command line. `Err` holds the message to print above the
/// usage line (empty for `--help`).
fn parse_config(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => config.addr = iter.next().ok_or("--addr requires HOST:PORT")?.clone(),
            "--cache-dir" => {
                let dir = iter.next().ok_or("--cache-dir requires a path")?;
                config.cache_dir = Some(dir.into());
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
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

    // An invalid thread-count environment variable is a configuration
    // mistake worth a visible warning, not a silent fallback.
    if let Some(issue) = dg_engine::thread_env_issues() {
        eprintln!("warning: {issue} to auto-detected thread count");
    }

    stop_on_signals();
    let handle = match Server::start(config) {
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

    eprintln!("draining...");
    let report = handle.shutdown();
    eprintln!(
        "drained: {} request(s) served, clean={}",
        report.requests_served, report.clean
    );
    std::process::exit(i32::from(!report.clean));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServerConfig, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse_config(&args)
    }

    #[test]
    fn kept_flags_parse() {
        let config = parse(&[]).expect("no flags");
        assert_eq!(config.addr, ServerConfig::default().addr);
        assert!(config.cache_dir.is_none());
        let config = parse(&["--addr", "127.0.0.1:9", "--cache-dir", "/tmp/dg"]).expect("valid");
        assert_eq!(config.addr, "127.0.0.1:9");
        assert_eq!(config.cache_dir, Some("/tmp/dg".into()));
    }

    #[test]
    fn removed_flags_are_usage_errors() {
        for args in [
            &["--workers", "4"][..],
            &["--queue", "4"],
            &["--read-timeout-ms", "500"],
            &["--debug-routes"],
        ] {
            let err = parse(args).expect_err("a removed flag must be rejected");
            assert!(err.contains("unknown flag"), "{args:?}: {err}");
        }
    }

    #[test]
    fn a_flag_without_its_value_is_a_usage_error() {
        for flag in ["--addr", "--cache-dir"] {
            let err = parse(&[flag]).expect_err("a missing value must be rejected");
            assert!(err.contains(flag), "{flag}: {err}");
        }
        assert_eq!(parse(&["--help"]).err().as_deref(), Some(""));
    }
}
