//! The `dg-serve` daemon binary.
//!
//! ```text
//! cargo run --release -p dg-serve --bin dg-serve -- [--addr HOST:PORT]
//!     [--workers N] [--queue N] [--read-timeout-ms N] [--debug-routes]
//!     [--cache-dir PATH]
//! ```
//!
//! Prints `listening on <addr>` once bound (the `dg-load --spawn` harness
//! reads that line), then serves until SIGTERM/SIGINT or a
//! `POST /admin/drain`, at which point it drains gracefully: stops
//! admitting, finishes every admitted request, reports, and exits 0 only
//! if the drain was clean.

use dg_serve::event_loop::{stop_on_signals, stop_signalled};
use dg_serve::{Server, ServerConfig};
use std::io::Write;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: dg-serve [--addr HOST:PORT] [--workers N] [--queue N] \
         [--read-timeout-ms N] [--debug-routes] [--cache-dir PATH]"
    );
    std::process::exit(2);
}

fn parse_config(args: &[String]) -> ServerConfig {
    let mut config = ServerConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut numeric = |what: &str| -> usize {
            match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => n,
                _ => {
                    eprintln!("error: {what} requires a positive integer");
                    usage();
                }
            }
        };
        match arg.as_str() {
            "--addr" => match iter.next() {
                Some(a) => config.addr = a.clone(),
                None => usage(),
            },
            "--workers" => config.workers = numeric("--workers"),
            "--queue" => config.queue_depth = numeric("--queue"),
            "--read-timeout-ms" => config.read_timeout_ms = numeric("--read-timeout-ms") as u64,
            "--debug-routes" => config.enable_debug_routes = true,
            "--cache-dir" => match iter.next() {
                Some(dir) => config.cache_dir = Some(std::path::PathBuf::from(dir)),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag {other:?}");
                usage();
            }
        }
    }
    config
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = parse_config(&args);

    // Invalid thread-count environment variables are a configuration
    // mistake worth a visible warning, not a silent fallback.
    for issue in dg_engine::thread_env_issues() {
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
