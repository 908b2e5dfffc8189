//! The `dg-router` consistent-hash reverse-proxy binary.
//!
//! ```text
//! cargo run --release -p dg-serve --bin dg-router -- \
//!     --shard HOST:PORT --shard HOST:PORT [--addr HOST:PORT]
//!     [--workers N] [--replicas N] [--queue N] [--health-interval-ms N]
//! ```
//!
//! Prints `listening on <addr>` once bound (the load and chaos harnesses
//! read that line), then routes until SIGTERM/SIGINT or `POST
//! /admin/drain`, and exits 0 after a clean drain. Each request is
//! consistent-hashed on its content key across the shards, so identical
//! requests always hit the same shard's caches; dead shards are ejected
//! and their arcs fail over to the next shard clockwise.

use dg_serve::event_loop::{stop_on_signals, stop_signalled};
use dg_serve::proxy::{RouterConfig, RouterServer};
use std::io::Write;
use std::net::SocketAddr;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: dg-router --shard HOST:PORT [--shard HOST:PORT ...] \
         [--addr HOST:PORT] [--workers N] [--replicas N] [--queue N] \
         [--health-interval-ms N] [--reply-cache N]"
    );
    std::process::exit(2);
}

fn parse_config(args: &[String]) -> RouterConfig {
    let mut config = RouterConfig::default();
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
            "--shard" => match iter.next().and_then(|a| a.parse::<SocketAddr>().ok()) {
                Some(addr) => config.shards.push(addr),
                None => {
                    eprintln!("error: --shard requires HOST:PORT");
                    usage();
                }
            },
            "--workers" => config.workers = numeric("--workers"),
            "--replicas" => config.replicas = numeric("--replicas"),
            "--queue" => config.queue_depth = numeric("--queue"),
            "--health-interval-ms" => {
                config.health_interval_ms = numeric("--health-interval-ms") as u64;
            }
            // 0 is meaningful here (cache disabled), so this flag does not
            // use the positive-only `numeric` helper.
            "--reply-cache" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.reply_cache_entries = n,
                None => {
                    eprintln!("error: --reply-cache requires a non-negative integer");
                    usage();
                }
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag {other:?}");
                usage();
            }
        }
    }
    if config.shards.is_empty() {
        eprintln!("error: at least one --shard is required");
        usage();
    }
    config
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = parse_config(&args);

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
