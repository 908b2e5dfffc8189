//! The `dg-explore` CLI: run a design-space sweep from a spec file.
//!
//! ```text
//! cargo run --release -p dg-explore -- --spec FILE [--json OUT]
//!     [--threads N] [--quiet]
//! ```
//!
//! Reads the JSON spec, expands and evaluates the grid, and writes the
//! result document (one JSON object + newline) to `--json OUT` or
//! stdout. Progress records go to stderr after every batch unless
//! `--quiet`. The rendered result object is byte-identical to the
//! `"result"` field of the final `POST /v1/explore` stream line for the
//! same spec — the differential tests pin that contract.
//!
//! Exit codes: 0 success, 1 spec/grid/IO error, 2 usage.

use dg_explore::{run_with_progress, ExploreSpec};
use std::io::Write;

fn usage() -> ! {
    eprintln!("usage: dg-explore --spec FILE [--json OUT] [--threads N] [--quiet]");
    std::process::exit(2);
}

struct Options {
    spec_path: String,
    json_out: Option<String>,
    threads: Option<usize>,
    quiet: bool,
}

fn parse_options(args: &[String]) -> Options {
    let mut options = Options {
        spec_path: String::new(),
        json_out: None,
        threads: None,
        quiet: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--spec" => match iter.next() {
                Some(p) => options.spec_path = p.clone(),
                None => usage(),
            },
            "--json" => match iter.next() {
                Some(p) => options.json_out = Some(p.clone()),
                None => usage(),
            },
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => options.threads = Some(n),
                _ => {
                    eprintln!("error: --threads requires a positive integer");
                    usage();
                }
            },
            "--quiet" => options.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag {other:?}");
                usage();
            }
        }
    }
    if options.spec_path.is_empty() {
        eprintln!("error: --spec FILE is required");
        usage();
    }
    options
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_options(&args);

    // An invalid thread-count environment variable is a configuration
    // mistake worth a visible warning, not a silent fallback — the same
    // contract as dg-serve and the bench binaries.
    if let Some(issue) = dg_engine::thread_env_issues() {
        eprintln!("warning: {issue} to auto-detected thread count");
    }
    let _guard = options.threads.map(dg_engine::set_thread_override);

    let text = match std::fs::read_to_string(&options.spec_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", options.spec_path);
            std::process::exit(1);
        }
    };
    let spec = match ExploreSpec::from_text(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if !options.quiet {
        eprintln!(
            "sweep \"{}\": {} points across {} nodes, seed {}, {} threads",
            spec.name,
            spec.point_count(),
            spec.tech_nodes.len(),
            spec.seed,
            dg_engine::num_threads(),
        );
    }

    let quiet = options.quiet;
    let result = match run_with_progress(&spec, |p| {
        if !quiet {
            eprintln!(
                "progress: {}/{} evaluated, frontier {}",
                p.completed, p.total, p.frontier
            );
        }
    }) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let mut rendered = result.to_json().render();
    rendered.push('\n');
    match &options.json_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered.as_bytes()) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
            if !quiet {
                eprintln!(
                    "wrote {} frontier point(s) of {} feasible to {path}",
                    result.frontier.len(),
                    result.feasible_points
                );
            }
        }
        None => {
            let mut stdout = std::io::stdout();
            if stdout.write_all(rendered.as_bytes()).is_err() {
                std::process::exit(1);
            }
            let _ = stdout.flush();
        }
    }
}
