//! The `dg-analyze` command-line interface.
//!
//! ```text
//! dg-analyze [--root DIR] [--list-rules]
//! ```
//!
//! Runs every rule. Exits 0 on a clean tree, 1 when any rule has a
//! violation, and 2 on a usage or I/O error. The printed summary names
//! each failing rule.

use dg_analyze::rules::RuleId;
use dg_analyze::{analyze_workspace, Report};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--list-rules" => {
                for rule in RuleId::ALL {
                    println!("{:<26} {}", rule.name(), rule.description());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "dg-analyze: DarkGates workspace lint engine\n\n\
                     USAGE: dg-analyze [--root DIR] [--list-rules]\n\n\
                     Runs every rule. Exits 0 on a clean tree, 1 on any violation, 2 on\n\
                     a usage or I/O error."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let root = root.unwrap_or_else(find_workspace_root);
    let report = match analyze_workspace(&root, &RuleId::ALL) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("dg-analyze: cannot analyze {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    for violation in &report.violations {
        println!("{violation}\n");
    }
    print_summary(&report);

    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Per-rule counts plus a one-line verdict.
fn print_summary(report: &Report) {
    println!(
        "dg-analyze: {} files, {} manifests scanned; {} allow-comment(s) in use",
        report.files_scanned, report.manifests_checked, report.allows_used
    );
    for rule in RuleId::ALL {
        let n = report.count(rule);
        if n > 0 {
            println!("  {:<22} {} violation(s)", rule.name(), n);
        }
    }
    if report.violations.is_empty() {
        println!("  clean: every rule passed");
    }
}

/// Walks up from the current directory to the first `Cargo.toml` declaring
/// a `[workspace]`.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("dg-analyze: {err}\nUSAGE: dg-analyze [--root DIR] [--list-rules]");
    ExitCode::from(2)
}
