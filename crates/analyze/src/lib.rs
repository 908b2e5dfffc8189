//! `dg-analyze` — the DarkGates workspace lint engine.
//!
//! The reproduction's results hinge on substrate code being silently
//! correct: a raw `f64` where `Volts` was meant corrupts guardband math, a
//! stray `unwrap()` in a worker task kills a whole `dg-engine` fan-out
//! without a diagnosis, and a `HashMap` iteration feeding a result table
//! breaks the bit-identical parallel guarantee. This crate walks the
//! workspace source tree with a small comment/string-aware lexer
//! ([`lexer`]) and runs a registry of project-specific rules ([`rules`]):
//!
//! * `no-panic-in-lib` — no `unwrap`/`expect`/`panic!`/`unreachable!`/
//!   literal indexing in library code of the simulation crates.
//! * `unit-hygiene` — public fns in `dg-pdn`/`dg-power`/`dg-pmu` take unit
//!   newtypes, not raw `f64`, for physical quantities.
//! * `determinism-hygiene` — no wall-clock reads, ad-hoc threads, or
//!   `HashMap` iteration on result paths.
//! * `doc-coverage` — every public item is documented.
//! * `dep-hygiene` — only vendored path/workspace dependencies.
//!
//! On top of the per-file rules, a flow pass ([`flow`], fed by the
//! item/scope parser in [`scope`]) reasons across functions and crates:
//!
//! * `lock-order` — the workspace-wide tracked-lock acquisition graph must
//!   be acyclic; `--witness FILE` additionally cross-checks runtime
//!   acquisition orders recorded by `dg-engine`'s `lock-witness` feature
//!   against it ([`witness`]).
//! * `guard-across-blocking` — no live guard spans a blocking call in
//!   `dg-serve`/`dg-pdn`.
//! * `no-blocking-in-event-loop` — nothing reachable from an epoll pump in
//!   `dg-serve` may block.
//! * `swallowed-result` — `let _ =` never discards a workspace `Result` in
//!   the no-panic crates.
//! * `unreached-mod` — every `pub mod` in a crate's `lib.rs` is named by a
//!   binary, an example or other library code ([`reach`]).
//! * `unreached-pub` — every `pub` library item is named by another file
//!   ([`reach`]); once it is private, rustc's `dead_code` lint decides
//!   whether anything needs it.
//!
//! Violations can be suppressed, with a mandatory reason, via
//! `// dg-analyze: allow(rule, reason = "…")` ([`allow`]); stale or
//! reason-less suppressions are themselves violations, so the tree stays
//! honest. Run it three ways: `cargo run -p dg-analyze`, the tier-1
//! `#[test]` harness (`tests/workspace_clean.rs`), or the CI step.

pub mod allow;
pub mod flow;
pub mod lexer;
pub mod manifest;
pub mod reach;
pub mod rules;
pub mod scope;
pub mod witness;

use crate::allow::{collect_allows, Allow, BadAllow};
use crate::rules::{Finding, RuleId};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose library code must be panic-free.
const NO_PANIC_CRATES: [&str; 10] = [
    "dg-pdn",
    "dg-pmu",
    "dg-power",
    "dg-cstates",
    "dg-soc",
    "dg-engine",
    "dg-workloads",
    // The daemon: a handler bug must become a 500 + metrics increment,
    // never a dead worker thread.
    "dg-serve",
    // The chaos harness: a panic in the fault driver or oracle would be
    // indistinguishable from the server failure it is hunting.
    "dg-chaos",
    // The design-space engine: a panic mid-sweep would abort a streamed
    // `/v1/explore` response instead of ending it with an error line.
    "dg-explore",
];

/// Crates whose public API seams must use unit newtypes.
const UNIT_CRATES: [&str; 3] = ["dg-pdn", "dg-power", "dg-pmu"];

/// Crates on the experiment result path (deterministic by contract).
const DETERMINISM_CRATES: [&str; 10] = [
    "dg-pdn",
    "dg-pmu",
    "dg-power",
    "dg-cstates",
    "dg-soc",
    "dg-engine",
    "dg-workloads",
    "darkgates",
    "dg-bench",
    // Frontier results are replayed byte-identically from caches and the
    // CLI; wall-clock or entropy anywhere in the sweep would break that.
    "dg-explore",
];

/// A rule violation bound to a file.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: RuleId,
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// 1-indexed source line.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// How to fix it.
    pub help: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule.name(),
            self.message
        )?;
        if !self.snippet.is_empty() {
            writeln!(f, "    | {}", self.snippet)?;
        }
        write!(f, "    = help: {}", self.help)
    }
}

/// The outcome of analysing a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations that survived allow-comment filtering, in
    /// (rule, path, line) order.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `Cargo.toml` manifests checked.
    pub manifests_checked: usize,
    /// Number of allow-comments that suppressed at least one finding.
    pub allows_used: usize,
}

impl Report {
    /// Violation count for one rule.
    pub fn count(&self, rule: RuleId) -> usize {
        self.violations.iter().filter(|v| v.rule == rule).count()
    }
}

/// How a source file participates in the crate: real library code, a
/// binary target, or auxiliary (tests/examples/benches, skipped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    Lib,
    Bin,
    Aux,
}

/// One loaded source file, carried between the per-file and flow phases.
struct FileData {
    crate_name: String,
    rel: PathBuf,
    kind: FileKind,
    src: String,
    lexed: lexer::Lexed,
    allows: Vec<Allow>,
    bad_allows: Vec<BadAllow>,
    findings: Vec<Finding>,
}

/// Analyses the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`) with the `enabled` rules, optionally
/// cross-checking a runtime lock-order witness file (see [`witness`])
/// against the static graph. [`RuleId::AllowSyntax`] is always implied:
/// suppression hygiene cannot be opted out of.
///
/// The engine runs in two phases: a per-file pass (local rules, allow
/// collection), then the workspace-wide flow pass whose findings are
/// attributed back to their files and filtered through the same
/// allow-comments.
pub fn analyze_workspace_witness(
    root: &Path,
    enabled: &[RuleId],
    witness_path: Option<&Path>,
) -> io::Result<Report> {
    let mut report = Report::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    // Phase 1: load + lex every source file and run the per-file rules.
    let mut data: Vec<FileData> = Vec::new();
    for crate_dir in &crate_dirs {
        let crate_name = crate_package_name(crate_dir)?;
        let mut files = Vec::new();
        collect_rs_files(&crate_dir.join("src"), &mut files)?;
        files.sort();
        for file in files {
            let kind = classify(crate_dir, &file);
            if kind == FileKind::Aux {
                continue;
            }
            data.push(load_file(root, &crate_name, &file, kind, enabled)?);
            report.files_scanned += 1;
        }
    }

    // Phase 2: workspace-wide flow rules.
    let flow_inputs: Vec<flow::FileFlow> = data
        .iter()
        .map(|d| flow::FileFlow {
            crate_name: d.crate_name.clone(),
            rel: d.rel.display().to_string(),
            is_lib: d.kind == FileKind::Lib,
            lexed: &d.lexed,
            src: &d.src,
            allows: d
                .allows
                .iter()
                .enumerate()
                .filter_map(|(i, a)| {
                    RuleId::parse(&a.rule).map(|rule| flow::FlowAllow {
                        index: i,
                        rule,
                        target_line: a.target_line,
                    })
                })
                .collect(),
        })
        .collect();
    let flow_report = flow::analyze_flow(&flow_inputs, enabled);
    drop(flow_inputs);
    for (file_idx, finding) in flow_report.findings {
        data[file_idx].findings.push(finding);
    }

    // Phase 2b: modules and items nothing outside them names. Examples
    // and the benchmark's sources count as references, so they are lexed
    // here, for these rules only.
    if enabled.contains(&RuleId::UnreachedMod) || enabled.contains(&RuleId::UnreachedPub) {
        let mut extra_paths = Vec::new();
        for dir in std::iter::once(root).chain(crate_dirs.iter().map(PathBuf::as_path)) {
            collect_rs_files(&dir.join("examples"), &mut extra_paths)?;
        }
        collect_rs_files(&root.join("benchmark").join("src"), &mut extra_paths)?;
        extra_paths.sort();
        let mut extras = Vec::new();
        for path in extra_paths {
            let lexed = lexer::lex(&fs::read_to_string(&path)?);
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            extras.push((rel, lexed));
        }
        let files: Vec<reach::ReachFile<'_>> = data
            .iter()
            .map(|d| reach::ReachFile {
                rel: &d.rel,
                lexed: &d.lexed,
                lib: d.kind == FileKind::Lib,
            })
            .chain(extras.iter().map(|(rel, lexed)| reach::ReachFile {
                rel,
                lexed,
                lib: false,
            }))
            .collect();
        for (file_idx, finding) in reach::unreached(&files, enabled) {
            if let Some(d) = data.get_mut(file_idx) {
                d.findings.push(finding);
            }
        }
    }

    // Phase 3: cross-check the runtime witness against the static graph.
    if let Some(path) = witness_path {
        let text = fs::read_to_string(path)?;
        let lines: Vec<&str> = text.lines().collect();
        let findings = match witness::parse_witness(&text) {
            Ok(w) => witness::check_witness(&w, &flow_report.graph),
            Err((line, error)) => vec![Finding {
                rule: RuleId::LockOrder,
                line,
                message: format!("malformed witness file: {error}"),
                help: "regenerate the witness (dg-chaos --smoke --witness FILE, built with \
                       --features dg-engine/lock-witness)"
                    .into(),
            }],
        };
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        for f in findings {
            report.violations.push(Violation {
                rule: f.rule,
                path: rel.clone(),
                line: f.line,
                message: f.message,
                snippet: snippet_of(&lines, f.line),
                help: f.help,
            });
        }
    }

    // Phase 4: allow-comment filtering and suppression hygiene per file.
    for (file_idx, d) in data.into_iter().enumerate() {
        let pre_consumed: Vec<usize> = flow_report
            .consumed
            .iter()
            .filter(|(f, _)| *f == file_idx)
            .map(|(_, a)| *a)
            .collect();
        filter_file(d, enabled, &pre_consumed, &mut report);
    }

    if enabled.contains(&RuleId::DepHygiene) {
        let mut manifests = vec![root.join("Cargo.toml")];
        for dir in [&crates_dir, &root.join("vendor")] {
            if let Ok(entries) = fs::read_dir(dir) {
                for entry in entries.filter_map(|e| e.ok()) {
                    let m = entry.path().join("Cargo.toml");
                    if m.is_file() {
                        manifests.push(m);
                    }
                }
            }
        }
        manifests.sort();
        for manifest in manifests {
            let text = fs::read_to_string(&manifest)?;
            let rel = manifest
                .strip_prefix(root)
                .unwrap_or(&manifest)
                .to_path_buf();
            let lines: Vec<&str> = text.lines().collect();
            for finding in manifest::check_manifest(&text) {
                report.violations.push(Violation {
                    rule: finding.rule,
                    path: rel.clone(),
                    line: finding.line,
                    message: finding.message,
                    snippet: snippet_of(&lines, finding.line),
                    help: finding.help,
                });
            }
            report.manifests_checked += 1;
        }
    }

    report
        .violations
        .sort_by(|a, b| (a.rule, &a.path, a.line).cmp(&(b.rule, &b.path, b.line)));
    Ok(report)
}

/// Loads one source file and runs the per-file rules over it.
fn load_file(
    root: &Path,
    crate_name: &str,
    file: &Path,
    kind: FileKind,
    enabled: &[RuleId],
) -> io::Result<FileData> {
    let src = fs::read_to_string(file)?;
    let lexed = lexer::lex(&src);
    let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();

    let is_lib = kind == FileKind::Lib;
    let mut findings: Vec<Finding> = Vec::new();

    if is_lib && enabled.contains(&RuleId::NoPanicInLib) && NO_PANIC_CRATES.contains(&crate_name) {
        findings.extend(rules::no_panic_in_lib(&lexed));
    }
    if is_lib && enabled.contains(&RuleId::UnitHygiene) && UNIT_CRATES.contains(&crate_name) {
        findings.extend(rules::unit_hygiene(&lexed));
    }
    if enabled.contains(&RuleId::DeterminismHygiene) && DETERMINISM_CRATES.contains(&crate_name) {
        findings.extend(rules::determinism_hygiene(
            &lexed,
            crate_name == "dg-engine",
        ));
    }
    if is_lib && enabled.contains(&RuleId::DocCoverage) && crate_name != "dg-bench" {
        let (doc_findings, mod_decls) = rules::doc_coverage(&lexed, &src);
        findings.extend(doc_findings);
        for decl in mod_decls {
            if !child_module_has_inner_docs(file, &decl.name) {
                findings.push(Finding {
                    rule: RuleId::DocCoverage,
                    line: decl.line,
                    message: format!(
                        "public mod `{}` has no docs (neither `///` here nor `//!` \
                         in the module file)",
                        decl.name
                    ),
                    help: "add a `//!` header to the module file or `///` above the \
                           declaration"
                        .into(),
                });
            }
        }
    }

    let (allows, bad_allows) = collect_allows(&lexed);
    Ok(FileData {
        crate_name: crate_name.to_string(),
        rel,
        kind,
        src,
        lexed,
        allows,
        bad_allows,
        findings,
    })
}

/// Applies allow-comment filtering and suppression hygiene to one file's
/// accumulated findings (per-file and flow), folding survivors into the
/// report. `pre_consumed` lists allow indices already consumed by the flow
/// pass's edge pruning.
fn filter_file(d: FileData, enabled: &[RuleId], pre_consumed: &[usize], report: &mut Report) {
    let FileData {
        crate_name,
        rel,
        kind,
        src,
        lexed: _,
        allows,
        bad_allows,
        findings,
    } = d;
    let is_lib = kind == FileKind::Lib;
    let lines: Vec<&str> = src.lines().collect();
    let mut allow_used = vec![false; allows.len()];
    for &i in pre_consumed {
        if let Some(slot) = allow_used.get_mut(i) {
            *slot = true;
        }
    }
    for finding in findings {
        let mut suppressed = false;
        for (i, a) in allows.iter().enumerate() {
            if a.rule == finding.rule.name()
                && (a.target_line.is_none() || a.target_line == Some(finding.line))
            {
                allow_used[i] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            report.violations.push(Violation {
                rule: finding.rule,
                path: rel.clone(),
                line: finding.line,
                message: finding.message,
                snippet: snippet_of(&lines, finding.line),
                help: finding.help,
            });
        }
    }

    // Suppression hygiene (always on).
    for bad in bad_allows {
        report.violations.push(Violation {
            rule: RuleId::AllowSyntax,
            path: rel.clone(),
            line: bad.line,
            message: format!("malformed dg-analyze directive: {}", bad.error),
            snippet: snippet_of(&lines, bad.line),
            help: "write `// dg-analyze: allow(rule-id, reason = \"why\")`".into(),
        });
    }
    for (i, a) in allows.iter().enumerate() {
        if RuleId::parse(&a.rule).is_none() {
            report.violations.push(Violation {
                rule: RuleId::AllowSyntax,
                path: rel.clone(),
                line: a.comment_line,
                message: format!("allow names unknown rule `{}`", a.rule),
                snippet: snippet_of(&lines, a.comment_line),
                help: format!("known rules: {}", RuleId::ALL.map(RuleId::name).join(", ")),
            });
        } else if allow_used[i] {
            report.allows_used += 1;
        } else if enabled.contains(&RuleId::parse(&a.rule).unwrap_or(RuleId::AllowSyntax)) {
            // Only police staleness when the named rule actually ran, so a
            // `--rule` filtered invocation doesn't misreport live allows.
            let name = crate_name.as_str();
            let in_scope = match RuleId::parse(&a.rule) {
                Some(RuleId::NoPanicInLib) => is_lib && NO_PANIC_CRATES.contains(&name),
                Some(RuleId::UnitHygiene) => is_lib && UNIT_CRATES.contains(&name),
                Some(RuleId::DeterminismHygiene) => DETERMINISM_CRATES.contains(&name),
                Some(RuleId::DocCoverage) => is_lib,
                Some(RuleId::LockOrder) => true,
                Some(RuleId::GuardAcrossBlocking) => flow::GUARD_BLOCKING_CRATES.contains(&name),
                Some(RuleId::NoBlockingInEventLoop) => name == flow::EVENT_LOOP_CRATE,
                Some(RuleId::SwallowedResult) => is_lib && NO_PANIC_CRATES.contains(&name),
                Some(RuleId::UnreachedMod) => rel.ends_with("src/lib.rs"),
                Some(RuleId::UnreachedPub) => is_lib,
                _ => false,
            };
            if in_scope {
                report.violations.push(Violation {
                    rule: RuleId::AllowSyntax,
                    path: rel.clone(),
                    line: a.comment_line,
                    message: format!(
                        "allow({}) suppresses nothing — the code it excused is gone",
                        a.rule
                    ),
                    snippet: snippet_of(&lines, a.comment_line),
                    help: "delete the stale allow-comment".into(),
                });
            }
        }
    }
}

/// `true` when `name.rs` / `name/mod.rs` next to `parent_file` starts with
/// an inner doc comment (`//!`), which documents the `pub mod` declaration.
fn child_module_has_inner_docs(parent_file: &Path, name: &str) -> bool {
    let dir = match parent_file.parent() {
        Some(d) => d,
        None => return false,
    };
    for candidate in [
        dir.join(format!("{name}.rs")),
        dir.join(name).join("mod.rs"),
    ] {
        if let Ok(text) = fs::read_to_string(&candidate) {
            for line in text.lines() {
                let t = line.trim();
                if t.is_empty() || t.starts_with("#!") {
                    continue;
                }
                return t.starts_with("//!");
            }
        }
    }
    false
}

fn snippet_of(lines: &[&str], line: usize) -> String {
    lines
        .get(line.saturating_sub(1))
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// Reads the `name = "…"` of a crate's `Cargo.toml`.
fn crate_package_name(crate_dir: &Path) -> io::Result<String> {
    let text = fs::read_to_string(crate_dir.join("Cargo.toml"))?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            if let Some(value) = rest.trim_start().strip_prefix('=') {
                return Ok(value.trim().trim_matches('"').to_string());
            }
        }
    }
    Ok(crate_dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default())
}

/// Recursively collects `.rs` files under `dir` (sorted by the caller).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(()), // crate without src/ (or bin-only layout)
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Classifies a source file within its crate directory.
fn classify(crate_dir: &Path, file: &Path) -> FileKind {
    let rel = file.strip_prefix(crate_dir).unwrap_or(file);
    let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
    match parts.next().as_deref() {
        Some("src") => match parts.next().as_deref() {
            Some("bin") => FileKind::Bin,
            Some("main.rs") => FileKind::Bin,
            _ => FileKind::Lib,
        },
        _ => FileKind::Aux,
    }
}
