//! Negative-path regressions for the flow rules and the witness
//! cross-check. The real workspace is clean (`workspace_clean.rs`), so
//! each test seeds a scratch mini-workspace with one deliberate violation
//! and asserts (a) the rule fires with its own exit bit and (b) an
//! explained `allow(...)` suppresses it — proving both the detection and
//! the escape hatch.

use std::fs;
use std::path::{Path, PathBuf};

use dg_analyze::analyze_workspace_witness;
use dg_analyze::rules::RuleId;

/// Builds `<tmp>/dg-analyze-flow-<pid>-<tag>` with one crate `dir` named
/// `name` whose `src/lib.rs` is `lib_src`, returning the workspace root.
fn seed_workspace(tag: &str, dir: &str, name: &str, lib_src: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dg-analyze-flow-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let member = root.join("crates").join(dir);
    fs::create_dir_all(member.join("src")).expect("create member dir");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n",
    )
    .expect("write root manifest");
    fs::write(
        member.join("Cargo.toml"),
        format!("[package]\nname = \"{name}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n"),
    )
    .expect("write crate manifest");
    fs::write(member.join("src").join("lib.rs"), lib_src).expect("write seeded lib");
    root
}

fn scan(root: &Path) -> dg_analyze::Report {
    let report =
        analyze_workspace_witness(root, &RuleId::ALL, None).expect("scan scratch workspace");
    fs::remove_dir_all(root).expect("clean up scratch workspace");
    report
}

const LOCK_ORDER_CYCLE: &str = concat!(
    "//! Seeded fixture: opposite lock nesting orders.\n",
    "fn setup() {\n",
    "    let alpha = TrackedMutex::new(\"seed.alpha\", 0usize);\n",
    "    let beta = TrackedMutex::new(\"seed.beta\", 0usize);\n",
    "}\n",
    "fn ab() {\n",
    "    let g = alpha.lock();\n",
    "    beta.lock().clone();\n",
    "}\n",
    "fn ba() {\n",
    "    let g = beta.lock();\n",
    "    alpha.lock().clone();\n",
    "}\n",
);

#[test]
fn lock_order_fires_on_opposite_nesting_orders() {
    let root = seed_workspace("cycle", "pdn", "dg-pdn", LOCK_ORDER_CYCLE);
    let report = scan(&root);
    assert_eq!(
        report.count(RuleId::LockOrder),
        2,
        "both edges of the 2-cycle must report: {:?}",
        report.violations
    );
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == RuleId::LockOrder)
        .expect("seeded violation present");
    assert!(v.message.contains("cycle"), "{v}");
}

#[test]
fn lock_order_allow_sanctions_the_edge_and_is_counted_used() {
    let src = LOCK_ORDER_CYCLE.replace(
        "    alpha.lock().clone();\n",
        concat!(
            "    // dg-analyze: allow(lock-order, reason = \"seeded: vetted inversion\")\n",
            "    alpha.lock().clone();\n",
        ),
    );
    assert_ne!(src, LOCK_ORDER_CYCLE, "replacement must hit");
    let root = seed_workspace("cycle-allow", "pdn", "dg-pdn", &src);
    let report = scan(&root);
    assert_eq!(
        report.count(RuleId::LockOrder),
        0,
        "sanctioning one edge breaks the cycle: {:?}",
        report.violations
    );
    assert!(report.allows_used >= 1, "the allow must count as used");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

const GUARD_ACROSS_BLOCKING: &str = concat!(
    "//! Seeded fixture: file I/O under a live guard.\n",
    "fn setup() {\n",
    "    let cache = TrackedMutex::new(\"seed.cache\", 0usize);\n",
    "}\n",
    "fn bad(p: &std::path::Path) {\n",
    "    let g = cache.lock();\n",
    "    let _data = std::fs::read(p);\n",
    "}\n",
);

#[test]
fn guard_across_blocking_fires_on_io_under_guard() {
    let root = seed_workspace("guard", "pdn", "dg-pdn", GUARD_ACROSS_BLOCKING);
    let report = scan(&root);
    assert_eq!(
        report.count(RuleId::GuardAcrossBlocking),
        1,
        "{:?}",
        report.violations
    );
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == RuleId::GuardAcrossBlocking)
        .expect("seeded violation present");
    assert_eq!(v.path, PathBuf::from("crates/pdn/src/lib.rs"));
    assert_eq!(v.line, 7, "the fs::read sits on line 7 of the fixture");
    assert!(v.message.contains("seed.cache"), "{v}");
}

#[test]
fn guard_across_blocking_allow_suppresses() {
    let src = GUARD_ACROSS_BLOCKING.replace(
        "    let _data = std::fs::read(p);\n",
        concat!(
            "    // dg-analyze: allow(guard-across-blocking, reason = \"seeded: cold path\")\n",
            "    let _data = std::fs::read(p);\n",
        ),
    );
    assert_ne!(src, GUARD_ACROSS_BLOCKING, "replacement must hit");
    let root = seed_workspace("guard-allow", "pdn", "dg-pdn", &src);
    let report = scan(&root);
    assert_eq!(report.count(RuleId::GuardAcrossBlocking), 0);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

const EVENT_LOOP_BLOCKING: &str = concat!(
    "//! Seeded fixture: a sleep reachable from the epoll pump.\n",
    "fn run() {\n",
    "    let n = poller.wait(events);\n",
    "    dispatch();\n",
    "}\n",
    "fn dispatch() {\n",
    "    slow();\n",
    "}\n",
    "fn slow() {\n",
    "    std::thread::sleep(d);\n",
    "}\n",
);

#[test]
fn no_blocking_in_event_loop_fires_on_reachable_sleep() {
    let root = seed_workspace("loop", "serve", "dg-serve", EVENT_LOOP_BLOCKING);
    let report = scan(&root);
    assert_eq!(
        report.count(RuleId::NoBlockingInEventLoop),
        1,
        "{:?}",
        report.violations
    );
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == RuleId::NoBlockingInEventLoop)
        .expect("seeded violation present");
    assert!(
        v.message.contains("run → dispatch → slow"),
        "the dispatch path must be named: {v}"
    );
}

#[test]
fn no_blocking_in_event_loop_allow_prunes_the_dispatch_edge() {
    let src = EVENT_LOOP_BLOCKING.replace(
        "    dispatch();\n",
        concat!(
            "    // dg-analyze: allow(no-blocking-in-event-loop, reason = \"seeded: vetted dispatch\")\n",
            "    dispatch();\n",
        ),
    );
    assert_ne!(src, EVENT_LOOP_BLOCKING, "replacement must hit");
    let root = seed_workspace("loop-allow", "serve", "dg-serve", &src);
    let report = scan(&root);
    assert_eq!(
        report.count(RuleId::NoBlockingInEventLoop),
        0,
        "an allow on the dispatch edge vouches for everything beyond it: {:?}",
        report.violations
    );
    assert!(
        report.allows_used >= 1,
        "the pruning allow must count as used"
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

const SWALLOWED_RESULT: &str = concat!(
    "//! Seeded fixture: a workspace Result discarded by `let _ =`.\n",
    "fn save() -> Result<(), String> {\n",
    "    Ok(())\n",
    "}\n",
    "fn go() {\n",
    "    let _ = save();\n",
    "    let _ = std::fs::remove_file(\"x\");\n",
    "}\n",
);

#[test]
fn swallowed_result_fires_on_workspace_fns_only() {
    let root = seed_workspace("swallow", "engine", "dg-engine", SWALLOWED_RESULT);
    let report = scan(&root);
    assert_eq!(
        report.count(RuleId::SwallowedResult),
        1,
        "only the workspace fn discard fires, not the std one: {:?}",
        report.violations
    );
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == RuleId::SwallowedResult)
        .expect("seeded violation present");
    assert!(v.message.contains("save"), "{v}");
    assert_eq!(v.line, 6);
}

#[test]
fn swallowed_result_allow_suppresses() {
    let src = SWALLOWED_RESULT.replace(
        "    let _ = save();\n",
        concat!(
            "    // dg-analyze: allow(swallowed-result, reason = \"seeded: best effort\")\n",
            "    let _ = save();\n",
        ),
    );
    assert_ne!(src, SWALLOWED_RESULT, "replacement must hit");
    let root = seed_workspace("swallow-allow", "engine", "dg-engine", &src);
    let report = scan(&root);
    assert_eq!(report.count(RuleId::SwallowedResult), 0);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

/// A clean fixture with one consistent nesting (static edge alpha → beta),
/// for the witness tests.
const CONSISTENT_ORDER: &str = concat!(
    "//! Seeded fixture: one consistent nesting order.\n",
    "fn setup() {\n",
    "    let alpha = TrackedMutex::new(\"seed.alpha\", 0usize);\n",
    "    let beta = TrackedMutex::new(\"seed.beta\", 0usize);\n",
    "}\n",
    "fn ab() {\n",
    "    let g = alpha.lock();\n",
    "    beta.lock().clone();\n",
    "}\n",
);

#[test]
fn witness_matching_the_static_graph_passes() {
    let root = seed_workspace("witness-ok", "pdn", "dg-pdn", CONSISTENT_ORDER);
    let witness = root.join("witness.txt");
    fs::write(
        &witness,
        "# dg-lock-witness v1\nclass seed.alpha\nclass seed.beta\nedge seed.alpha seed.beta\n",
    )
    .expect("write witness");
    let report =
        analyze_workspace_witness(&root, &RuleId::ALL, Some(&witness)).expect("witness scan");
    fs::remove_dir_all(&root).expect("clean up scratch workspace");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn witness_with_unknown_class_and_contradicting_edge_fails() {
    let root = seed_workspace("witness-bad", "pdn", "dg-pdn", CONSISTENT_ORDER);
    let witness = root.join("witness.txt");
    fs::write(
        &witness,
        "# dg-lock-witness v1\nclass seed.ghost\nedge seed.beta seed.alpha\n",
    )
    .expect("write witness");
    let report =
        analyze_workspace_witness(&root, &RuleId::ALL, Some(&witness)).expect("witness scan");
    fs::remove_dir_all(&root).expect("clean up scratch workspace");
    assert_ne!(report.count(RuleId::LockOrder), 0);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("seed.ghost") && v.path.ends_with("witness.txt")),
        "{:?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("contradicts")),
        "the reversed edge proves a cycle the static graph forbids: {:?}",
        report.violations
    );
}

#[test]
fn malformed_witness_reports_with_line_number() {
    let root = seed_workspace("witness-syntax", "pdn", "dg-pdn", CONSISTENT_ORDER);
    let witness = root.join("witness.txt");
    fs::write(&witness, "# dg-lock-witness v1\nvertex nope\n").expect("write witness");
    let report =
        analyze_workspace_witness(&root, &RuleId::ALL, Some(&witness)).expect("witness scan");
    fs::remove_dir_all(&root).expect("clean up scratch workspace");
    let v = report
        .violations
        .iter()
        .find(|v| v.message.contains("malformed"))
        .expect("parse error reported");
    assert_eq!(v.line, 2);
    assert_ne!(report.count(RuleId::LockOrder), 0);
}

#[test]
fn stale_flow_allow_is_flagged_as_allow_syntax() {
    let src = concat!(
        "//! Seeded fixture: a stale flow-rule allow.\n",
        "fn quiet() {\n",
        "    // dg-analyze: allow(lock-order, reason = \"nothing here anymore\")\n",
        "    let x = 1usize;\n",
        "}\n",
    );
    let root = seed_workspace("stale-flow", "pdn", "dg-pdn", src);
    let report = scan(&root);
    assert_eq!(
        report.count(RuleId::AllowSyntax),
        1,
        "a lock-order allow that suppresses nothing is stale: {:?}",
        report.violations
    );
}
