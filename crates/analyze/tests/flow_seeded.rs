//! Negative-path regressions for the flow rules. The real workspace is
//! clean (`workspace_clean.rs`), so each test seeds a scratch
//! mini-workspace with one deliberate violation and asserts (a) the rule
//! fires with its own exit bit and (b) an explained `allow(...)`
//! suppresses it — proving both the detection and the escape hatch.

use std::fs;
use std::path::{Path, PathBuf};

use dg_analyze::analyze_workspace;
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
    let report = analyze_workspace(root, &RuleId::ALL).expect("scan scratch workspace");
    fs::remove_dir_all(root).expect("clean up scratch workspace");
    report
}

/// One consistent nesting: `seed.beta` taken under `seed.alpha` (line 8).
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

/// `CONSISTENT_ORDER` plus the opposite nesting (line 12): a 2-cycle.
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

/// `(line, message)` of every `lock-order` violation.
fn lock_order_findings(report: &dg_analyze::Report) -> Vec<(usize, &str)> {
    report
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::LockOrder)
        .map(|v| (v.line, v.message.as_str()))
        .collect()
}

#[test]
fn lock_order_fires_once_on_a_consistent_nesting() {
    let root = seed_workspace("nest", "pdn", "dg-pdn", CONSISTENT_ORDER);
    let report = scan(&root);
    assert_eq!(
        lock_order_findings(&report),
        [(
            8,
            "lock class `seed.beta` is acquired while a guard on `seed.alpha` is live"
        )]
    );
}

#[test]
fn lock_order_fires_on_opposite_nesting_orders() {
    let root = seed_workspace("cycle", "pdn", "dg-pdn", LOCK_ORDER_CYCLE);
    let report = scan(&root);
    assert_eq!(
        lock_order_findings(&report),
        [
            (
                8,
                "lock class `seed.beta` is acquired while a guard on `seed.alpha` is live"
            ),
            (
                12,
                "lock class `seed.alpha` is acquired while a guard on `seed.beta` is live"
            ),
        ],
        "both nestings of the 2-cycle must report"
    );
}

#[test]
fn lock_order_fires_on_self_nesting_and_through_a_unique_free_call() {
    let src = concat!(
        "//! Seeded fixture: a self-nesting and a nesting through a call.\n",
        "fn setup() {\n",
        "    let alpha = TrackedMutex::new(\"seed.alpha\", 0usize);\n",
        "    let beta = TrackedMutex::new(\"seed.beta\", 0usize);\n",
        "}\n",
        "fn twice() {\n",
        "    let g = alpha.lock();\n",
        "    alpha.lock().clone();\n",
        "}\n",
        "fn take_beta() {\n",
        "    beta.lock().clone();\n",
        "}\n",
        "fn through_call() {\n",
        "    let g = alpha.lock();\n",
        "    take_beta();\n",
        "}\n",
    );
    let root = seed_workspace("nest-call", "pdn", "dg-pdn", src);
    let report = scan(&root);
    assert_eq!(
        lock_order_findings(&report),
        [
            (
                8,
                "lock class `seed.alpha` is acquired while a guard on it is already live \
                 (self-deadlock)"
            ),
            (
                15,
                "`take_beta()` acquires lock class `seed.beta` while a guard on `seed.alpha` \
                 is live"
            ),
        ]
    );
}

#[test]
fn lock_order_allow_sanctions_the_edge_and_is_counted_used() {
    let src = CONSISTENT_ORDER.replace(
        "    beta.lock().clone();\n",
        concat!(
            "    // dg-analyze: allow(lock-order, reason = \"seeded: vetted nesting\")\n",
            "    beta.lock().clone();\n",
        ),
    );
    assert_ne!(src, CONSISTENT_ORDER, "replacement must hit");
    let root = seed_workspace("nest-allow", "pdn", "dg-pdn", &src);
    let report = scan(&root);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.allows_used, 1, "the allow must count as used");
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
