//! Negative-path regression: the `no-panic-in-lib` rule must actually
//! fire for `dg-serve` and `dg-chaos` library code. The workspace itself
//! is clean (see `workspace_clean.rs`), so this seeds a scratch
//! mini-workspace whose registered crates contain a deliberate
//! `.unwrap()` and asserts the scan reports exactly those violations —
//! proving each crate's registration in the panic-free list has
//! enforcement teeth, not just a name in an array.

use std::fs;
use std::path::PathBuf;

use dg_analyze::analyze_workspace;
use dg_analyze::rules::RuleId;

/// Builds `<tmp>/dg-analyze-seeded-<pid>-<tag>/crates/<dir>` for each
/// `(dir, crate name)` pair, each with a seeded panic site, and returns
/// the workspace root.
fn seed_workspace_with(tag: &str, crates: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dg-analyze-seeded-{}-{tag}", std::process::id()));
    fs::create_dir_all(&root).expect("create scratch workspace");
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n",
    )
    .expect("write root manifest");
    for (dir, name) in crates {
        let member = root.join("crates").join(dir);
        fs::create_dir_all(member.join("src")).expect("create member dir");
        fs::write(
            member.join("Cargo.toml"),
            format!("[package]\nname = \"{name}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n"),
        )
        .expect("write crate manifest");
        fs::write(
            member.join("src").join("lib.rs"),
            "//! Seeded fixture: one deliberate panic site in library code.\n\
             \n\
             /// Returns the cached value, panicking when absent.\n\
             pub fn cached(v: Option<u32>) -> u32 {\n\
             \x20   v.unwrap()\n\
             }\n",
        )
        .expect("write seeded lib");
    }
    root
}

/// The original single-crate fixture (kept for the line/path assertions).
fn seed_workspace() -> PathBuf {
    seed_workspace_with("serve", &[("serve", "dg-serve")])
}

#[test]
fn no_panic_in_lib_fires_on_a_seeded_violation_in_crates_serve() {
    let root = seed_workspace();
    let report = analyze_workspace(&root).expect("scan scratch workspace");
    fs::remove_dir_all(&root).expect("clean up scratch workspace");

    assert_eq!(
        report.count(RuleId::NoPanicInLib),
        1,
        "exactly the seeded unwrap must fire: {:?}",
        report.violations
    );
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == RuleId::NoPanicInLib)
        .expect("seeded violation present");
    assert_eq!(v.path, PathBuf::from("crates/serve/src/lib.rs"));
    assert_eq!(v.line, 5, "the unwrap sits on line 5 of the fixture");
    assert!(v.snippet.contains("v.unwrap()"), "{v}");
    assert_ne!(
        report.exit_code(),
        0,
        "a seeded panic site must fail the gate"
    );

    // The same fixture with the rule disabled stays clean — the firing
    // above is attributable to no-panic-in-lib alone.
    let root = seed_workspace();
    let narrowed =
        dg_analyze::analyze_workspace_rules(&root, &[RuleId::DocCoverage, RuleId::DepHygiene])
            .expect("narrowed scan");
    fs::remove_dir_all(&root).expect("clean up scratch workspace");
    assert!(
        narrowed.violations.is_empty(),
        "fixture must be clean apart from the seeded panic site: {:?}",
        narrowed.violations
    );
}

#[test]
fn no_panic_in_lib_fires_on_a_seeded_violation_in_crates_explore() {
    // The design-space engine streams long-running sweeps through
    // `/v1/explore`; its registration must have the same teeth.
    let root = seed_workspace_with("explore", &[("explore", "dg-explore")]);
    let report = analyze_workspace(&root).expect("scan scratch workspace");
    fs::remove_dir_all(&root).expect("clean up scratch workspace");

    assert_eq!(
        report.count(RuleId::NoPanicInLib),
        1,
        "the seeded unwrap in dg-explore must fire: {:?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == RuleId::NoPanicInLib
                && v.path == std::path::Path::new("crates/explore/src/lib.rs")),
        "the dg-explore registration must have teeth: {:?}",
        report.violations
    );
    assert_ne!(report.exit_code(), 0);
}

#[test]
fn no_panic_in_lib_fires_on_a_seeded_violation_in_crates_chaos() {
    // The chaos harness is registered alongside the daemon: a seeded
    // unwrap in either library must fire, and nothing else.
    let root = seed_workspace_with("chaos", &[("chaos", "dg-chaos"), ("serve", "dg-serve")]);
    let report = analyze_workspace(&root).expect("scan scratch workspace");
    fs::remove_dir_all(&root).expect("clean up scratch workspace");

    assert_eq!(
        report.count(RuleId::NoPanicInLib),
        2,
        "both seeded unwraps must fire: {:?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == RuleId::NoPanicInLib
                && v.path == std::path::Path::new("crates/chaos/src/lib.rs")),
        "the dg-chaos registration must have teeth: {:?}",
        report.violations
    );
    assert_ne!(report.exit_code(), 0);
}

/// Writes `files` (paths relative to the root) under a fresh scratch
/// workspace whose only crate is `crates/demo` (`dg-demo`).
fn seed_demo_workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dg-analyze-reach-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let mut all = vec![
        (
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n",
        ),
        (
            "crates/demo/Cargo.toml",
            "[package]\nname = \"dg-demo\"\nversion = \"0.1.0\"\nedition = \"2021\"\n",
        ),
    ];
    all.extend_from_slice(files);
    for (rel, text) in all {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("file has a parent")).expect("create dirs");
        fs::write(&path, text).expect("write fixture file");
    }
    root
}

/// Five modules: one named only by tests, benches, comments, strings,
/// `#[cfg(test)]` code and itself; the other four reached four ways.
const DEMO_LIB: &str = concat!(
    "//! Seeded fixture: five public modules, one of them unreached.\n",
    "\n",
    "/// Named by path from library code.\n",
    "pub mod used;\n",
    "/// Named only where references do not count.\n",
    "pub mod unused;\n",
    "/// Reached through an item a binary names.\n",
    "pub mod reexported;\n",
    "/// Named only by the crate's example.\n",
    "pub mod crate_example;\n",
    "/// Named only by the workspace's example.\n",
    "pub mod root_example;\n",
    "\n",
    "pub use reexported::Thing;\n",
    "\n",
    "/// Library code that runs `used`.\n",
    "pub fn run() -> u32 {\n",
    "    // unused::ghost()\n",
    "    let _label = \"unused::ghost\";\n",
    "    used::value()\n",
    "}\n",
    "\n",
    "#[cfg(test)]\n",
    "mod tests {\n",
    "    #[test]\n",
    "    fn t() {\n",
    "        assert_eq!(super::unused::ghost(), 0);\n",
    "    }\n",
    "}\n",
);

fn demo_files(lib: &'static str) -> Vec<(&'static str, &'static str)> {
    vec![
        ("crates/demo/src/lib.rs", lib),
        (
            "crates/demo/src/used.rs",
            "//! Used.\n\n/// One.\npub fn value() -> u32 {\n    1\n}\n",
        ),
        (
            "crates/demo/src/unused.rs",
            "//! Unused.\n\n/// Zero.\npub fn ghost() -> u32 {\n    crate::unused::zero()\n}\n\n\
             fn zero() -> u32 {\n    0\n}\n",
        ),
        (
            "crates/demo/src/reexported.rs",
            "//! Re-exported.\n\n/// A unit type.\npub struct Thing;\n",
        ),
        (
            "crates/demo/src/crate_example.rs",
            "//! Example-only.\n\n/// Two.\npub fn two() -> u32 {\n    2\n}\n",
        ),
        (
            "crates/demo/src/root_example.rs",
            "//! Example-only.\n\n/// Three.\npub fn three() -> u32 {\n    3\n}\n",
        ),
        (
            "crates/demo/src/main.rs",
            "fn main() {\n    let _thing = dg_demo::Thing;\n}\n",
        ),
        (
            "crates/demo/examples/demo.rs",
            "fn main() {\n    dg_demo::crate_example::two();\n}\n",
        ),
        (
            "examples/root.rs",
            "fn main() {\n    dg_demo::root_example::three();\n}\n",
        ),
        (
            "crates/demo/tests/it.rs",
            "#[test]\nfn t() {\n    dg_demo::unused::ghost();\n}\n",
        ),
        (
            "crates/demo/benches/b.rs",
            "fn main() {\n    dg_demo::unused::ghost();\n}\n",
        ),
    ]
}

#[test]
fn unreached_mod_fires_on_a_module_only_tests_name() {
    let root = seed_demo_workspace("fires", &demo_files(DEMO_LIB));
    let report = dg_analyze::analyze_workspace_rules(&root, &[RuleId::UnreachedMod])
        .expect("scan scratch workspace");
    fs::remove_dir_all(&root).expect("clean up scratch workspace");

    assert_eq!(
        report.count(RuleId::UnreachedMod),
        1,
        "exactly the module that only tests name must fire: {:?}",
        report.violations
    );
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == RuleId::UnreachedMod)
        .expect("seeded violation present");
    assert_eq!(v.path, PathBuf::from("crates/demo/src/lib.rs"));
    assert_eq!(v.line, 6, "`pub mod unused;` sits on line 6 of the fixture");
    assert!(v.snippet.contains("pub mod unused;"), "{v}");
    assert_ne!(report.exit_code() & RuleId::UnreachedMod.exit_bit(), 0);
}

#[test]
fn unreached_mod_allow_suppresses_and_counts_as_used() {
    const ALLOWED: &str = concat!(
        "//! Seeded fixture: the unreached module is deliberate API.\n",
        "\n",
        "/// Named by path from library code.\n",
        "pub mod used;\n",
        "// dg-analyze: allow(unreached-mod, reason = \"seeded: deliberate API\")\n",
        "pub mod unused;\n",
        "/// Reached through an item a binary names.\n",
        "pub mod reexported;\n",
        "/// Named only by the crate's example.\n",
        "pub mod crate_example;\n",
        "/// Named only by the workspace's example.\n",
        "pub mod root_example;\n",
        "\n",
        "pub use reexported::Thing;\n",
        "\n",
        "/// Library code that runs `used`.\n",
        "pub fn run() -> u32 {\n",
        "    used::value()\n",
        "}\n",
    );
    let root = seed_demo_workspace("allow", &demo_files(ALLOWED));
    let report = dg_analyze::analyze_workspace_rules(&root, &[RuleId::UnreachedMod])
        .expect("scan scratch workspace");
    fs::remove_dir_all(&root).expect("clean up scratch workspace");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.allows_used, 1, "the allow must count as used");
}

#[test]
fn cli_exits_1_on_a_violation_and_2_on_a_usage_error() {
    let root = seed_demo_workspace("cli", &demo_files(DEMO_LIB));
    let bin = env!("CARGO_BIN_EXE_dg-analyze");
    let status = |args: &[&str]| {
        std::process::Command::new(bin)
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run dg-analyze")
            .code()
    };
    let root_arg = root.display().to_string();
    let violation = status(&["--root", &root_arg, "--rule", "unreached-mod", "-q"]);
    let clean = status(&["--root", &root_arg, "--rule", "lock-order", "-q"]);
    fs::remove_dir_all(&root).expect("clean up scratch workspace");
    assert_eq!(violation, Some(1));
    assert_eq!(clean, Some(0));
    assert_eq!(status(&["--no-such-flag"]), Some(2));
    assert_eq!(
        status(&["--root", &format!("{root_arg}-missing")]),
        Some(2),
        "an unreadable root is an I/O error"
    );
}
