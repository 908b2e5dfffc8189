//! Negative-path regression: the `no-panic-in-lib` rule must actually
//! fire for `dg-serve` and `dg-chaos` library code. The workspace itself
//! is clean (see `workspace_clean.rs`), so this seeds a scratch
//! mini-workspace whose registered crates contain a deliberate
//! `.unwrap()` and asserts the scan reports exactly those violations —
//! proving each crate's registration in the panic-free list has
//! enforcement teeth, not just a name in an array.

use std::fs;
use std::path::PathBuf;

use dg_analyze::analyze_workspace_witness;
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
    let report =
        analyze_workspace_witness(&root, &RuleId::ALL, None).expect("scan scratch workspace");
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

    // The same fixture with the rule disabled stays clean — the firing
    // above is attributable to no-panic-in-lib alone.
    let root = seed_workspace();
    let narrowed =
        analyze_workspace_witness(&root, &[RuleId::DocCoverage, RuleId::DepHygiene], None)
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
    let report =
        analyze_workspace_witness(&root, &RuleId::ALL, None).expect("scan scratch workspace");
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
}

#[test]
fn no_panic_in_lib_fires_on_a_seeded_violation_in_crates_chaos() {
    // The chaos harness is registered alongside the daemon: a seeded
    // unwrap in either library must fire, and nothing else.
    let root = seed_workspace_with("chaos", &[("chaos", "dg-chaos"), ("serve", "dg-serve")]);
    let report =
        analyze_workspace_witness(&root, &RuleId::ALL, None).expect("scan scratch workspace");
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
    let report = analyze_workspace_witness(&root, &[RuleId::UnreachedMod], None)
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
    let report = analyze_workspace_witness(&root, &[RuleId::UnreachedMod], None)
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

/// Library items reached every way that counts, and some reached only in
/// ways that do not.
const PUB_ITEMS: &str = concat!(
    "//! Seeded fixture: public items and their references.\n",
    "\n",
    "/// Named by another library file.\n",
    "pub fn by_lib() -> u32 {\n",
    "    1\n",
    "}\n",
    "/// Named by a binary.\n",
    "pub fn by_bin() {}\n",
    "/// Named by an example.\n",
    "pub fn by_example() {}\n",
    "/// Named by the benchmark's sources.\n",
    "pub fn by_benchmark() {}\n",
    "/// Named only through its `pub use … as` alias.\n",
    "pub fn aliased() {}\n",
    "/// Named by nobody.\n",
    "pub fn unused_fn() {}\n",
    "/// Named by nobody.\n",
    "pub const UNUSED_CONST: u32 = 1;\n",
    "/// Named by nobody.\n",
    "pub struct UnusedStruct;\n",
    "/// Named by a binary; its method by nobody.\n",
    "pub struct Holder;\n",
    "\n",
    "impl Holder {\n",
    "    /// Named by nobody.\n",
    "    pub fn unused_method(&self) {}\n",
    "}\n",
    "/// Named only by `tests/`.\n",
    "pub fn in_tests_dir() {}\n",
    "/// Named only by `#[cfg(test)]` code.\n",
    "pub fn in_cfg_test() {}\n",
    "/// Named only in a comment.\n",
    "pub fn in_comment() {}\n",
    "/// Named only in a string.\n",
    "pub fn in_string() {}\n",
    "/// Named only by a `pub use`.\n",
    "pub fn only_reexported() {}\n",
    "/// Named only by its own file's `pub fn` signature.\n",
    "pub struct Config;\n",
    "/// Named only by its own file's `pub` field.\n",
    "pub struct Part;\n",
    "/// Named by a binary.\n",
    "pub struct Wrapper {\n",
    "    /// A public field.\n",
    "    pub part: Part,\n",
    "}\n",
    "/// Named by a binary.\n",
    "pub fn configure(_config: Config) {}\n",
);

/// The crate root: `run` reaches `by_lib`; the other mentions do not count.
const PUB_LIB: &str = concat!(
    "//! Seeded fixture: the crate root.\n",
    "\n",
    "/// The items.\n",
    "pub mod items;\n",
    "\n",
    "pub use items::aliased as renamed;\n",
    "pub use items::only_reexported;\n",
    "\n",
    "/// Library code that runs `by_lib`.\n",
    "pub fn run() -> u32 {\n",
    "    // items::in_comment()\n",
    "    let _label = \"items::in_string\";\n",
    "    items::by_lib()\n",
    "}\n",
    "\n",
    "#[cfg(test)]\n",
    "mod tests {\n",
    "    #[test]\n",
    "    fn t() {\n",
    "        super::items::in_cfg_test();\n",
    "    }\n",
    "}\n",
);

fn pub_files(items: &'static str) -> Vec<(&'static str, &'static str)> {
    vec![
        ("crates/demo/src/lib.rs", PUB_LIB),
        ("crates/demo/src/items.rs", items),
        (
            "crates/demo/src/main.rs",
            "fn main() {\n    dg_demo::run();\n    dg_demo::items::by_bin();\n    dg_demo::renamed();\n    \
             let _h = dg_demo::items::Holder;\n    \
             let _w: Option<dg_demo::items::Wrapper> = None;\n    \
             dg_demo::items::configure;\n}\n",
        ),
        (
            "crates/demo/examples/demo.rs",
            "fn main() {\n    dg_demo::items::by_example();\n}\n",
        ),
        (
            "benchmark/src/lib.rs",
            "pub fn drive() {\n    dg_demo::items::by_benchmark();\n}\n",
        ),
        (
            "crates/demo/tests/it.rs",
            "#[test]\nfn t() {\n    dg_demo::items::in_tests_dir();\n}\n",
        ),
    ]
}

fn unreached_pub_scan(tag: &str, items: &'static str) -> dg_analyze::Report {
    let root = seed_demo_workspace(tag, &pub_files(items));
    let report = analyze_workspace_witness(&root, &[RuleId::UnreachedPub], None)
        .expect("scan scratch workspace");
    fs::remove_dir_all(&root).expect("clean up scratch workspace");
    report
}

#[test]
fn unreached_pub_fires_only_where_no_counted_reference_names_the_item() {
    let report = unreached_pub_scan("pub", PUB_ITEMS);
    let mut flagged: Vec<(usize, String)> = report
        .violations
        .iter()
        .map(|v| {
            assert_eq!(v.rule, RuleId::UnreachedPub, "{v}");
            assert_eq!(v.path, PathBuf::from("crates/demo/src/items.rs"), "{v}");
            let name = v.message.split('`').nth(1).unwrap_or_default().to_string();
            (v.line, name)
        })
        .collect();
    flagged.sort();
    let want = [
        (16, "unused_fn"),
        (18, "UNUSED_CONST"),
        (20, "UnusedStruct"),
        (26, "unused_method"),
        (29, "in_tests_dir"),
        (31, "in_cfg_test"),
        (33, "in_comment"),
        (35, "in_string"),
        (37, "only_reexported"),
    ];
    assert_eq!(
        flagged,
        want.map(|(line, name)| (line, name.to_string())).to_vec(),
        "{:?}",
        report.violations
    );
}

#[test]
fn unreached_pub_allow_suppresses_and_a_stale_one_is_reported() {
    const ALLOWED: &str = concat!(
        "//! Seeded fixture: one deliberate keep, one stale allow.\n",
        "\n",
        "// dg-analyze: allow(unreached-pub, reason = \"seeded: a deliberate keep\")\n",
        "pub fn kept() {}\n",
        "// dg-analyze: allow(unreached-pub, reason = \"seeded: stale, by_lib is reached\")\n",
        "pub fn by_lib() -> u32 {\n",
        "    1\n",
        "}\n",
        "/// Named by a binary.\n",
        "pub fn by_bin() {}\n",
        "/// Named by a binary.\n",
        "pub fn aliased() {}\n",
        "/// Named only by `pub use`, allowed.\n",
        "// dg-analyze: allow(unreached-pub, reason = \"seeded: re-exported API\")\n",
        "pub fn only_reexported() {}\n",
    );
    let report = unreached_pub_scan("pub-allow", ALLOWED);
    assert_eq!(report.allows_used, 2, "{:?}", report.violations);
    // Every file but `items.rs` is clean; there the one finding is the
    // stale allow above the reached `by_lib`.
    let [stale] = report.violations.as_slice() else {
        panic!("one violation expected: {:?}", report.violations);
    };
    assert_eq!(stale.path, PathBuf::from("crates/demo/src/items.rs"));
    assert_eq!((stale.rule, stale.line), (RuleId::AllowSyntax, 5));
    assert!(stale.message.contains("suppresses nothing"), "{stale}");
}
