//! Tier-1 harness: the whole workspace must pass every dg-analyze rule.
//!
//! This is the enforcement teeth behind `cargo run -p dg-analyze`: if a
//! panic site, raw-unit seam, wall-clock call, undocumented public item,
//! wildcard dependency, or malformed allow comment is reintroduced
//! anywhere in the tree, this test fails with the same file:line
//! diagnostics the CLI prints.

use std::path::Path;

use dg_analyze::analyze_workspace_witness;
use dg_analyze::rules::RuleId;

#[test]
fn workspace_has_no_rule_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels below the workspace root");
    let report =
        analyze_workspace_witness(root, &RuleId::ALL, None).expect("workspace scan succeeds");

    assert!(
        report.files_scanned > 50,
        "scan looks truncated: only {} files visited",
        report.files_scanned
    );
    assert!(
        report.manifests_checked > 10,
        "scan looks truncated: only {} manifests visited",
        report.manifests_checked
    );

    if !report.violations.is_empty() {
        let mut diagnostics = String::new();
        for v in &report.violations {
            diagnostics.push_str(&v.to_string());
            diagnostics.push('\n');
        }
        panic!(
            "dg-analyze found {} violation(s); run `cargo run -p dg-analyze` locally\n{diagnostics}",
            report.violations.len()
        );
    }
}
