//! Explore output pinned to fixed values: one FNV-1a digest per checked-in
//! spec over its `(completed, total, frontier)` progress records and its
//! rendered result. The determinism and serve tests compare two runs of
//! the same build; these digests catch a change that moves both runs
//! alike, such as a marginal row read from the wrong axis or a progress
//! record counted in batches instead of points.

use darkgates::pdn::cache::ContentKey;
use dg_explore::{run_with_progress, ExploreSpec};

/// Runs `text` and digests the progress records, then the rendering.
fn digest(text: &str) -> u64 {
    let spec = ExploreSpec::from_text(text).expect("valid spec");
    let mut records = Vec::new();
    let result = run_with_progress(&spec, |p| records.push(p)).expect("runs");
    let key = ContentKey::new().word(records.len() as u64);
    records
        .iter()
        .fold(key, |k, p| {
            k.word(p.completed as u64)
                .word(p.total as u64)
                .word(p.frontier as u64)
        })
        .bytes(result.to_json().render().as_bytes())
        .finish()
}

#[test]
fn checked_in_specs_are_pinned() {
    let got = [
        digest(include_str!("../specs/charm_full.json")),
        digest(include_str!("../specs/transient_small.json")),
    ];
    let pinned: [u64; 2] = [
        0x5ab1_804b_5aa8_8b7d, // charm_full
        0x2311_541e_9d5c_4a66, // transient_small
    ];
    let report: Vec<String> = ["charm_full", "transient_small"]
        .iter()
        .zip(got)
        .map(|(name, d)| format!("{name} {d:#018x}"))
        .collect();
    assert_eq!(got, pinned, "{report:?}");
}
