//! Regression tests for kernel-width dispatch ([`dg_pdn::KernelWidth::detect`]).
//!
//! `detect()` picks x4 exactly when the CPU has AVX2 and scalar otherwise;
//! there is no wider width (8-lane blocks spill under AVX2, and the
//! retired AVX-512 build measured slower than x4). These tests pin the
//! choice from two directions: structurally (it follows the AVX2 probe)
//! and empirically (the chosen width is never the measured-slowest row of
//! the committed bench payload).

use dg_pdn::KernelWidth;

#[test]
fn detect_picks_x4_exactly_under_avx2() {
    let detected = KernelWidth::detect();
    assert_eq!(detected, KernelWidth::detect(), "detect() must be stable");
    #[cfg(target_arch = "x86_64")]
    let expected = if std::arch::is_x86_feature_detected!("avx2") {
        KernelWidth::X4
    } else {
        KernelWidth::Scalar
    };
    #[cfg(not(target_arch = "x86_64"))]
    let expected = KernelWidth::Scalar;
    assert_eq!(detected, expected);
    assert_eq!(KernelWidth::ALL, [KernelWidth::Scalar, KernelWidth::X4]);
}

/// Pulls `(width, speedup)` rows out of the committed BENCH_pdn.json
/// without a JSON dependency: the payload is machine-written by
/// `bench-pdn --json` in a fixed key order, so scanning for the two keys
/// inside each `rows` object is exact.
fn bench_rows(text: &str) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for obj in text.split("{\"width\":").skip(1) {
        let Some(width) = obj.split('"').nth(1) else {
            continue;
        };
        let Some(tail) = obj.split("\"speedup\":").nth(1) else {
            continue;
        };
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(speedup) = num.parse::<f64>() {
            rows.push((width.to_string(), speedup));
        }
    }
    rows
}

#[test]
fn dispatched_width_is_never_the_measured_slowest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pdn.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        // A fresh checkout before the first bench run has no payload to
        // cross-check; the structural test above still pins the choice.
        eprintln!("skipping: {path} not found");
        return;
    };
    let rows = bench_rows(&text);
    assert!(
        rows.len() >= 2,
        "BENCH_pdn.json rows not parseable: {rows:?}"
    );
    let slowest = rows
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(w, _)| w.clone())
        .unwrap_or_default();
    let dispatched = KernelWidth::detect().label();
    assert_ne!(
        dispatched, slowest,
        "dispatch picked the measured-slowest kernel width ({slowest}); rows: {rows:?}"
    );
}
