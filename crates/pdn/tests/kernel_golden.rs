//! Byte-level golden pins for the transient kernel.
//!
//! The equivalence proptests compare the kernel with itself (`run_batch`
//! against per-lane `run`, 4-lane blocks against one-lane remainders), so
//! a change that alters the arithmetic of *every* lane the same way would
//! pass them all. These tests close that gap: each hashes the `to_bits`
//! of every `TransientResult` field and every waveform sample for fixed
//! inputs and compares against constants recorded from a known-good
//! kernel. Any rewrite of the integration loop must keep every constant.

use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_pdn::transient::{LoadStep, TransientResult, TransientSim};
use dg_pdn::units::{Amps, Seconds, Volts};

/// FNV-1a over 64-bit words, fed little-endian byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// Hash of every field and every waveform sample of `results`, in order.
fn hash_results(results: &[TransientResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        h.word(r.samples.len() as u64);
        for (t, v) in &r.samples {
            h.f64(t.value());
            h.f64(v.value());
        }
        h.f64(r.v_min.value());
        h.f64(r.t_min.value());
        h.f64(r.v_initial.value());
        h.f64(r.v_final.value());
    }
    h.0
}

/// A `/v1/droop_sweep`-style lane group: `points` deltas evenly spaced
/// over `[start_a, stop_a]` on top of `quiescent_a`, ramp at 1 µs.
fn sweep_group(
    quiescent_a: f64,
    slew_ns: f64,
    start_a: f64,
    stop_a: f64,
    points: usize,
) -> Vec<LoadStep> {
    #[expect(
        clippy::cast_precision_loss,
        reason = "point counts stay far below 2^52"
    )]
    let span = (stop_a - start_a) / (points - 1) as f64;
    (0..points)
        .map(|k| {
            #[expect(
                clippy::cast_precision_loss,
                reason = "point indices stay far below 2^52"
            )]
            let delta = start_a + span * k as f64;
            LoadStep {
                from: Amps::new(quiescent_a),
                to: Amps::new(quiescent_a + delta),
                at: Seconds::from_us(1.0),
                slew: Seconds::from_ns(slew_ns),
            }
        })
        .collect()
}

/// Runs `steps` as one batch and as one-lane `run`s, requires the two to
/// agree, and checks the shared hash.
fn assert_golden(
    label: &str,
    sim: &TransientSim,
    variant: PdnVariant,
    steps: &[LoadStep],
    want: u64,
) {
    let pdn = SkylakePdn::build(variant);
    let batch = hash_results(&sim.run_batch(&pdn.ladder, steps));
    let lanes: Vec<TransientResult> = steps.iter().map(|s| sim.run(&pdn.ladder, *s)).collect();
    let one_lane = hash_results(&lanes);
    assert_eq!(
        batch, one_lane,
        "{label}: the batch and one-lane runs disagree"
    );
    assert_eq!(batch, want, "{label}: got {batch:#018x}");
}

#[test]
fn droop_capture_sweep_groups_match_golden() {
    let sim = TransientSim::droop_capture(Volts::new(1.0));
    let full = sweep_group(17.25, 7.5, 6.0, 48.0, 32);
    let remainder = sweep_group(31.5, 0.0, 2.0, 58.0, 5);
    assert_golden(
        "gated/32",
        &sim,
        PdnVariant::Gated,
        &full,
        0x1795_0741_f4a2_7542,
    );
    assert_golden(
        "gated/5",
        &sim,
        PdnVariant::Gated,
        &remainder,
        0x0e27_07fd_e7ae_44af,
    );
    assert_golden(
        "bypassed/32",
        &sim,
        PdnVariant::Bypassed,
        &full,
        0x90af_3d7f_12ba_e437,
    );
    assert_golden(
        "bypassed/5",
        &sim,
        PdnVariant::Bypassed,
        &remainder,
        0x19ed_6cd2_eaaa_2636,
    );
}

#[test]
fn didt_event_family_matches_golden() {
    // The client di/dt family from 5 A as `(step A, slew ns)`: 1-, 2- and
    // 4-core pipeline restarts, a staggered power-gate wake, an AVX burst.
    let family = [
        (12.0, 2.0),
        (24.0, 2.0),
        (48.0, 2.0),
        (30.0, 15.0),
        (35.0, 5.0),
    ];
    let steps: Vec<LoadStep> = family
        .iter()
        .map(|&(delta, slew)| LoadStep {
            from: Amps::new(5.0),
            to: Amps::new(5.0 + delta),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(slew),
        })
        .collect();
    let sim = TransientSim {
        source: Volts::new(1.0),
        dt: Seconds::from_ns(0.2),
        duration: Seconds::from_us(30.0),
        decimate: 256,
    };
    let v_floor = Volts::new(0.60);
    let mut h = Fnv::new();
    for variant in [PdnVariant::Gated, PdnVariant::Bypassed] {
        let pdn = SkylakePdn::build(variant);
        let mut worst = Volts::ZERO;
        let mut emergencies = 0u64;
        for r in sim.run_batch(&pdn.ladder, &steps) {
            let emergency = r.v_min < v_floor;
            h.f64(r.droop().value());
            h.f64(r.v_min.value());
            h.word(u64::from(emergency));
            worst = worst.max(r.droop());
            emergencies += u64::from(emergency);
        }
        h.f64(worst.value());
        h.word(emergencies);
    }
    assert_eq!(h.0, 0xc83b_4aa4_bb46_e429, "didt family: got {:#018x}", h.0);
}

#[test]
fn early_settling_fixture_matches_golden() {
    // The zero-alloc harness's batch: lanes settle at different steps.
    let sim = TransientSim {
        source: Volts::new(1.0),
        dt: Seconds::from_ns(2.0),
        duration: Seconds::from_us(5.0),
        decimate: 64,
    };
    let steps: Vec<LoadStep> = (0..8)
        .map(|k| LoadStep {
            from: Amps::new(5.0),
            to: Amps::new(8.0 + 4.0 * k as f64),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(10.0),
        })
        .collect();
    assert_golden(
        "early-settle",
        &sim,
        PdnVariant::Bypassed,
        &steps,
        0xa86f_6aed_cff5_f93d,
    );
}
