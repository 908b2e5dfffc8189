//! Determinism guarantees of the parallel experiment engine.
//!
//! The `dg-engine` pool promises bit-identical results for any worker
//! count: every `par_map`/`par_map_progress` call collects into
//! index-ordered slots and all floating-point reductions stay sequential.
//! These tests pin that contract on the real experiment matrices and on
//! the droop sweeps `/v1/droop_sweep` streams, by running the same work
//! under different thread overrides and comparing every `f64` by its bit
//! pattern, not by tolerance.
//!
//! The thread override is process-global, so the tests serialize on a
//! shared lock.

use darkgates::experiments::{self, Fig7Result, Fig8Cell};
use darkgates::pdn::didt::droop_sweep_with_progress;
use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};
use darkgates::pdn::transient::TransientSim;
use darkgates::pdn::units::{Amps, Seconds, Volts};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn fig7_bits(r: &Fig7Result) -> Vec<(String, u64, u64, u64, u64)> {
    let mut out: Vec<_> = r
        .rows
        .iter()
        .map(|row| {
            (
                row.benchmark.clone(),
                row.suite as u64,
                row.scalability.to_bits(),
                row.gain.to_bits(),
                0u64,
            )
        })
        .collect();
    out.push((
        "summary".into(),
        0,
        r.average.to_bits(),
        r.max.to_bits(),
        r.rows.len() as u64,
    ));
    out
}

fn fig8_bits(cells: &[Fig8Cell]) -> Vec<(u64, u64, u64)> {
    cells
        .iter()
        .map(|c| {
            (
                c.tdp.value().to_bits(),
                c.base_gain.to_bits(),
                c.rate_gain.to_bits(),
            )
        })
        .collect()
}

#[test]
fn fig7_bit_identical_across_thread_counts() {
    let _lock = TEST_LOCK.lock().unwrap();
    let single = {
        let _guard = dg_engine::set_thread_override(1);
        experiments::fig7()
    };
    for workers in [2, 4] {
        let parallel = {
            let _guard = dg_engine::set_thread_override(workers);
            experiments::fig7()
        };
        assert_eq!(
            fig7_bits(&single),
            fig7_bits(&parallel),
            "fig7 diverged between 1 and {workers} worker(s)"
        );
    }
}

#[test]
fn fig8_bit_identical_across_thread_counts() {
    let _lock = TEST_LOCK.lock().unwrap();
    let single = {
        let _guard = dg_engine::set_thread_override(1);
        experiments::fig8()
    };
    let parallel = {
        let _guard = dg_engine::set_thread_override(4);
        experiments::fig8()
    };
    assert_eq!(
        fig8_bits(&single),
        fig8_bits(&parallel),
        "fig8 diverged between 1 and 4 workers"
    );
}

#[test]
fn cached_impedance_profile_matches_cold_computation() {
    let _lock = TEST_LOCK.lock().unwrap();
    use darkgates::pdn::impedance::ImpedanceAnalyzer;
    use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};

    for variant in [PdnVariant::Gated, PdnVariant::Bypassed] {
        let pdn = SkylakePdn::build(variant);
        let cold = ImpedanceAnalyzer::default().profile(&pdn.ladder);
        // Cached path: first call may populate, second is guaranteed a hit.
        let warm1 = pdn.impedance_profile();
        let warm2 = pdn.impedance_profile();
        for (c, w) in [&warm1, &warm2]
            .into_iter()
            .flat_map(|w| cold.points().iter().zip(w.points()))
        {
            assert_eq!(c.0.value().to_bits(), w.0.value().to_bits());
            assert_eq!(c.1.value().to_bits(), w.1.value().to_bits());
        }
    }
}

fn volts_bits(volts: &[Volts]) -> Vec<u64> {
    volts.iter().map(|v| v.value().to_bits()).collect()
}

/// Everything a streamed droop sweep shows: the returned droops and the
/// `(done, fresh)` progress sequence, all as bits.
type SweepBits = (Vec<u64>, Vec<(usize, Vec<u64>)>);

#[test]
fn droop_sweeps_bit_identical_across_thread_counts() {
    let _lock = TEST_LOCK.lock().unwrap();
    let pdn = SkylakePdn::build(PdnVariant::Bypassed);
    // A short transient, as in the didt unit tests: 2 ns steps over 5 us.
    let sim = TransientSim {
        source: Volts::new(1.0),
        dt: Seconds::from_ns(2.0),
        duration: Seconds::from_us(5.0),
        decimate: 256,
    };
    let quiescent = Amps::new(5.0);
    let slew = Seconds::from_ns(10.0);
    let sweep = |deltas: &[Amps]| -> SweepBits {
        let mut progress = Vec::new();
        let droops =
            droop_sweep_with_progress(&pdn.ladder, &sim, quiescent, deltas, slew, |done, fresh| {
                progress.push((done, volts_bits(fresh)))
            });
        (volts_bits(&droops), progress)
    };
    // 128 lanes are one progress wave (the sweep-stream request shape);
    // 600 lanes are three.
    for (lanes, waves) in [(128usize, 1usize), (600, 3)] {
        let deltas: Vec<Amps> = (0..lanes)
            .map(|k| Amps::new(1.0 + 0.1 * k as f64))
            .collect();
        let single = {
            let _guard = dg_engine::set_thread_override(1);
            sweep(&deltas)
        };
        assert_eq!(single.1.len(), waves, "{lanes} lanes: progress waves");
        assert_eq!(single.1.last().map(|(done, _)| *done), Some(lanes));
        for workers in [2, 4, 8] {
            let _guard = dg_engine::set_thread_override(workers);
            assert_eq!(
                sweep(&deltas),
                single,
                "{lanes} lanes diverged between 1 and {workers} worker(s)"
            );
        }
        let _guard = dg_engine::set_thread_override(4);
        let _seed = dg_engine::set_schedule_seed(0x5EED);
        assert_eq!(
            sweep(&deltas),
            single,
            "{lanes} lanes diverged under a schedule seed"
        );
    }
}
