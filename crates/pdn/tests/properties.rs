//! Property-based tests for the PDN crate's electrical invariants.

use dg_pdn::complex::Complex;
use dg_pdn::elements::{CapBank, SeriesBranch};
use dg_pdn::impedance::ImpedanceAnalyzer;
use dg_pdn::ladder::{Ladder, VrOutputModel};
use dg_pdn::loadline::{LoadLine, VirusLevel, VirusLevelTable};
use dg_pdn::units::{Amps, Farads, Henries, Hertz, Ohms, Volts};
use proptest::prelude::*;

proptest! {
    /// Parallel combination satisfies the admittance identity
    /// `1/p = 1/z1 + 1/z2` and preserves passivity (Re ≥ 0). Note that near
    /// an L∥C tank resonance the parallel *magnitude* legitimately exceeds
    /// both operands, so no magnitude bound is asserted.
    #[test]
    fn parallel_satisfies_admittance_identity(
        r1 in 1e-3..10.0f64, x1 in -10.0..10.0f64,
        r2 in 1e-3..10.0f64, x2 in -10.0..10.0f64,
    ) {
        let z1 = Complex::new(r1, x1);
        let z2 = Complex::new(r2, x2);
        let p = z1.parallel(z2);
        let one = Complex::new(1.0, 0.0);
        let y = one / z1 + one / z2;
        let identity_err = (one / p - y).abs();
        prop_assert!(identity_err < 1e-6 * (1.0 + y.abs()), "err {identity_err}");
        // Combining passive elements stays passive.
        prop_assert!(p.re >= -1e-12);
        // For purely resistive operands, parallel ≤ min.
        let rp = Complex::new(r1, 0.0).parallel(Complex::new(r2, 0.0));
        prop_assert!(rp.abs() <= r1.min(r2) + 1e-12);
    }

    /// Complex division is the inverse of multiplication.
    #[test]
    fn complex_div_mul_round_trip(
        a in -100.0..100.0f64, b in -100.0..100.0f64,
        c in 0.1..100.0f64, d in 0.1..100.0f64,
    ) {
        let z = Complex::new(a, b);
        let w = Complex::new(c, d);
        let q = (z / w) * w;
        prop_assert!((q - z).abs() < 1e-6 * (1.0 + z.abs()));
    }

    /// Ladder impedance is finite and positive at every sane frequency.
    #[test]
    fn ladder_impedance_positive_finite(
        r_board in 0.05..2.0f64,
        l_board in 1.0..500.0f64,
        c_bulk in 10.0..2000.0f64,
        r_die in 0.01..1.0f64,
        c_die in 10.0..2000.0f64,
        freq in 1e3..1e9f64,
    ) {
        let vr = VrOutputModel::new(Ohms::from_mohm(1.6), Hertz::new(300e3)).unwrap();
        let mut b = Ladder::builder("prop", vr);
        b.series_with_decap(
            "board",
            SeriesBranch::new(Ohms::from_mohm(r_board), Henries::from_ph(l_board)).unwrap(),
            CapBank::new(Farads::from_uf(c_bulk), Ohms::from_mohm(5.0), Henries::from_nh(2.0), 3).unwrap(),
        );
        b.series_with_decap(
            "die",
            SeriesBranch::new(Ohms::from_mohm(r_die), Henries::from_ph(5.0)).unwrap(),
            CapBank::new(Farads::from_nf(c_die), Ohms::from_mohm(1.0), Henries::from_ph(1.0), 1).unwrap(),
        );
        let ladder = b.build().unwrap();
        let z = ladder.impedance_magnitude(Hertz::new(freq));
        prop_assert!(z.value() > 0.0);
        prop_assert!(z.is_finite());
    }

    /// DC resistance equals the sum of the series path regardless of caps.
    #[test]
    fn dc_resistance_is_path_sum(
        r1 in 0.0..5.0f64,
        r2 in 0.0..5.0f64,
        ll in 0.5..3.0f64,
    ) {
        let vr = VrOutputModel::new(Ohms::from_mohm(ll), Hertz::new(300e3)).unwrap();
        let mut b = Ladder::builder("prop", vr);
        b.series("a", SeriesBranch::new(Ohms::from_mohm(r1), Henries::ZERO).unwrap());
        b.series("b", SeriesBranch::new(Ohms::from_mohm(r2), Henries::ZERO).unwrap());
        let ladder = b.build().unwrap();
        prop_assert!((ladder.dc_resistance().as_mohm() - (ll + r1 + r2)).abs() < 1e-9);
    }

    /// Adding a purely resistive series stage can only raise impedance
    /// at low frequency (below any resonance interaction).
    #[test]
    fn extra_series_resistance_raises_low_frequency_impedance(
        extra in 0.1..5.0f64,
    ) {
        let vr = VrOutputModel::new(Ohms::from_mohm(1.6), Hertz::new(300e3)).unwrap();
        let base = {
            let mut b = Ladder::builder("base", vr);
            b.series("route", SeriesBranch::new(Ohms::from_mohm(0.5), Henries::ZERO).unwrap());
            b.build().unwrap()
        };
        let more = {
            let mut b = Ladder::builder("more", vr);
            b.series("route", SeriesBranch::new(Ohms::from_mohm(0.5), Henries::ZERO).unwrap());
            b.series("gate", SeriesBranch::new(Ohms::from_mohm(extra), Henries::ZERO).unwrap());
            b.build().unwrap()
        };
        let f = Hertz::new(10e3);
        prop_assert!(more.impedance_magnitude(f) > base.impedance_magnitude(f));
    }

    /// Load-line round trip: required_vcc(load_voltage(v, i), i) == v.
    #[test]
    fn loadline_round_trip(
        r in 0.5..5.0f64,
        v in 0.5..1.5f64,
        i in 0.0..150.0f64,
    ) {
        let ll = LoadLine::new(Ohms::from_mohm(r)).unwrap();
        let vload = ll.load_voltage(Volts::new(v), Amps::new(i));
        let back = ll.required_vcc(vload, Amps::new(i));
        prop_assert!((back.value() - v).abs() < 1e-12);
        // Guardband is non-negative and monotone in current.
        prop_assert!(ll.guardband(Amps::new(i)).value() >= 0.0);
        prop_assert!(ll.guardband(Amps::new(i + 1.0)) > ll.guardband(Amps::new(i)));
    }

    /// Virus-level guardbands are strictly increasing across levels.
    #[test]
    fn virus_guardbands_increase(
        base in 10.0..40.0f64,
        step1 in 5.0..50.0f64,
        step2 in 5.0..50.0f64,
        r in 1.0..3.0f64,
    ) {
        let ll = LoadLine::new(Ohms::from_mohm(r)).unwrap();
        let t = VirusLevelTable::new(
            ll,
            vec![
                VirusLevel::new("l1", Amps::new(base)),
                VirusLevel::new("l2", Amps::new(base + step1)),
                VirusLevel::new("l3", Amps::new(base + step1 + step2)),
            ],
        ).unwrap();
        prop_assert!(t.guardband_at(0) < t.guardband_at(1));
        prop_assert!(t.guardband_at(1) < t.guardband_at(2));
        // level_for is consistent: the chosen level covers the current.
        let probe = Amps::new(base * 0.9);
        let idx = t.level_for(probe).unwrap();
        prop_assert!(t.levels()[idx].icc_virus >= probe);
    }

    /// The impedance profile's peak is an upper bound for `at` queries.
    #[test]
    fn profile_peak_bounds_queries(freq in 1e4..1e9f64) {
        use dg_pdn::skylake::{PdnVariant, SkylakePdn};
        let pdn = SkylakePdn::build(PdnVariant::Gated);
        let profile = ImpedanceAnalyzer::default().profile(&pdn.ladder);
        prop_assert!(profile.at(Hertz::new(freq)) <= profile.peak().1);
        prop_assert!(profile.at(Hertz::new(freq)) >= profile.floor());
    }

    /// Cap bank impedance magnitude never falls below its effective ESR.
    #[test]
    fn cap_bank_bounded_by_esr(
        c in 1.0..1000.0f64,
        esr in 0.1..10.0f64,
        count in 1..40usize,
        freq in 1e3..1e9f64,
    ) {
        let bank = CapBank::new(
            Farads::from_uf(c),
            Ohms::from_mohm(esr),
            Henries::from_ph(100.0),
            count,
        ).unwrap();
        let z = bank.impedance(Hertz::new(freq)).abs();
        // The bank's effective ESR is one part's ESR over the part count.
        prop_assert!(z >= Ohms::from_mohm(esr).value() / count as f64 - 1e-15);
    }
}
