//! Property-based tests for power-model invariants.

use dg_power::dynamic::CdynProfile;
use dg_power::leakage::LeakageModel;
use dg_power::pstate::PStateTable;
use dg_power::thermal::ThermalModel;
use dg_power::units::{Celsius, Hertz, Seconds, Volts, Watts};
use dg_power::vf::VfCurve;
use proptest::prelude::*;

proptest! {
    /// voltage_at is monotone in frequency across the whole curve.
    #[test]
    fn vf_curve_monotone(f1 in 0.8e9..5.0e9f64, f2 in 0.8e9..5.0e9f64) {
        let c = VfCurve::skylake_core();
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let v_lo = c.voltage_at(Hertz::new(lo)).unwrap();
        let v_hi = c.voltage_at(Hertz::new(hi)).unwrap();
        prop_assert!(v_lo <= v_hi);
    }

    /// max_frequency_at(voltage_at(f)) round-trips to f (within the linear
    /// segments, the inverse is exact).
    #[test]
    fn vf_inverse_round_trip(f in 0.8e9..5.0e9f64) {
        let c = VfCurve::skylake_core();
        let v = c.voltage_at(Hertz::new(f)).unwrap();
        let f_back = c.max_frequency_at(v).unwrap();
        prop_assert!((f_back.value() - f).abs() < 1e3, "f {f} -> {}", f_back.value());
    }

    /// A guardband never increases the attainable frequency at fixed voltage.
    #[test]
    fn guardband_never_helps(gb_mv in 0.0..300.0f64, v in 0.7..1.4f64) {
        let c = VfCurve::skylake_core();
        let f_bare = c.max_frequency_at(Volts::new(v));
        let f_gb = c.with_guardband(Volts::from_mv(gb_mv)).max_frequency_at(Volts::new(v));
        match (f_bare, f_gb) {
            (Ok(a), Ok(b)) => prop_assert!(b <= a),
            (Err(_), Ok(_)) => prop_assert!(false, "guardband unlocked frequency"),
            _ => {} // both err, or bare ok and guarded err: fine
        }
    }

    /// Leakage is monotone in both voltage and temperature.
    #[test]
    fn leakage_monotone(
        v1 in 0.5..1.4f64, v2 in 0.5..1.4f64,
        t1 in 20.0..100.0f64, t2 in 20.0..100.0f64,
    ) {
        let m = LeakageModel::skylake_core();
        let (vlo, vhi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        let (tlo, thi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let p_low = m.power(Volts::new(vlo), Celsius::new(tlo));
        let p_high = m.power(Volts::new(vhi), Celsius::new(thi));
        prop_assert!(p_low <= p_high);
    }

    /// Dynamic power scales linearly in frequency and quadratically in V.
    #[test]
    fn dynamic_power_scaling(
        cdyn in 0.5..25.0f64,
        v in 0.6..1.4f64,
        f in 0.3e9..5.0e9f64,
    ) {
        let p = CdynProfile::from_nf(cdyn).unwrap();
        let base = p.power(Volts::new(v), Hertz::new(f)).value();
        let double_f = p.power(Volts::new(v), Hertz::new(2.0 * f)).value();
        let double_v = p.power(Volts::new(2.0 * v), Hertz::new(f)).value();
        prop_assert!((double_f / base - 2.0).abs() < 1e-9);
        prop_assert!((double_v / base - 4.0).abs() < 1e-9);
    }

    /// Thermal stepping never overshoots the steady-state target.
    #[test]
    fn thermal_step_no_overshoot(
        tdp in 20.0..120.0f64,
        p in 0.0..150.0f64,
        t_start in 25.0..95.0f64,
        dt in 0.01..1000.0f64,
    ) {
        let m = ThermalModel::for_tdp(Watts::new(tdp));
        let target = m.steady_state(Watts::new(p));
        let t0 = Celsius::new(t_start);
        let t1 = m.step(t0, Watts::new(p), Seconds::new(dt));
        // t1 lies between t0 and the target.
        let lo = t0.min(target);
        let hi = t0.max(target);
        prop_assert!(t1 >= lo - Celsius::new(1e-9) && t1 <= hi + Celsius::new(1e-9),
            "t1 {t1} outside [{lo}, {hi}]");
    }

    /// P-state tables are internally consistent for any bin that divides
    /// the curve range.
    #[test]
    fn pstate_table_consistency(bin_mhz in 50.0..500.0f64) {
        let c = VfCurve::skylake_core();
        let t = PStateTable::from_curve(&c, Hertz::from_mhz(bin_mhz)).unwrap();
        prop_assert!(t.pn().frequency <= t.p0().frequency);
        for s in t.iter_descending() {
            // Every state's voltage matches the curve at its frequency.
            let v = c.voltage_at(s.frequency).unwrap();
            prop_assert!((v.value() - s.voltage.value()).abs() < 1e-12);
        }
    }

    /// highest_below_voltage returns the true maximum.
    #[test]
    fn highest_below_voltage_is_max(v in 0.65..1.5f64) {
        let c = VfCurve::skylake_core();
        let t = PStateTable::from_curve(&c, PStateTable::standard_bin()).unwrap();
        if let Some(s) = t.highest_below_voltage(Volts::new(v)) {
            prop_assert!(s.voltage.value() <= v);
            for other in t.iter_descending() {
                if other.voltage.value() <= v {
                    prop_assert!(other.frequency <= s.frequency);
                }
            }
        } else {
            // No state fits: every state must exceed v.
            for other in t.iter_descending() {
                prop_assert!(other.voltage.value() > v);
            }
        }
    }
}
