//! Strongly-typed electrical units.
//!
// dg-analyze: allow-file(unit-hygiene, reason = "this module defines the unit newtypes; its from_* conversion constructors are the one sanctioned raw-f64 boundary")
//!
//! Every quantity in the PDN model is carried in a newtype over `f64`
//! ([C-NEWTYPE]) so that a voltage cannot be confused with a current and an
//! impedance cannot be confused with a capacitance. The arithmetic that is
//! physically meaningful is implemented directly (`Ohms * Amps = Volts`,
//! `Volts / Ohms = Amps`, ...); everything else requires an explicit
//! `.value()` escape hatch.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $symbol:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Creates a new quantity from a raw `f64` value in base SI units.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in base SI units.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps `self` into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// `true` if the underlying value is finite (not NaN/∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(precision) = f.precision() {
                    write!(f, "{:.*} {}", precision, self.0, $symbol)
                } else {
                    write!(f, "{} {}", self.0, $symbol)
                }
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|x| x.0).sum())
            }
        }
    };
}

unit!(
    /// Electrical potential in volts.
    Volts,
    "V"
);
unit!(
    /// Electrical current in amperes.
    Amps,
    "A"
);
unit!(
    /// Resistance / impedance magnitude in ohms.
    Ohms,
    "Ω"
);
unit!(
    /// Capacitance in farads.
    Farads,
    "F"
);
unit!(
    /// Inductance in henries.
    Henries,
    "H"
);
unit!(
    /// Power in watts.
    Watts,
    "W"
);
unit!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
unit!(
    /// Time in seconds.
    Seconds,
    "s"
);
unit!(
    /// Temperature in degrees Celsius.
    Celsius,
    "°C"
);

impl Volts {
    /// Creates a voltage from millivolts.
    #[inline]
    pub const fn from_mv(mv: f64) -> Self {
        Volts(mv / 1000.0)
    }

    /// Returns the value in millivolts.
    #[inline]
    pub const fn as_mv(self) -> f64 {
        self.0 * 1000.0
    }
}

impl Ohms {
    /// Creates a resistance from milliohms.
    #[inline]
    pub const fn from_mohm(mohm: f64) -> Self {
        Ohms(mohm / 1000.0)
    }

    /// Returns the value in milliohms.
    #[inline]
    pub const fn as_mohm(self) -> f64 {
        self.0 * 1000.0
    }
}

impl Farads {
    /// Creates a capacitance from microfarads.
    #[inline]
    pub const fn from_uf(uf: f64) -> Self {
        Farads(uf * 1e-6)
    }

    /// Creates a capacitance from nanofarads.
    #[inline]
    pub const fn from_nf(nf: f64) -> Self {
        Farads(nf * 1e-9)
    }
}

impl Henries {
    /// Creates an inductance from picohenries.
    #[inline]
    pub const fn from_ph(ph: f64) -> Self {
        Henries(ph * 1e-12)
    }

    /// Creates an inductance from nanohenries.
    #[inline]
    pub const fn from_nh(nh: f64) -> Self {
        Henries(nh * 1e-9)
    }
}

impl Hertz {
    /// Creates a frequency from megahertz.
    #[inline]
    pub const fn from_mhz(mhz: f64) -> Self {
        Hertz(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    #[inline]
    pub const fn from_ghz(ghz: f64) -> Self {
        Hertz(ghz * 1e9)
    }

    /// Returns the value in megahertz.
    #[inline]
    pub const fn as_mhz(self) -> f64 {
        self.0 / 1e6
    }

    /// Returns the value in gigahertz.
    #[inline]
    pub const fn as_ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Angular frequency ω = 2πf in rad/s.
    #[inline]
    pub fn angular(self) -> f64 {
        2.0 * std::f64::consts::PI * self.0
    }
}

impl Seconds {
    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_us(us: f64) -> Self {
        Seconds(us * 1e-6)
    }

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: f64) -> Self {
        Seconds(ns * 1e-9)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_ms(ms: f64) -> Self {
        Seconds(ms * 1e-3)
    }
}

// --- Physically meaningful mixed-unit arithmetic -------------------------

impl Mul<Amps> for Ohms {
    type Output = Volts;
    /// Ohm's law: `V = R · I`.
    #[inline]
    fn mul(self, rhs: Amps) -> Volts {
        Volts(self.0 * rhs.0)
    }
}

impl Mul<Ohms> for Amps {
    type Output = Volts;
    #[inline]
    fn mul(self, rhs: Ohms) -> Volts {
        Volts(self.0 * rhs.0)
    }
}

impl Div<Ohms> for Volts {
    type Output = Amps;
    /// Ohm's law: `I = V / R`.
    #[inline]
    fn div(self, rhs: Ohms) -> Amps {
        Amps(self.0 / rhs.0)
    }
}

impl Div<Amps> for Volts {
    type Output = Ohms;
    /// Ohm's law: `R = V / I`.
    #[inline]
    fn div(self, rhs: Amps) -> Ohms {
        Ohms(self.0 / rhs.0)
    }
}

impl Mul<Amps> for Volts {
    type Output = Watts;
    /// Electrical power: `P = V · I`.
    #[inline]
    fn mul(self, rhs: Amps) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Volts> for Amps {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Volts) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Div<Volts> for Watts {
    type Output = Amps;
    /// `I = P / V`.
    #[inline]
    fn div(self, rhs: Volts) -> Amps {
        Amps(self.0 / rhs.0)
    }
}

impl Mul<Seconds> for Watts {
    /// Energy in joules (represented as raw `f64` to avoid a unit explosion).
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Seconds) -> f64 {
        self.0 * rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ohms_law_round_trip() {
        let r = Ohms::from_mohm(2.0);
        let i = Amps::new(50.0);
        let v = r * i;
        assert!((v.as_mv() - 100.0).abs() < 1e-9);
        let i2 = v / r;
        assert!((i2.value() - 50.0).abs() < 1e-9);
        let r2 = v / i;
        assert!((r2.as_mohm() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn power_identities() {
        let v = Volts::new(1.2);
        let i = Amps::new(10.0);
        let p = v * i;
        assert!((p.value() - 12.0).abs() < 1e-12);
        let i_back = p / v;
        assert!((i_back.value() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn display_includes_symbol_and_precision() {
        let v = Volts::from_mv(1234.5);
        assert_eq!(format!("{v:.3}"), "1.234 V");
        let z = Ohms::from_mohm(1.6);
        assert_eq!(format!("{z:.4}"), "0.0016 Ω");
    }

    #[test]
    fn unit_conversions() {
        assert!((Hertz::from_ghz(4.2).as_mhz() - 4200.0).abs() < 1e-9);
        assert!((Farads::from_uf(22.0).value() - 22e-6).abs() < 1e-18);
        assert!((Henries::from_ph(30.0).value() - 30e-12).abs() < 1e-24);
        assert!((Seconds::from_us(5.0).value() - 5e-6).abs() < 1e-18);
        assert!((Seconds::from_ns(10.0).value() - 1e-8).abs() < 1e-20);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Volts::new(1.0);
        let b = Volts::new(0.25);
        assert_eq!((a - b).value(), 0.75);
        assert_eq!((a + b).value(), 1.25);
        assert_eq!((a * 2.0).value(), 2.0);
        assert_eq!((a / 4.0).value(), 0.25);
        assert_eq!(a / b, 4.0);
        assert!(b < a);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!((-a).value(), -1.0);
    }

    #[test]
    fn clamp_and_abs() {
        let v = Volts::new(-0.5);
        assert_eq!(v.abs().value(), 0.5);
        assert_eq!(
            Volts::new(2.0).clamp(Volts::ZERO, Volts::new(1.35)).value(),
            1.35
        );
    }

    #[test]
    fn sum_of_quantities() {
        let total: Watts = [Watts::new(1.0), Watts::new(2.5), Watts::new(0.5)]
            .into_iter()
            .sum();
        assert_eq!(total.value(), 4.0);
    }

    #[test]
    fn angular_frequency() {
        let f = Hertz::new(1.0);
        assert!((f.angular() - 2.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn energy_product() {
        let e = Watts::new(10.0) * Seconds::from_ms(100.0);
        assert!((e - 1.0).abs() < 1e-12);
    }
}
