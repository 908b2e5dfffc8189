//! Minimal complex arithmetic for AC (phasor) analysis.
//!
//! The standard library has no complex type and we deliberately avoid an
//! external numerics dependency, so this module provides the small subset of
//! complex arithmetic the impedance analyzer needs: add/sub/mul/div,
//! magnitude, and the parallel-combination helper used for shunt elements.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number in Cartesian form, used as a phasor impedance in ohms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part (resistance for impedances).
    pub re: f64,
    /// Imaginary part (reactance for impedances).
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Magnitude `|z| = sqrt(re² + im²)`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, avoiding the square root.
    #[inline]
    fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    // dg-analyze: allow(unreached-pub, reason = "only complex::tests calls it; deleting it retires that test (ROADMAP item 4)")
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Parallel combination of two impedances: `z1 ∥ z2 = z1·z2 / (z1+z2)`.
    ///
    /// If either operand is zero the result is zero (a short dominates); if
    /// one operand has infinite magnitude the other is returned.
    #[inline]
    pub fn parallel(self, other: Complex) -> Complex {
        if self.abs() == 0.0 || other.abs() == 0.0 {
            return Complex::ZERO;
        }
        if !self.abs().is_finite() {
            return other;
        }
        if !other.abs().is_finite() {
            return self;
        }
        (self * other) / (self + other)
    }

    /// `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert!(close(a + b, Complex::new(4.0, 1.0)));
        assert!(close(a - b, Complex::new(-2.0, 3.0)));
        assert!(close(a * b, Complex::new(5.0, 5.0)));
        let q = a / b;
        // a = q*b must hold.
        assert!(close(q * b, a));
    }

    #[test]
    fn magnitude_and_phase() {
        let z = Complex::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < 1e-12);
        assert!((z.norm_sqr() - 25.0).abs() < 1e-12);
        let j = Complex::new(0.0, 1.0);
        assert!((j.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn reciprocal_round_trip() {
        let z = Complex::new(0.5, -1.5);
        assert!(close((Complex::real(1.0) / z) * z, Complex::real(1.0)));
    }

    #[test]
    fn parallel_of_equal_resistors_halves() {
        let r = Complex::real(2.0);
        assert!(close(r.parallel(r), Complex::real(1.0)));
    }

    #[test]
    fn parallel_with_short_is_short() {
        let r = Complex::real(2.0);
        assert_eq!(r.parallel(Complex::ZERO), Complex::ZERO);
        assert_eq!(Complex::ZERO.parallel(r), Complex::ZERO);
    }

    #[test]
    fn parallel_with_open_is_identity() {
        let r = Complex::real(2.0);
        let open = Complex::real(f64::INFINITY);
        assert!(close(r.parallel(open), r));
        assert!(close(open.parallel(r), r));
    }

    #[test]
    fn conjugate_negates_imaginary() {
        let z = Complex::new(1.0, 2.0);
        assert_eq!(z.conj(), Complex::new(1.0, -2.0));
        assert_eq!((-z), Complex::new(-1.0, -2.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2j");
    }

    #[test]
    fn from_f64() {
        let z: Complex = 3.5.into();
        assert_eq!(z, Complex::real(3.5));
    }
}
