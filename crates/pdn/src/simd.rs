//! Portable explicit-SIMD lane arithmetic for the transient kernel.
//!
//! The kernel in [`crate::batch`] integrates independent scenarios
//! ("lanes") in blocks of [`Lanes::WIDTH`], carrying each block's state in
//! local vector arrays. Its arithmetic is pure element-wise f64 work across
//! lanes, which this module expresses explicitly: a [`Lanes`] trait over
//! the array-backed [`F64x4`] newtype plus the plain `f64` scalar fallback.
//!
//! Two invariants make the wrapper safe to dispatch at any width:
//!
//! * **Lanes never mix.** Every operation is a per-element IEEE-754 add,
//!   subtract, or multiply in lane order — never a horizontal reduction and
//!   never a fused multiply-add (Rust does not contract `a * b + c`). An
//!   element's value therefore depends only on its own lane's inputs, and
//!   every width produces bit-identical results element-for-element.
//! * **One dispatch seam.** [`KernelWidth::detect`] is the only place in the
//!   workspace allowed to query CPU features at runtime (enforced by
//!   `dg-analyze`'s determinism-hygiene rule); the kernel picks a width once
//!   per batch, and lanes past the last full block run the scalar
//!   implementation.
//!
//! [`F64x4`] is a plain `[f64; 4]` array, not `std::arch` intrinsics: the
//! kernel's x4 entry point is compiled under
//! `#[target_feature(enable = "avx2")]`, where LLVM lowers the per-element
//! loops to ymm instructions. Off x86-64, or on CPUs without AVX2, the same
//! generic code compiles portably.

/// Kernel vector width, selected once per batch at the dispatch seam.
///
/// Widths are ordered narrowest-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelWidth {
    /// One lane per block — the portable fallback, and the reference
    /// semantics the wider width must reproduce bit-for-bit.
    Scalar,
    /// Four f64 lanes per block (AVX2 ymm registers).
    X4,
}

impl KernelWidth {
    /// Every width, narrowest first (bench and equivalence tests iterate
    /// this).
    pub const ALL: [KernelWidth; 2] = [KernelWidth::Scalar, KernelWidth::X4];

    /// Number of f64 lanes integrated together in one block.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            KernelWidth::Scalar => 1,
            KernelWidth::X4 => 4,
        }
    }

    /// Stable label used in bench rows and diagnostics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KernelWidth::Scalar => "scalar",
            KernelWidth::X4 => "x4",
        }
    }

    /// The kernel width for the running CPU: x4 under AVX2, else scalar.
    ///
    /// This is the workspace's **only** runtime CPU-feature query: every
    /// other module takes a [`KernelWidth`] value and trusts it. The choice
    /// cannot perturb results — all widths are bit-identical — so dispatch
    /// stays outside the determinism contract by construction. There is no
    /// wider width: an 8-lane block needs two ymm registers per state row
    /// and spills under AVX2, and the AVX-512 build measured slower than
    /// x4 on every host it ran on (DESIGN.md §11).
    #[must_use]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            // dg-analyze: allow(determinism-hygiene, reason = "the single sanctioned dispatch seam; all widths are bit-identical")
            if std::arch::is_x86_feature_detected!("avx2") {
                return KernelWidth::X4;
            }
        }
        KernelWidth::Scalar
    }
}

/// Element-wise f64 arithmetic over a fixed number of lanes.
///
/// Implementations must be pure per-element IEEE-754 operations in lane
/// order with no fused multiply-add and no cross-lane interaction, so that
/// any two implementations agree bit-for-bit element-for-element. The
/// kernel's golden and equivalence tests pin this contract.
pub trait Lanes: Copy {
    /// Number of f64 elements per vector.
    const WIDTH: usize;

    /// Broadcasts `x` into every lane.
    fn splat(x: f64) -> Self;

    /// Builds a vector whose lane `j` is `f(j)`.
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self;

    /// Loads `Self::WIDTH` elements from the head of `src`; a shorter
    /// slice loads zeros in the missing lanes rather than panicking.
    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        Self::from_fn(|j| src.get(j).copied().unwrap_or(0.0))
    }

    /// Lane `j`'s value (`j < Self::WIDTH`).
    fn lane(self, j: usize) -> f64;

    /// Lane-wise addition.
    #[must_use]
    fn add(self, rhs: Self) -> Self;

    /// Lane-wise subtraction.
    #[must_use]
    fn sub(self, rhs: Self) -> Self;

    /// Lane-wise multiplication.
    #[must_use]
    fn mul(self, rhs: Self) -> Self;
}

impl Lanes for f64 {
    const WIDTH: usize = 1;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        x
    }

    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        f(0)
    }

    #[inline(always)]
    fn lane(self, _j: usize) -> f64 {
        self
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
}

/// Four f64 lanes backed by a plain array; lowers to one ymm register
/// under AVX2 codegen and to SSE2 pairs portably.
#[derive(Debug, Clone, Copy)]
pub struct F64x4([f64; 4]);

impl Lanes for F64x4 {
    const WIDTH: usize = 4;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        F64x4([x; 4])
    }

    #[inline(always)]
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        F64x4(core::array::from_fn(f))
    }

    #[inline(always)]
    fn lane(self, j: usize) -> f64 {
        self.0[j % 4]
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        F64x4(core::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        F64x4(core::array::from_fn(|i| self.0[i] - rhs.0[i]))
    }

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        F64x4(core::array::from_fn(|i| self.0[i] * rhs.0[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe<L: Lanes>() {
        let xs: Vec<f64> = (0..L::WIDTH).map(|i| 1.5 + i as f64).collect();
        let ys: Vec<f64> = (0..L::WIDTH).map(|i| 0.25 * (i as f64 + 1.0)).collect();
        let x = L::load(&xs);
        let y = L::from_fn(|j| ys[j]);
        for i in 0..L::WIDTH {
            assert_eq!(x.add(y).lane(i).to_bits(), (xs[i] + ys[i]).to_bits());
            assert_eq!(x.sub(y).lane(i).to_bits(), (xs[i] - ys[i]).to_bits());
            assert_eq!(x.mul(y).lane(i).to_bits(), (xs[i] * ys[i]).to_bits());
            assert_eq!(L::splat(3.75).lane(i).to_bits(), 3.75f64.to_bits());
        }
    }

    #[test]
    fn lane_ops_match_scalar_bitwise_at_every_width() {
        probe::<f64>();
        probe::<F64x4>();
    }

    #[test]
    fn short_loads_fill_missing_lanes_with_zero() {
        let v = F64x4::load(&[7.0, 8.0]);
        let lanes: Vec<f64> = (0..4).map(|j| v.lane(j)).collect();
        assert_eq!(lanes, [7.0, 8.0, 0.0, 0.0]);
        assert_eq!(f64::load(&[]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn detect_is_stable_and_ordered() {
        let w = KernelWidth::detect();
        assert_eq!(w, KernelWidth::detect());
        assert!(KernelWidth::Scalar <= w);
        assert_eq!(KernelWidth::ALL.map(KernelWidth::lanes), [1, 4]);
        assert_eq!(KernelWidth::Scalar.label(), "scalar");
        assert_eq!(KernelWidth::X4.label(), "x4");
    }
}
