//! Scalar abstraction so the solver can run in `f32` (the production path,
//! matching the hardware's precision class) or `f64` (for numerical tests
//! where floating-point noise would obscure invariants).

use std::any::TypeId;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A real scalar the Chambolle solver can compute with.
///
/// Implemented for [`f32`] and [`f64`]. The trait is sealed: the solver's
/// numerical guarantees are only validated for these two types.
pub trait Real:
    'static
    + Copy
    + PartialEq
    + PartialOrd
    + Debug
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + AddAssign
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + private::Sealed
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Conversion from `f32` (exact for `f64`).
    fn from_f32(v: f32) -> Self;
    /// Conversion from `f64` (may round for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Lossless widening to `f64`.
    fn to_f64(self) -> f64;
    /// Narrowing to `f32`.
    fn to_f32(self) -> f32;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `true` if the value is finite (not NaN/±inf).
    fn is_finite(self) -> bool;
}

mod private {
    /// Prevents downstream `Real` impls; see `C-SEALED`.
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn from_f32(v: f32) -> Self {
        v
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline]
    fn sqrt(self) -> Self {
        self.sqrt()
    }
    #[inline]
    fn abs(self) -> Self {
        self.abs()
    }
    #[inline]
    fn is_finite(self) -> bool {
        self.is_finite()
    }
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn from_f32(v: f32) -> Self {
        v as f64
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self as f32
    }
    #[inline]
    fn sqrt(self) -> Self {
        self.sqrt()
    }
    #[inline]
    fn abs(self) -> Self {
        self.abs()
    }
    #[inline]
    fn is_finite(self) -> bool {
        self.is_finite()
    }
}

/// Reinterprets `&[R]` as `&[f32]` iff `R` *is* `f32`.
#[inline]
pub(crate) fn f32_slice<R: Real>(s: &[R]) -> Option<&[f32]> {
    if TypeId::of::<R>() == TypeId::of::<f32>() {
        // SAFETY: the TypeId check proves R == f32, so element layout,
        // length and lifetime all carry over unchanged.
        Some(unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<f32>(), s.len()) })
    } else {
        None
    }
}

/// Reinterprets `&mut [R]` as `&mut [f32]` iff `R` *is* `f32`.
#[inline]
pub(crate) fn f32_slice_mut<R: Real>(s: &mut [R]) -> Option<&mut [f32]> {
    if TypeId::of::<R>() == TypeId::of::<f32>() {
        // SAFETY: the TypeId check proves R == f32; the mutable borrow is
        // passed through exclusively.
        Some(unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<f32>(), s.len()) })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_sum<R: Real>(vals: &[f32]) -> f64 {
        let mut acc = R::ZERO;
        for &v in vals {
            acc += R::from_f32(v);
        }
        acc.to_f64()
    }

    #[test]
    fn both_impls_agree_on_simple_sums() {
        let vals = [1.0, 2.5, -0.5];
        assert_eq!(generic_sum::<f32>(&vals), 3.0);
        assert_eq!(generic_sum::<f64>(&vals), 3.0);
    }

    #[test]
    fn sqrt_abs_finite() {
        assert_eq!(<f32 as Real>::sqrt(4.0), 2.0);
        assert_eq!(<f64 as Real>::abs(-3.0), 3.0);
        assert!(!<f32 as Real>::is_finite(f32::NAN));
        assert!(<f64 as Real>::is_finite(1e300));
    }
}
