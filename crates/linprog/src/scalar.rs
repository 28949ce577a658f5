//! Numeric abstraction used by the simplex implementation.
//!
//! The same tableau code runs either in floating point (fast, used to locate
//! the optimal vertex on large instances) or in exact rationals (used for
//! small instances and for certification).  [`Scalar`] captures the handful of
//! operations the pivoting code needs; the `f64` implementation compares with
//! a tolerance while the [`Ratio`] implementation is exact.

use steady_rational::Ratio;

/// Field operations and sign tests required by the simplex tableau.
///
/// `PartialEq` is exact equality, not the tolerant [`Scalar::is_zero`]
/// world: the revised solver uses it to tell which simplex multipliers moved
/// since the last pivot, and re-prices only the columns they touch.
pub trait Scalar: Clone + std::fmt::Debug + PartialEq {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Conversion from an exact rational coefficient.
    fn from_ratio(r: &Ratio) -> Self;
    /// Addition.
    fn add(&self, o: &Self) -> Self;
    /// Subtraction.
    fn sub(&self, o: &Self) -> Self;
    /// Multiplication.
    fn mul(&self, o: &Self) -> Self;
    /// Division.
    fn div(&self, o: &Self) -> Self;
    /// Negation.
    fn neg(&self) -> Self;
    /// `true` if the value should be treated as exactly zero.
    fn is_zero(&self) -> bool;
    /// `true` if the value is strictly positive (beyond tolerance).
    fn is_positive(&self) -> bool;
    /// `true` if the value is strictly negative (beyond tolerance).
    fn is_negative(&self) -> bool;
    /// Strict less-than comparison.
    fn lt(&self, o: &Self) -> bool;
    /// Lossy conversion used for reporting.
    fn to_f64(&self) -> f64;
    /// Conversion to an exact rational (possibly approximate for `f64`).
    fn to_ratio(&self) -> Ratio;
}

/// Absolute tolerance used by the floating-point instantiation.
pub const F64_EPS: f64 = 1e-9;

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_ratio(r: &Ratio) -> Self {
        r.to_f64()
    }
    fn add(&self, o: &Self) -> Self {
        self + o
    }
    fn sub(&self, o: &Self) -> Self {
        self - o
    }
    fn mul(&self, o: &Self) -> Self {
        self * o
    }
    fn div(&self, o: &Self) -> Self {
        self / o
    }
    fn neg(&self) -> Self {
        -self
    }
    fn is_zero(&self) -> bool {
        self.abs() <= F64_EPS
    }
    fn is_positive(&self) -> bool {
        *self > F64_EPS
    }
    fn is_negative(&self) -> bool {
        *self < -F64_EPS
    }
    fn lt(&self, o: &Self) -> bool {
        self < o
    }
    fn to_f64(&self) -> f64 {
        *self
    }
    fn to_ratio(&self) -> Ratio {
        Ratio::approximate_f64(*self, 1_000_000_000).unwrap_or_else(Ratio::zero)
    }
}

impl Scalar for Ratio {
    fn zero() -> Self {
        Ratio::zero()
    }
    fn one() -> Self {
        Ratio::one()
    }
    fn from_ratio(r: &Ratio) -> Self {
        r.clone()
    }
    fn add(&self, o: &Self) -> Self {
        self + o
    }
    fn sub(&self, o: &Self) -> Self {
        self - o
    }
    fn mul(&self, o: &Self) -> Self {
        self * o
    }
    fn div(&self, o: &Self) -> Self {
        self / o
    }
    fn neg(&self) -> Self {
        -self
    }
    fn is_zero(&self) -> bool {
        Ratio::is_zero(self)
    }
    fn is_positive(&self) -> bool {
        Ratio::is_positive(self)
    }
    fn is_negative(&self) -> bool {
        Ratio::is_negative(self)
    }
    fn lt(&self, o: &Self) -> bool {
        self < o
    }
    fn to_f64(&self) -> f64 {
        Ratio::to_f64(self)
    }
    fn to_ratio(&self) -> Ratio {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_rational::rat;

    #[test]
    fn f64_tolerance() {
        assert!(Scalar::is_zero(&1e-12f64));
        assert!(!Scalar::is_zero(&1e-6f64));
        assert!(Scalar::is_positive(&1e-6f64));
        assert!(Scalar::is_negative(&-1e-6f64));
        assert!(!Scalar::is_positive(&1e-12f64));
    }

    #[test]
    fn ratio_exactness() {
        let a = rat(1, 3);
        let b = rat(2, 3);
        assert!(Scalar::is_zero(&a.add(&b).sub(&Ratio::one())));
        assert!(Scalar::is_positive(&rat(1, 1_000_000_000)));
    }

    #[test]
    fn round_trips() {
        assert_eq!(<f64 as Scalar>::from_ratio(&rat(1, 2)), 0.5);
        assert_eq!(Scalar::to_ratio(&0.5f64), rat(1, 2));
        assert_eq!(<Ratio as Scalar>::from_ratio(&rat(5, 7)), rat(5, 7));
    }
}
