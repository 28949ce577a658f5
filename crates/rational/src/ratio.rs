//! Exact rational numbers built on [`BigInt`].
//!
//! [`Ratio`] is always kept in canonical form: the denominator is strictly
//! positive and `gcd(|num|, den) = 1`.  All the scheduling algorithms of the
//! workspace (LP solving, period computation, matching decomposition,
//! reduction-tree extraction) manipulate `Ratio` values so that the schedules
//! they produce are provably feasible, not feasible-up-to-rounding.
//!
//! # The small-word path
//!
//! When all four parts of an operation are inline [`BigInt`]s (each fits
//! `i64`, which is the case for every operation the workspace's benchmarks
//! perform), `+`, `-`, `*`, `/`, comparison, [`Ratio::new`] and
//! [`Ratio::from_frac`] work on machine words and never touch the heap:
//! cross products are widened to `i128` (two 63-bit factors, and the sum of
//! two such products, always fit) and common factors are removed with a
//! `u64` gcd *before* multiplying, as in Knuth, TAOCP vol. 2 §4.5.1 — for a
//! sum, `g = gcd(b, d)` first, and when `g = 1` the result `(ad + cb) / bd`
//! is already in lowest terms; for a product, `gcd(a, d)` and `gcd(c, b)` are
//! cancelled crosswise.  A result part that outgrows `i64` is promoted to the
//! limb form by `BigInt::from(i128)`; operands in limb form take the general
//! route (`BigInt` products, then [`Ratio::new`]'s gcd and two divisions).
//! Both routes produce the same canonical value.

use crate::bigint::{gcd_u64, BigInt, ParseBigIntError};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) = 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: BigInt,
    den: BigInt,
}

/// Error returned when parsing a [`Ratio`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatioError {
    /// Human-readable description of the failure.
    pub reason: String,
}

impl fmt::Display for ParseRatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational: {}", self.reason)
    }
}

impl std::error::Error for ParseRatioError {}

impl From<ParseBigIntError> for ParseRatioError {
    fn from(e: ParseBigIntError) -> Self {
        ParseRatioError { reason: e.reason }
    }
}

impl Ratio {
    /// The rational 0.
    pub fn zero() -> Self {
        Ratio { num: BigInt::zero(), den: BigInt::one() }
    }

    /// The rational 1.
    pub fn one() -> Self {
        Ratio { num: BigInt::one(), den: BigInt::one() }
    }

    /// Builds `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        if let (Some(n), Some(d)) = (num.as_small(), den.as_small()) {
            return Ratio::reduced(n, d);
        }
        let mut num = num;
        let mut den = den;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        if num.is_zero() {
            return Ratio::zero();
        }
        let g = num.gcd(&den);
        if !g.is_one() {
            num = &num / &g;
            den = &den / &g;
        }
        Ratio { num, den }
    }

    /// Builds the rational `n / d` from machine integers.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn from_frac(n: i64, d: i64) -> Self {
        assert!(d != 0, "rational with zero denominator");
        Ratio::reduced(n, d)
    }

    /// `n / d` for `d != 0` on machine words: sign to the numerator, common
    /// factor out.  Only `i64::MIN` can make a part outgrow `i64`.
    fn reduced(n: i64, d: i64) -> Ratio {
        let g = gcd_u64(n.unsigned_abs(), d.unsigned_abs()) as i128;
        let (n, d) = (n as i128 / g, d as i128 / g);
        if d < 0 {
            Ratio::lowest_terms(-n, -d)
        } else {
            Ratio::lowest_terms(n, d)
        }
    }

    /// Wraps a numerator and a strictly positive denominator that are
    /// already coprime; each part is stored inline when it fits `i64`.
    #[inline]
    fn lowest_terms(num: i128, den: i128) -> Ratio {
        debug_assert!(den > 0);
        Ratio { num: BigInt::from(num), den: BigInt::from(den) }
    }

    /// Numerator and denominator as machine words when both are inline.
    #[inline]
    fn small(&self) -> Option<(i64, i64)> {
        Some((self.num.as_small()?, self.den.as_small()?))
    }

    /// `a, b, c, d` of `self = a/b` and `other = c/d` when all four are
    /// inline: the gate of the small-word path.
    #[inline]
    fn small_parts(&self, other: &Ratio) -> Option<(i64, i64, i64, i64)> {
        let ((a, b), (c, d)) = (self.small()?, other.small()?);
        Some((a, b, c, d))
    }

    /// `a/b + c/d` on machine words (`b, d > 0`, both fractions in lowest
    /// terms; `c` is widened so that a subtraction can pass `-c`).
    ///
    /// Knuth, TAOCP vol. 2 §4.5.1: with `g = gcd(b, d)`, the sum is
    /// `t / (b/g · d)` for `t = a·(d/g) + c·(b/g)`, and the only factor `t`
    /// can still share with that denominator divides `g`.  No `i128`
    /// overflow: `|a|, |c| ≤ 2^63` and `b, d < 2^63` bound each product by
    /// `2^126` and their sum by `2^127 - 2^64`.
    fn add_small(a: i64, b: i64, c: i128, d: i64) -> Ratio {
        let a = a as i128;
        let g = gcd_u64(b as u64, d as u64);
        if g == 1 {
            return Ratio::lowest_terms(a * d as i128 + c * b as i128, b as i128 * d as i128);
        }
        let b_over_g = (b as u64 / g) as i128;
        let t = a * (d as u64 / g) as i128 + c * b_over_g;
        if t == 0 {
            return Ratio::zero();
        }
        let g2 = gcd_u64((t.unsigned_abs() % g as u128) as u64, g);
        Ratio::lowest_terms(t / g2 as i128, b_over_g * (d as u64 / g2) as i128)
    }

    /// `a/b · c/d` on machine words (`b, d > 0` and at most `2^63`, so that a
    /// division can pass `|divisor numerator|`; both fractions in lowest
    /// terms).  The common factors can only sit crosswise, and with them gone
    /// the products (below `2^126`) are already coprime.
    fn mul_small(a: i64, b: u64, c: i64, d: u64) -> Ratio {
        if a == 0 || c == 0 {
            return Ratio::zero();
        }
        let g_ad = gcd_u64(a.unsigned_abs(), d);
        let g_cb = gcd_u64(c.unsigned_abs(), b);
        Ratio::lowest_terms(
            (a as i128 / g_ad as i128) * (c as i128 / g_cb as i128),
            (b / g_cb) as i128 * (d / g_ad) as i128,
        )
    }

    /// Builds the integer rational `n`.
    pub fn from_int(n: i64) -> Self {
        Ratio { num: BigInt::from(n), den: BigInt::one() }
    }

    /// Numerator (sign-carrying part).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always strictly positive).
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// Returns `true` iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Returns `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Returns `true` iff the value is an integer (denominator 1).
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Absolute value.
    pub fn abs(&self) -> Ratio {
        Ratio { num: self.num.abs(), den: self.den.clone() }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Ratio {
        assert!(!self.is_zero(), "reciprocal of zero");
        // Swapping coprime parts leaves them coprime: only the sign moves.
        if self.num.is_negative() {
            Ratio { num: -&self.den, den: -&self.num }
        } else {
            Ratio { num: self.den.clone(), den: self.num.clone() }
        }
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_negative() {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_positive() {
            q + BigInt::one()
        } else {
            q
        }
    }

    /// Lossy conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        if let Some((n, d)) = self.small() {
            return n as f64 / d as f64;
        }
        // Scale so that both operands fit comfortably in f64 range when they
        // are huge: shift both by the same power of two.
        let nb = self.num.bits() as i64;
        let db = self.den.bits() as i64;
        if nb < 900 && db < 900 {
            return self.num.to_f64() / self.den.to_f64();
        }
        // Rare path for extremely large operands: compute via quotient+remainder.
        let scale = BigInt::from(2u64).pow(64);
        let scaled = (&self.num * &scale).div_rem(&self.den).0;
        scaled.to_f64() / 1.8446744073709552e19
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Best rational approximation of an `f64` with denominator bounded by
    /// `max_den`, computed with the Stern–Brocot / continued-fraction method.
    ///
    /// Used by the fixed-period approximation path when an LP is solved in
    /// floating point first (§4.6 of the paper): the resulting rates are
    /// rationalized before being scaled to an integer period.
    ///
    /// Returns `None` for non-finite inputs.
    pub fn approximate_f64(value: f64, max_den: u64) -> Option<Ratio> {
        if !value.is_finite() {
            return None;
        }
        let max_den = max_den.max(1);
        let negative = value < 0.0;
        let mut x = value.abs();
        // Continued-fraction convergents p_k / q_k.
        let (mut p0, mut q0, mut p1, mut q1) = (0u128, 1u128, 1u128, 0u128);
        for _ in 0..64 {
            let a = x.floor();
            if a > u64::MAX as f64 {
                break;
            }
            let a_int = a as u128;
            let p2 = a_int.saturating_mul(p1).saturating_add(p0);
            let q2 = a_int.saturating_mul(q1).saturating_add(q0);
            if q2 > max_den as u128 {
                break;
            }
            p0 = p1;
            q0 = q1;
            p1 = p2;
            q1 = q2;
            let frac = x - a;
            if frac < 1e-15 {
                break;
            }
            x = 1.0 / frac;
        }
        if q1 == 0 {
            return Some(Ratio::zero());
        }
        let mut r = Ratio::new(BigInt::from(p1), BigInt::from(q1));
        if negative {
            r = -r;
        }
        Some(r)
    }

    /// `self * n / d` using machine integers, convenient in tests.
    pub fn scale(&self, n: i64, d: i64) -> Ratio {
        self * &Ratio::from_frac(n, d)
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::zero()
    }
}

impl From<i64> for Ratio {
    fn from(v: i64) -> Self {
        Ratio::from_int(v)
    }
}

impl From<u64> for Ratio {
    fn from(v: u64) -> Self {
        Ratio { num: BigInt::from(v), den: BigInt::one() }
    }
}

impl From<i32> for Ratio {
    fn from(v: i32) -> Self {
        Ratio::from_int(v as i64)
    }
}

impl From<usize> for Ratio {
    fn from(v: usize) -> Self {
        Ratio { num: BigInt::from(v), den: BigInt::one() }
    }
}

impl From<BigInt> for Ratio {
    fn from(v: BigInt) -> Self {
        Ratio { num: v, den: BigInt::one() }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d (b, d > 0)  <=>  a*d vs c*b
        if let Some((a, b, c, d)) = self.small_parts(other) {
            return (a as i128 * d as i128).cmp(&(c as i128 * b as i128));
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Neg for &Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio { num: -&self.num, den: self.den.clone() }
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        -&self
    }
}

impl Add for &Ratio {
    type Output = Ratio;
    fn add(self, other: &Ratio) -> Ratio {
        if let Some((a, b, c, d)) = self.small_parts(other) {
            return Ratio::add_small(a, b, c as i128, d);
        }
        Ratio::new(&self.num * &other.den + &other.num * &self.den, &self.den * &other.den)
    }
}

impl Sub for &Ratio {
    type Output = Ratio;
    fn sub(self, other: &Ratio) -> Ratio {
        if let Some((a, b, c, d)) = self.small_parts(other) {
            return Ratio::add_small(a, b, -(c as i128), d);
        }
        Ratio::new(&self.num * &other.den - &other.num * &self.den, &self.den * &other.den)
    }
}

impl Mul for &Ratio {
    type Output = Ratio;
    fn mul(self, other: &Ratio) -> Ratio {
        if let Some((a, b, c, d)) = self.small_parts(other) {
            return Ratio::mul_small(a, b as u64, c, d as u64);
        }
        Ratio::new(&self.num * &other.num, &self.den * &other.den)
    }
}

impl Div for &Ratio {
    type Output = Ratio;
    fn div(self, other: &Ratio) -> Ratio {
        assert!(!other.is_zero(), "division by zero rational");
        if let Some((a, b, c, d)) = self.small_parts(other) {
            // Multiply by `d/c` with the divisor's sign moved to `d`.
            return Ratio::mul_small(a, b as u64, if c < 0 { -d } else { d }, c.unsigned_abs());
        }
        Ratio::new(&self.num * &other.den, &self.den * &other.num)
    }
}

macro_rules! forward_ratio_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident) => {
        impl $trait for Ratio {
            type Output = Ratio;
            fn $method(self, other: Ratio) -> Ratio {
                (&self).$method(&other)
            }
        }
        impl $trait<&Ratio> for Ratio {
            type Output = Ratio;
            fn $method(self, other: &Ratio) -> Ratio {
                (&self).$method(other)
            }
        }
        impl $trait<Ratio> for &Ratio {
            type Output = Ratio;
            fn $method(self, other: Ratio) -> Ratio {
                self.$method(&other)
            }
        }
        impl $assign_trait<&Ratio> for Ratio {
            fn $assign_method(&mut self, other: &Ratio) {
                *self = (&*self).$method(other);
            }
        }
        impl $assign_trait<Ratio> for Ratio {
            fn $assign_method(&mut self, other: Ratio) {
                *self = (&*self).$method(&other);
            }
        }
    };
}

forward_ratio_binop!(Add, add, AddAssign, add_assign);
forward_ratio_binop!(Sub, sub, SubAssign, sub_assign);
forward_ratio_binop!(Mul, mul, MulAssign, mul_assign);
forward_ratio_binop!(Div, div, DivAssign, div_assign);

impl Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |acc, x| acc + x)
    }
}

impl<'a> Sum<&'a Ratio> for Ratio {
    fn sum<I: Iterator<Item = &'a Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |acc, x| acc + x)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl FromStr for Ratio {
    type Err = ParseRatioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        match s.split_once('/') {
            None => Ok(Ratio::from(s.parse::<BigInt>()?)),
            Some((n, d)) => {
                let num: BigInt = n.trim().parse()?;
                let den: BigInt = d.trim().parse()?;
                if den.is_zero() {
                    return Err(ParseRatioError { reason: "zero denominator".into() });
                }
                Ok(Ratio::new(num, den))
            }
        }
    }
}

/// Least common multiple of the denominators of a collection of rationals.
///
/// This is the period `T` of the paper's periodic schedules: multiplying every
/// LP variable by `lcm_of_denominators` yields integer message counts.
pub fn lcm_of_denominators<'a, I>(values: I) -> BigInt
where
    I: IntoIterator<Item = &'a Ratio>,
{
    let mut acc = BigInt::one();
    for v in values {
        acc = acc.lcm(v.denom());
        if acc.is_zero() {
            acc = BigInt::one();
        }
    }
    acc
}

#[cfg(test)]
impl Ratio {
    /// The same value with both parts in limb form (see
    /// `BigInt::forced_limbs`): every operator sends it down the general route.
    fn forced_limbs(&self) -> Ratio {
        Ratio { num: self.num.forced_limbs(), den: self.den.forced_limbs() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::from_frac(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(0, 17), Ratio::zero());
        assert_eq!(r(6, -4), r(-3, 2));
        assert!(r(1, 2).denom().is_positive());
        assert!(r(-1, 2).denom().is_positive());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(2, 3) / r(4, 9), r(3, 2));
        assert_eq!(-r(2, 3), r(-2, 3));
        assert_eq!(r(1, 3) + r(2, 3), Ratio::one());
    }

    #[test]
    fn assign_ops() {
        let mut x = r(1, 2);
        x += r(1, 3);
        assert_eq!(x, r(5, 6));
        x -= r(1, 6);
        assert_eq!(x, r(2, 3));
        x *= r(3, 2);
        assert_eq!(x, Ratio::one());
        x /= r(1, 4);
        assert_eq!(x, r(4, 1));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == Ratio::one());
        assert!(r(-5, 3) < Ratio::zero());
        assert_eq!(r(1, 2).max(r(2, 3)), r(2, 3));
        assert_eq!(r(1, 2).min(r(2, 3)), r(1, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(r(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(r(4, 2).floor(), BigInt::from(2i64));
        assert_eq!(r(4, 2).ceil(), BigInt::from(2i64));
        assert_eq!(Ratio::zero().floor(), BigInt::zero());
    }

    #[test]
    fn recip() {
        assert_eq!(r(3, 4).recip(), r(4, 3));
        assert_eq!(r(-3, 4).recip(), r(-4, 3));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Ratio::zero().recip();
    }

    #[test]
    fn to_f64() {
        assert!((r(1, 2).to_f64() - 0.5).abs() < 1e-12);
        assert!((r(-22, 7).to_f64() + 22.0 / 7.0).abs() < 1e-12);
        assert_eq!(Ratio::zero().to_f64(), 0.0);
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in ["0", "5", "-5", "1/2", "-7/3", "22/7"] {
            let v: Ratio = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert_eq!(" 4 / 6 ".parse::<Ratio>().unwrap(), r(2, 3));
        assert!("1/0".parse::<Ratio>().is_err());
        assert!("x/2".parse::<Ratio>().is_err());
    }

    #[test]
    fn sum_iterator() {
        let parts = vec![r(1, 6); 6];
        let total: Ratio = parts.iter().sum();
        assert_eq!(total, Ratio::one());
        let total_owned: Ratio = parts.into_iter().sum();
        assert_eq!(total_owned, Ratio::one());
    }

    #[test]
    fn lcm_of_denominators_matches_paper_examples() {
        // Figure 2: throughput 1/2 and per-edge rates with denominators 2, 3, 4
        // lead to the period 12 used in the paper.
        let values = vec![r(1, 2), r(1, 3), r(1, 4), r(3, 4)];
        assert_eq!(lcm_of_denominators(&values), BigInt::from(12i64));
        // Figure 6: all denominators are 3 -> period 3.
        let values = vec![r(2, 3), r(1, 3), Ratio::one()];
        assert_eq!(lcm_of_denominators(&values), BigInt::from(3i64));
        // Empty input -> period 1.
        assert_eq!(lcm_of_denominators(&[]), BigInt::one());
    }

    #[test]
    fn approximate_f64() {
        assert_eq!(Ratio::approximate_f64(0.5, 100).unwrap(), r(1, 2));
        assert_eq!(Ratio::approximate_f64(-0.25, 100).unwrap(), r(-1, 4));
        assert_eq!(Ratio::approximate_f64(2.0 / 9.0, 1000).unwrap(), r(2, 9));
        assert_eq!(Ratio::approximate_f64(0.0, 100).unwrap(), Ratio::zero());
        let third = Ratio::approximate_f64(1.0 / 3.0, 10).unwrap();
        assert_eq!(third, r(1, 3));
        assert!(Ratio::approximate_f64(f64::NAN, 10).is_none());
        assert!(Ratio::approximate_f64(f64::INFINITY, 10).is_none());
        // Golden ratio with a small denominator bound: best convergent 8/5 or 13/8.
        let phi = Ratio::approximate_f64(1.618033988749895, 8).unwrap();
        assert_eq!(phi, r(13, 8));
    }

    #[test]
    fn scale_helper() {
        assert_eq!(r(1, 3).scale(3, 2), r(1, 2));
    }
    /// Asserts that `limb`, a result of the general route, is the small-word
    /// route's `small`: canonical parts, `==`, lowest terms, positive denominator.
    fn assert_same(small: &Ratio, limb: &Ratio, what: &str) {
        for part in [small.numer(), small.denom(), limb.numer(), limb.denom()] {
            assert!(part.is_canonical(), "{what}: part {part:?} is not canonical");
        }
        assert_eq!(small, limb, "{what}");
        assert!(small.denom().is_positive(), "{what}: denominator of {small}");
        assert!(small.numer().gcd(small.denom()).is_one(), "{what}: {small} is not reduced");
    }

    /// Every operator on `x`, `y` through every mix of forms.
    fn check_all_forms(x: &Ratio, y: &Ratio) {
        let forms = |v: &Ratio| [v.clone(), v.forced_limbs()];
        for (fx, fy) in forms(x).iter().flat_map(|fx| forms(y).map(|fy| (fx.clone(), fy))) {
            let what = format!("{x} ? {y} as {fx:?}, {fy:?}");
            assert_same(&(x + y), &(&fx + &fy), &format!("add {what}"));
            assert_same(&(x - y), &(&fx - &fy), &format!("sub {what}"));
            assert_same(&(x * y), &(&fx * &fy), &format!("mul {what}"));
            if !y.is_zero() {
                assert_same(&(x / y), &(&fx / &fy), &format!("div {what}"));
            }
            assert_eq!(x.cmp(y), fx.cmp(&fy), "cmp {what}");
        }
        // One-operand operations keep their operand's parts, so the forced
        // operand's results are compared as values (`Display` encodes one).
        let fx = x.forced_limbs();
        assert_eq!((-x).to_string(), (-&fx).to_string(), "neg {x}");
        assert_eq!(x.abs().to_string(), fx.abs().to_string(), "abs {x}");
        assert_eq!(x.floor(), fx.floor(), "floor {x}");
        assert_eq!(x.ceil(), fx.ceil(), "ceil {x}");
        assert_eq!(x.to_f64().to_bits(), fx.to_f64().to_bits(), "to_f64 {x}");
        if !x.is_zero() {
            assert_eq!(x.recip().to_string(), fx.recip().to_string(), "recip {x}");
            assert_same(&x.recip(), &(&Ratio::one() / x), &format!("recip {x} against 1/x"));
            assert_eq!(x.to_string(), fx.to_string(), "display {x}");
        }
        assert_same(&-x, &(&Ratio::zero() - x), &format!("neg {x} against 0 - x"));
        // `new` reduces unreduced inline and limb inputs alike.
        let k = BigInt::from(6i64);
        let unreduced = (x.numer() * &k, x.denom() * &k);
        assert_same(x, &Ratio::new(unreduced.0.clone(), unreduced.1.clone()), "new");
        assert_same(x, &Ratio::new(unreduced.0.forced_limbs(), unreduced.1.forced_limbs()), "new");
        assert_same(x, &Ratio::new(-unreduced.0, -unreduced.1), "new, negative denominator");
    }

    /// Numerators and denominators around which a part changes form.
    fn boundary_parts() -> Vec<i64> {
        let mut parts = vec![1, 2, 3, 6, 1 << 31, 3_037_000_499, 3_037_000_500, i64::MAX - 2];
        parts.extend([i64::MAX - 1, i64::MAX]);
        parts.iter().flat_map(|&v| [v, -v]).chain([0, i64::MIN, i64::MIN + 1]).collect()
    }

    #[test]
    fn forms_agree_at_the_boundaries() {
        let parts = boundary_parts();
        let mut values = Vec::new();
        for &n in &parts {
            for &d in parts.iter().filter(|&&d| d != 0) {
                let value = Ratio::from_frac(n, d);
                // `new` keeps parts that need no reduction, forced form and
                // all, so this one is compared as a value.
                let limbs =
                    Ratio::new(BigInt::from(n).forced_limbs(), BigInt::from(d).forced_limbs());
                assert_eq!(value.to_string(), limbs.to_string(), "from_frac({n}, {d})");
                assert_same(&value, &Ratio::new(BigInt::from(n), BigInt::from(d)), "new");
                values.push(value);
            }
        }
        values.sort();
        values.dedup();
        // Every third value keeps the pair count near 10^4 and still mixes
        // all the boundary numerators with all the boundary denominators.
        let sample: Vec<&Ratio> = values.iter().step_by(3).collect();
        for x in &sample {
            for y in &sample {
                check_all_forms(x, y);
            }
        }
    }

    #[test]
    fn widening_is_exact_where_machine_words_overflow() {
        let big = |v: i128| BigInt::from(v);
        // Products that overflow `i64` but not `i128`.
        let x = r(i64::MAX, 3) * r(i64::MAX - 1, 5);
        let product = i64::MAX as i128 * (i64::MAX as i128 - 1);
        assert_eq!(x, Ratio::new(big(product), big(15)));
        assert!(!x.numer().is_inline() && x.denom().is_inline());
        let y = r(1, i64::MAX) * r(1, i64::MAX);
        assert_eq!(y.denom().to_i128(), Some(i64::MAX as i128 * i64::MAX as i128));
        // ... and come back inline when a later operation cancels them.
        let back = &x / &r(i64::MAX - 1, 5);
        assert_same(&r(i64::MAX, 3), &back, "(MAX/3 · (MAX-1)/5) / ((MAX-1)/5)");
        assert!(back.numer().is_inline());
        // The widest sum there is: two numerators of `-2^63` over the two
        // largest coprime denominators, `-2^63 · (2^64 - 4)`, 2^65 short of
        // `i128::MIN`.  A third term no longer fits and takes the limb route.
        let (p, q) = (r(i64::MIN, i64::MAX), r(i64::MIN, i64::MAX - 2));
        let widest = &p + &q;
        let numerator = (i64::MIN as i128) * ((1i128 << 64) - 4);
        assert_eq!(widest.numer().to_i128(), Some(numerator));
        assert_same(&widest, &(&p.forced_limbs() + &q.forced_limbs()), "widest sum");
        let wider = &widest + &p;
        assert_eq!(wider.numer().to_i128(), None);
        assert_same(&wider, &(&widest.forced_limbs() + &p.forced_limbs()), "past i128");
        assert_same(&q, &(&(&wider - &p) - &p), "and back");
        // `i64::MIN` in every seat of a constructor, a reciprocal and a division.
        assert_eq!(r(i64::MIN, i64::MIN), Ratio::one());
        assert_eq!(r(1, i64::MIN), Ratio::new(big(-1), big(1 << 63)));
        assert_eq!(r(i64::MIN, 1).recip(), r(1, i64::MIN));
        assert_eq!(r(1, i64::MIN).recip(), r(i64::MIN, 1));
        assert_eq!(&r(3, 1) / &r(i64::MIN, 1), Ratio::new(big(-3), big(1 << 63)));
        assert_eq!((-r(i64::MIN, 1)).numer().to_i128(), Some(1 << 63));
        assert_eq!(r(i64::MIN, 1).abs(), -r(i64::MIN, 1));
    }

    #[test]
    fn both_types_stay_as_wide_as_the_limb_form_alone() {
        assert!(std::mem::size_of::<BigInt>() <= 32);
        assert!(std::mem::size_of::<Ratio>() <= 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn forms_agree_on_random_words(
            a in any::<i64>(), b in any::<i64>(), c in any::<i64>(), d in any::<i64>(),
        ) {
            prop_assume!(b != 0 && d != 0);
            check_all_forms(&Ratio::from_frac(a, b), &Ratio::from_frac(c, d));
        }

        #[test]
        fn forms_agree_on_small_shared_factors(
            a in -60i64..=60, b in 1i64..=60, c in -60i64..=60, d in 1i64..=60, k in 1i64..=12,
        ) {
            // Denominators with common factors: the `g > 1` branch of the sum.
            check_all_forms(&Ratio::from_frac(a, b * k), &Ratio::from_frac(c, d * k));
        }
    }
}
