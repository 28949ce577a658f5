//! Sign-magnitude arbitrary-precision integers.
//!
//! The steady-state scheduling pipeline needs *exact* rational arithmetic:
//! the period of the periodic schedule is the least common multiple of the
//! denominators of the linear-program solution, and the correctness proofs of
//! the paper (conservation laws, one-port feasibility) only hold if no
//! rounding occurs.  [`BigInt`] is a small, dependency-free implementation of
//! the integer layer: little-endian `u64` limbs plus a sign.
//!
//! The implementation favours clarity over asymptotic sophistication
//! (schoolbook multiplication and division); the integers manipulated by the
//! scheduler stay small (tens of digits), so this is more than fast enough.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// Sign of a [`BigInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    /// Opposite sign (`Zero` stays `Zero`).
    pub fn flip(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }

    /// Sign of a product of values with these signs.
    pub fn product(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (Sign::Positive, Sign::Positive) | (Sign::Negative, Sign::Negative) => Sign::Positive,
            _ => Sign::Negative,
        }
    }
}

/// Arbitrary-precision signed integer (sign + magnitude, little-endian `u64`
/// limbs, no leading zero limb).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: bool,
    /// `true` means negative. Zero always has `sign == false`.
    limbs: Vec<u64>,
}

/// Error returned when parsing a [`BigInt`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError {
    /// Human-readable description of the failure.
    pub reason: String,
}

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid big integer: {}", self.reason)
    }
}

impl std::error::Error for ParseBigIntError {}

impl BigInt {
    /// The integer 0.
    pub fn zero() -> Self {
        BigInt { sign: false, limbs: Vec::new() }
    }

    /// The integer 1.
    pub fn one() -> Self {
        BigInt { sign: false, limbs: vec![1] }
    }

    /// Builds a big integer from raw limbs (little-endian) and a sign flag.
    fn from_limbs(sign: bool, mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        if limbs.is_empty() {
            BigInt::zero()
        } else {
            BigInt { sign, limbs }
        }
    }

    /// Returns `true` iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` iff the value is 1.
    pub fn is_one(&self) -> bool {
        !self.sign && self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign
    }

    /// Returns `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        !self.sign && !self.is_zero()
    }

    /// Returns the sign of the value.
    pub fn sign(&self) -> Sign {
        if self.is_zero() {
            Sign::Zero
        } else if self.sign {
            Sign::Negative
        } else {
            Sign::Positive
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt { sign: false, limbs: self.limbs.clone() }
    }

    /// Number of bits of the magnitude (0 for zero).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// Magnitude comparison (ignores sign).
    fn cmp_abs(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            if a[i] != b[i] {
                return a[i].cmp(&b[i]);
            }
        }
        Ordering::Equal
    }

    fn add_abs(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let x = long[i] as u128;
            let y = if i < short.len() { short[i] as u128 } else { 0 };
            let s = x + y + carry as u128;
            out.push(s as u64);
            carry = (s >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    /// Computes `a - b`, assuming `a >= b` in magnitude.
    fn sub_abs(a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(Self::cmp_abs(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0i128;
        for i in 0..a.len() {
            let x = a[i] as i128;
            let y = if i < b.len() { b[i] as i128 } else { 0 };
            let mut d = x - y - borrow;
            if d < 0 {
                d += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u64);
        }
        debug_assert_eq!(borrow, 0);
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn mul_abs(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Divides magnitude `a` by the single limb `b`, returning (quotient, remainder).
    fn div_rem_abs_small(a: &[u64], b: u64) -> (Vec<u64>, u64) {
        assert!(b != 0, "division by zero");
        let mut out = vec![0u64; a.len()];
        let mut rem: u128 = 0;
        for i in (0..a.len()).rev() {
            let cur = (rem << 64) | a[i] as u128;
            out[i] = (cur / b as u128) as u64;
            rem = cur % b as u128;
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        (out, rem as u64)
    }

    /// Knuth algorithm D long division of magnitudes. Returns (quotient, remainder).
    fn div_rem_abs(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
        assert!(!b.is_empty(), "division by zero");
        if Self::cmp_abs(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        if b.len() == 1 {
            let (q, r) = Self::div_rem_abs_small(a, b[0]);
            return (q, if r == 0 { Vec::new() } else { vec![r] });
        }

        // Normalize so that the top limb of the divisor has its high bit set.
        let shift = b.last().unwrap().leading_zeros();
        let bn = Self::shl_limbs(b, shift);
        let mut an = Self::shl_limbs(a, shift);
        an.push(0); // extra limb for the algorithm

        let n = bn.len();
        let m = an.len() - n - 1;
        let mut q = vec![0u64; m + 1];
        let btop = bn[n - 1] as u128;
        let bsecond = if n >= 2 { bn[n - 2] as u128 } else { 0 };

        for j in (0..=m).rev() {
            let num = ((an[j + n] as u128) << 64) | an[j + n - 1] as u128;
            let mut qhat = num / btop;
            let mut rhat = num % btop;
            if qhat > u64::MAX as u128 {
                qhat = u64::MAX as u128;
                rhat = num - qhat * btop;
            }
            while rhat <= u64::MAX as u128
                && qhat * bsecond > ((rhat << 64) | an[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += btop;
            }
            // Multiply and subtract.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * bn[i] as u128 + carry;
                carry = p >> 64;
                let sub = (p as u64) as i128;
                let mut d = an[j + i] as i128 - sub - borrow;
                if d < 0 {
                    d += 1i128 << 64;
                    borrow = 1;
                } else {
                    borrow = 0;
                }
                an[j + i] = d as u64;
            }
            let mut d = an[j + n] as i128 - carry as i128 - borrow;
            if d < 0 {
                d += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            an[j + n] = d as u64;

            if borrow != 0 {
                // qhat was one too large: add the divisor back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = an[j + i] as u128 + bn[i] as u128 + carry;
                    an[j + i] = s as u64;
                    carry = s >> 64;
                }
                an[j + n] = (an[j + n] as u128 + carry) as u64;
            }
            q[j] = qhat as u64;
        }

        while q.last() == Some(&0) {
            q.pop();
        }
        let mut r = Self::shr_limbs(&an[..n], shift);
        while r.last() == Some(&0) {
            r.pop();
        }
        (q, r)
    }

    fn shl_limbs(a: &[u64], shift: u32) -> Vec<u64> {
        if shift == 0 {
            return a.to_vec();
        }
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for &x in a {
            out.push((x << shift) | carry);
            carry = x >> (64 - shift);
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    fn shr_limbs(a: &[u64], shift: u32) -> Vec<u64> {
        if shift == 0 {
            return a.to_vec();
        }
        let mut out = vec![0u64; a.len()];
        for i in 0..a.len() {
            out[i] = a[i] >> shift;
            if i + 1 < a.len() {
                out[i] |= a[i + 1] << (64 - shift);
            }
        }
        out
    }

    /// Simultaneous quotient and remainder; the remainder has the sign of `self`
    /// (truncated division, like Rust's `%` on primitive integers).
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero");
        let (q, r) = Self::div_rem_abs(&self.limbs, &other.limbs);
        let q_sign = self.sign != other.sign && !q.is_empty();
        let r_sign = self.sign && !r.is_empty();
        (BigInt::from_limbs(q_sign, q), BigInt::from_limbs(r_sign, r))
    }

    /// Greatest common divisor of the magnitudes (always non-negative).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let (_, r) = a.div_rem(&b);
            a = b;
            b = r.abs();
        }
        a
    }

    /// Least common multiple of the magnitudes (0 if either operand is 0).
    pub fn lcm(&self, other: &BigInt) -> BigInt {
        if self.is_zero() || other.is_zero() {
            return BigInt::zero();
        }
        let g = self.gcd(other);
        let (q, _) = self.abs().div_rem(&g);
        &q * &other.abs()
    }

    /// Raises the value to the power `exp`.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }

    /// Lossy conversion to `f64` (magnitude clamped to `f64::INFINITY` on overflow).
    pub fn to_f64(&self) -> f64 {
        let mut v = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            v = v * 1.8446744073709552e19 + limb as f64;
        }
        if self.sign {
            -v
        } else {
            v
        }
    }

    /// Conversion to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => {
                let m = self.limbs[0];
                if self.sign {
                    if m <= 1u64 << 63 {
                        Some((m as i128).wrapping_neg() as i64)
                    } else {
                        None
                    }
                } else if m <= i64::MAX as u64 {
                    Some(m as i64)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Conversion to `u64` if the value fits and is non-negative.
    pub fn to_u64(&self) -> Option<u64> {
        if self.sign {
            return None;
        }
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Conversion to `i128` if the value fits.
    pub fn to_i128(&self) -> Option<i128> {
        let mag: u128 = match self.limbs.len() {
            0 => 0,
            1 => self.limbs[0] as u128,
            2 => (self.limbs[1] as u128) << 64 | self.limbs[0] as u128,
            _ => return None,
        };
        if self.sign {
            if mag <= 1u128 << 127 {
                Some(mag.wrapping_neg() as i128)
            } else {
                None
            }
        } else if mag <= i128::MAX as u128 {
            Some(mag as i128)
        } else {
            None
        }
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        BigInt::from(v as i128)
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        BigInt::from_limbs(false, vec![v])
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(v as i128)
    }
}

impl From<u32> for BigInt {
    fn from(v: u32) -> Self {
        BigInt::from(v as u64)
    }
}

impl From<usize> for BigInt {
    fn from(v: usize) -> Self {
        BigInt::from(v as u64)
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        let sign = v < 0;
        let mag = v.unsigned_abs();
        BigInt::from_limbs(sign, vec![mag as u64, (mag >> 64) as u64])
    }
}

impl From<u128> for BigInt {
    fn from(v: u128) -> Self {
        BigInt::from_limbs(false, vec![v as u64, (v >> 64) as u64])
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.sign, other.sign) {
            (false, true) => {
                if self.is_zero() && other.is_zero() {
                    Ordering::Equal
                } else {
                    Ordering::Greater
                }
            }
            (true, false) => Ordering::Less,
            (false, false) => Self::cmp_abs(&self.limbs, &other.limbs),
            (true, true) => Self::cmp_abs(&other.limbs, &self.limbs),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        if self.is_zero() {
            BigInt::zero()
        } else {
            BigInt { sign: !self.sign, limbs: self.limbs.clone() }
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        -&self
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, other: &BigInt) -> BigInt {
        if self.sign == other.sign {
            BigInt::from_limbs(self.sign, BigInt::add_abs(&self.limbs, &other.limbs))
        } else {
            match BigInt::cmp_abs(&self.limbs, &other.limbs) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => {
                    BigInt::from_limbs(self.sign, BigInt::sub_abs(&self.limbs, &other.limbs))
                }
                Ordering::Less => {
                    BigInt::from_limbs(other.sign, BigInt::sub_abs(&other.limbs, &self.limbs))
                }
            }
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, other: &BigInt) -> BigInt {
        self + &(-other)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        BigInt::from_limbs(self.sign != other.sign, BigInt::mul_abs(&self.limbs, &other.limbs))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, other: &BigInt) -> BigInt {
        self.div_rem(other).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, other: &BigInt) -> BigInt {
        self.div_rem(other).1
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, other: BigInt) -> BigInt {
                (&self).$method(&other)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, other: &BigInt) -> BigInt {
                (&self).$method(other)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, other: BigInt) -> BigInt {
                self.$method(&other)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);
forward_owned_binop!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, other: &BigInt) {
        *self = &*self + other;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, other: &BigInt) {
        *self = &*self - other;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, other: &BigInt) {
        *self = &*self * other;
    }
}

impl BigInt {
    /// The general decimal rendering: peel 19-digit chunks off the magnitude
    /// by repeated short division.  Correct for any non-zero value;
    /// [`fmt::Display`] only reaches it for multi-limb ones.
    fn fmt_chunked(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut digits = Vec::new();
        let mut cur = self.limbs.clone();
        while !cur.is_empty() {
            let (q, r) = BigInt::div_rem_abs_small(&cur, 10_000_000_000_000_000_000);
            digits.push(r);
            cur = q;
        }
        let mut s = String::new();
        if self.sign {
            s.push('-');
        }
        s.push_str(&digits.last().unwrap().to_string());
        for d in digits.iter().rev().skip(1) {
            s.push_str(&format!("{:019}", d));
        }
        write!(f, "{}", s)
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.limbs[..] {
            [] => f.write_str("0"),
            // One limb is the `u64` itself: format it in place, with no limb
            // clone, digit vector or string (the service fingerprints every
            // edge cost through this).  `fmt_chunked` emits the same digits.
            [limb] => {
                if self.sign {
                    f.write_str("-")?;
                }
                write!(f, "{limb}")
            }
            _ => self.fmt_chunked(f),
        }
    }
}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (sign, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return Err(ParseBigIntError { reason: "empty string".into() });
        }
        let mut acc = BigInt::zero();
        let ten = BigInt::from(10u64);
        for ch in digits.chars() {
            let d = ch
                .to_digit(10)
                .ok_or_else(|| ParseBigIntError { reason: format!("invalid digit {ch:?}") })?;
            acc = &acc * &ten + BigInt::from(d as u64);
        }
        if sign && !acc.is_zero() {
            acc = -acc;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigInt::zero().is_zero());
        assert!(BigInt::one().is_one());
        assert_eq!(BigInt::zero(), b(0));
        assert_eq!(BigInt::one(), b(1));
        assert_eq!(BigInt::zero().sign(), Sign::Zero);
        assert_eq!(b(5).sign(), Sign::Positive);
        assert_eq!(b(-5).sign(), Sign::Negative);
    }

    #[test]
    fn small_addition() {
        assert_eq!(b(2) + b(3), b(5));
        assert_eq!(b(-2) + b(3), b(1));
        assert_eq!(b(2) + b(-3), b(-1));
        assert_eq!(b(-2) + b(-3), b(-5));
        assert_eq!(b(7) + b(-7), b(0));
    }

    #[test]
    fn small_subtraction() {
        assert_eq!(b(2) - b(3), b(-1));
        assert_eq!(b(10) - b(-4), b(14));
        assert_eq!(b(-10) - b(-4), b(-6));
    }

    #[test]
    fn small_multiplication() {
        assert_eq!(b(6) * b(7), b(42));
        assert_eq!(b(-6) * b(7), b(-42));
        assert_eq!(b(-6) * b(-7), b(42));
        assert_eq!(b(0) * b(123456), b(0));
    }

    #[test]
    fn carry_propagation() {
        let big = BigInt::from(u64::MAX);
        assert_eq!(&big + &BigInt::one(), BigInt::from(u64::MAX as u128 + 1));
        let sq = &big * &big;
        assert_eq!(sq, BigInt::from((u64::MAX as u128) * (u64::MAX as u128)));
    }

    #[test]
    fn division_small() {
        assert_eq!(b(42).div_rem(&b(5)), (b(8), b(2)));
        assert_eq!(b(-42).div_rem(&b(5)), (b(-8), b(-2)));
        assert_eq!(b(42).div_rem(&b(-5)), (b(-8), b(2)));
        assert_eq!(b(-42).div_rem(&b(-5)), (b(8), b(-2)));
        assert_eq!(b(3).div_rem(&b(7)), (b(0), b(3)));
    }

    #[test]
    fn division_multi_limb() {
        let a: BigInt = "123456789012345678901234567890123456789".parse().unwrap();
        let d: BigInt = "9876543210987654321".parse().unwrap();
        let (q, r) = a.div_rem(&d);
        assert_eq!(&q * &d + &r, a);
        assert!(r < d);
        assert!(!r.is_negative());
    }

    #[test]
    fn division_reconstruction_randomized() {
        // Deterministic pseudo-random reconstruction check without pulling in rand.
        let mut x: u128 = 0x1234_5678_9abc_def0;
        let next = |x: &mut u128| {
            *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *x
        };
        for _ in 0..200 {
            let a = BigInt::from(next(&mut x)) * BigInt::from(next(&mut x));
            let mut d = BigInt::from(next(&mut x) >> 64);
            if d.is_zero() {
                d = BigInt::one();
            }
            let (q, r) = a.div_rem(&d);
            assert_eq!(&q * &d + &r, a);
            assert!(BigInt::cmp_abs(&r.limbs, &d.limbs) == Ordering::Less);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = b(1).div_rem(&b(0));
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(b(12).gcd(&b(18)), b(6));
        assert_eq!(b(-12).gcd(&b(18)), b(6));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(5).gcd(&b(0)), b(5));
        assert_eq!(b(12).lcm(&b(18)), b(36));
        assert_eq!(b(0).lcm(&b(18)), b(0));
        assert_eq!(b(7).lcm(&b(13)), b(91));
    }

    #[test]
    fn pow() {
        assert_eq!(b(2).pow(10), b(1024));
        assert_eq!(b(10).pow(0), b(1));
        assert_eq!(b(-3).pow(3), b(-27));
        assert_eq!(b(10).pow(30), "1000000000000000000000000000000".parse().unwrap());
    }

    #[test]
    fn ordering() {
        assert!(b(-5) < b(3));
        assert!(b(3) < b(5));
        assert!(b(-3) > b(-5));
        assert!(b(0) > b(-1));
        let big: BigInt = "99999999999999999999999999".parse().unwrap();
        assert!(big > BigInt::from(u64::MAX));
        assert!(big < b(i128::MAX));
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in ["0", "1", "-1", "123456789", "-98765432109876543210987654321"] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!("12a".parse::<BigInt>().is_err());
        assert!("".parse::<BigInt>().is_err());
        assert_eq!("+42".parse::<BigInt>().unwrap(), b(42));
        assert_eq!("-0".parse::<BigInt>().unwrap(), b(0));
    }

    #[test]
    fn one_limb_display_matches_the_chunked_algorithm() {
        struct Chunked<'a>(&'a BigInt);
        impl fmt::Display for Chunked<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt_chunked(f)
            }
        }
        let max = u64::MAX as i128;
        // 10^19 is the chunk size: the widest one-limb values straddle it.
        let chunk = 10_000_000_000_000_000_000i128;
        for v in [1, -1, 7, i64::MAX as i128, i64::MIN as i128, chunk - 1, chunk, max, -max] {
            let big = b(v);
            assert_eq!(big.limbs.len(), 1, "{v} must be a one-limb value");
            assert_eq!(big.to_string(), v.to_string());
            assert_eq!(big.to_string(), Chunked(&big).to_string(), "fast path diverged on {v}");
            assert_eq!(big.to_string().parse::<BigInt>().unwrap(), big);
        }
        assert_eq!(b(0).to_string(), "0");
        assert_eq!("0".parse::<BigInt>().unwrap(), b(0));
        // The limb boundary: one past `u64::MAX` takes the chunked path.
        let two_limbs = b(max + 1);
        assert_eq!(two_limbs.limbs.len(), 2);
        assert_eq!(two_limbs.to_string(), (max + 1).to_string());
        assert_eq!(two_limbs.to_string().parse::<BigInt>().unwrap(), two_limbs);
    }

    #[test]
    fn conversions() {
        assert_eq!(b(42).to_i64(), Some(42));
        assert_eq!(b(-42).to_i64(), Some(-42));
        assert_eq!(BigInt::from(u64::MAX).to_i64(), None);
        assert_eq!(BigInt::from(u64::MAX).to_u64(), Some(u64::MAX));
        assert_eq!(b(-1).to_u64(), None);
        assert_eq!(b(i128::MAX).to_i128(), Some(i128::MAX));
        assert_eq!((b(i128::MAX) + b(1)).to_i128(), None);
        assert!((b(1_000_000).to_f64() - 1e6).abs() < 1e-9);
        assert!((b(-1_000_000).to_f64() + 1e6).abs() < 1e-9);
    }

    #[test]
    fn bits() {
        assert_eq!(b(0).bits(), 0);
        assert_eq!(b(1).bits(), 1);
        assert_eq!(b(255).bits(), 8);
        assert_eq!(b(256).bits(), 9);
        assert_eq!(BigInt::from(u128::MAX).bits(), 128);
    }
}
