//! Arbitrary-precision integers with an inline machine-word form.
//!
//! The steady-state scheduling pipeline needs *exact* rational arithmetic:
//! the period of the periodic schedule is the least common multiple of the
//! denominators of the linear-program solution, and the correctness proofs of
//! the paper (conservation laws, one-port feasibility) only hold if no
//! rounding occurs.  [`BigInt`] is the dependency-free integer layer.
//!
//! # Two forms, one value
//!
//! The paper's data are small integer ratios (link costs, message sizes, task
//! weights), and so is nearly every intermediate of an exact simplex run, so
//! a [`BigInt`] is stored in one of two forms:
//!
//! * **inline** — an `i64`, no heap allocation;
//! * **limbs** — a sign flag plus little-endian `u64` limbs with no leading
//!   zero limb, for everything else (schoolbook multiplication, Knuth
//!   algorithm D division: clarity over asymptotic sophistication).
//!
//! **Canonicity invariant:** a value that fits `i64` is *always* inline, so
//! every value has exactly one representation and the derived `Eq` and `Hash`
//! compare and hash values, not forms.  Every constructor and every operation
//! upholds it: results of the limb routines are demoted by `from_limbs`.
//!
//! **Promotion:** `+`, `-`, `*` promote when the checked machine operation
//! overflows; negation and [`BigInt::abs`] promote at `i64::MIN`;
//! [`BigInt::div_rem`] at `i64::MIN / -1`; [`BigInt::gcd`] at `2^63` (the gcd
//! of `i64::MIN` with itself or zero); conversions from `u64`/`i128`/`u128`
//! and [`std::str::FromStr`] whenever the value is out of range.  Everything
//! else on two inline operands stays inline, and an operation with a limb
//! operand runs the limb routine on borrowed magnitudes (an inline operand
//! lends its single limb from the stack).
//!
//! `Display`/`FromStr` encode the value in decimal and do not depend on the
//! form (the service's query fingerprint and its snapshots rely on that).

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

/// Arbitrary-precision signed integer: an inline `i64`, or sign + magnitude
/// (little-endian `u64` limbs, no leading zero limb) for a value outside the
/// `i64` range.  See the [module documentation](self) for the invariant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BigInt(Repr);

/// The representation behind [`BigInt`]; as wide as the limb form alone (the
/// discriminant lives in the `bool`'s niche).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Every value in `i64::MIN..=i64::MAX`.
    Small(i64),
    /// Every other value.  `negative` is `false` for an empty magnitude.
    Large { negative: bool, limbs: Vec<u64> },
}

/// Greatest common divisor of two machine words (binary algorithm);
/// `gcd_u64(0, x) == x`.
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    if a == 1 || b == 1 {
        return 1;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
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
        BigInt(Repr::Small(0))
    }

    /// The integer 1.
    pub fn one() -> Self {
        BigInt(Repr::Small(1))
    }

    /// Builds a big integer from raw limbs (little-endian) and a sign flag,
    /// demoting a magnitude that fits `i64` to the inline form.
    fn from_limbs(negative: bool, mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        match limbs[..] {
            [] => BigInt::zero(),
            [m] if m <= i64::MAX as u64 + negative as u64 => {
                // `2^63 as i64` is `i64::MIN`, its own wrapping negation.
                BigInt(Repr::Small(if negative { (m as i64).wrapping_neg() } else { m as i64 }))
            }
            _ => BigInt(Repr::Large { negative, limbs }),
        }
    }

    /// The value as a machine word when it is stored inline: by canonicity,
    /// exactly when it fits `i64`.
    #[inline]
    pub(crate) fn as_small(&self) -> Option<i64> {
        match self.0 {
            Repr::Small(v) => Some(v),
            Repr::Large { .. } => None,
        }
    }

    /// Sign flag and magnitude limbs of either form, as the limb routines
    /// take them; an inline value lends its one limb from `inline`.
    fn sign_mag<'a>(&'a self, inline: &'a mut u64) -> (bool, &'a [u64]) {
        match &self.0 {
            Repr::Small(0) => (false, &[]),
            Repr::Small(v) => {
                *inline = v.unsigned_abs();
                (*v < 0, std::slice::from_ref(inline))
            }
            Repr::Large { negative, limbs } => (*negative, limbs),
        }
    }

    /// Returns `true` iff the value is 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        match &self.0 {
            Repr::Small(v) => *v == 0,
            Repr::Large { limbs, .. } => limbs.is_empty(),
        }
    }

    /// Returns `true` iff the value is 1.
    #[inline]
    pub fn is_one(&self) -> bool {
        match &self.0 {
            Repr::Small(v) => *v == 1,
            Repr::Large { negative, limbs } => !negative && limbs[..] == [1],
        }
    }

    /// Returns `true` iff the value is strictly negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        match &self.0 {
            Repr::Small(v) => *v < 0,
            Repr::Large { negative, .. } => *negative,
        }
    }

    /// Returns `true` iff the value is strictly positive.
    #[inline]
    pub fn is_positive(&self) -> bool {
        !self.is_negative() && !self.is_zero()
    }

    /// Returns the sign of the value.
    pub fn sign(&self) -> Sign {
        if self.is_zero() {
            Sign::Zero
        } else if self.is_negative() {
            Sign::Negative
        } else {
            Sign::Positive
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        match &self.0 {
            Repr::Small(v) => BigInt::from(v.unsigned_abs()),
            Repr::Large { limbs, .. } => BigInt::from_limbs(false, limbs.clone()),
        }
    }

    /// Number of bits of the magnitude (0 for zero).
    pub fn bits(&self) -> u64 {
        let mut inline = 0;
        let (_, limbs) = self.sign_mag(&mut inline);
        match limbs.last() {
            None => 0,
            Some(&top) => (limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
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

    /// Sum of two sign-and-magnitude operands.
    fn add_signed(a_neg: bool, a: &[u64], b_neg: bool, b: &[u64]) -> BigInt {
        if a_neg == b_neg {
            BigInt::from_limbs(a_neg, BigInt::add_abs(a, b))
        } else {
            match BigInt::cmp_abs(a, b) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_limbs(a_neg, BigInt::sub_abs(a, b)),
                Ordering::Less => BigInt::from_limbs(b_neg, BigInt::sub_abs(b, a)),
            }
        }
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
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            // Only `i64::MIN / -1` overflows; it takes the limb route.
            if let Some(q) = a.checked_div(*b) {
                return (BigInt(Repr::Small(q)), BigInt(Repr::Small(a % b)));
            }
        }
        let (mut ia, mut ib) = (0, 0);
        let (a_neg, a) = self.sign_mag(&mut ia);
        let (b_neg, b) = other.sign_mag(&mut ib);
        let (q, r) = Self::div_rem_abs(a, b);
        let q_sign = a_neg != b_neg && !q.is_empty();
        let r_sign = a_neg && !r.is_empty();
        (BigInt::from_limbs(q_sign, q), BigInt::from_limbs(r_sign, r))
    }

    /// Greatest common divisor of the magnitudes (always non-negative).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return BigInt::from(gcd_u64(a.unsigned_abs(), b.unsigned_abs()));
        }
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
        let (negative, limbs) = match &self.0 {
            Repr::Small(v) => return *v as f64,
            Repr::Large { negative, limbs } => (*negative, limbs),
        };
        let mut v = 0.0f64;
        for &limb in limbs.iter().rev() {
            v = v * 1.8446744073709552e19 + limb as f64;
        }
        if negative {
            -v
        } else {
            v
        }
    }

    /// Conversion to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        self.to_i128().and_then(|v| i64::try_from(v).ok())
    }

    /// Conversion to `u64` if the value fits and is non-negative.
    pub fn to_u64(&self) -> Option<u64> {
        self.to_i128().and_then(|v| u64::try_from(v).ok())
    }

    /// Conversion to `i128` if the value fits.
    pub fn to_i128(&self) -> Option<i128> {
        let (negative, limbs) = match &self.0 {
            Repr::Small(v) => return Some(*v as i128),
            Repr::Large { negative, limbs } => (*negative, limbs),
        };
        let mag: u128 = match limbs.len() {
            0 => 0,
            1 => limbs[0] as u128,
            2 => (limbs[1] as u128) << 64 | limbs[0] as u128,
            _ => return None,
        };
        if negative {
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
    #[inline]
    fn from(v: i64) -> Self {
        BigInt(Repr::Small(v))
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        BigInt::from(v as i128)
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(v as i64)
    }
}

impl From<u32> for BigInt {
    fn from(v: u32) -> Self {
        BigInt::from(v as i64)
    }
}

impl From<usize> for BigInt {
    fn from(v: usize) -> Self {
        BigInt::from(v as u64)
    }
}

impl From<i128> for BigInt {
    #[inline]
    fn from(v: i128) -> Self {
        match i64::try_from(v) {
            Ok(small) => BigInt(Repr::Small(small)),
            Err(_) => {
                let mag = v.unsigned_abs();
                BigInt::from_limbs(v < 0, vec![mag as u64, (mag >> 64) as u64])
            }
        }
    }
}

impl From<u128> for BigInt {
    fn from(v: u128) -> Self {
        match i64::try_from(v) {
            Ok(small) => BigInt(Repr::Small(small)),
            Err(_) => BigInt::from_limbs(false, vec![v as u64, (v >> 64) as u64]),
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return a.cmp(b);
        }
        let (mut ia, mut ib) = (0, 0);
        let (a_neg, a) = self.sign_mag(&mut ia);
        let (b_neg, b) = other.sign_mag(&mut ib);
        match (a_neg, b_neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => Self::cmp_abs(a, b),
            (true, true) => Self::cmp_abs(b, a),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match &self.0 {
            Repr::Small(v) => match v.checked_neg() {
                Some(n) => BigInt(Repr::Small(n)),
                None => BigInt::from(v.unsigned_abs()),
            },
            // `-(2^63)` is `i64::MIN`: negation can demote.
            Repr::Large { negative, limbs } => BigInt::from_limbs(!negative, limbs.clone()),
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
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return match a.checked_add(*b) {
                Some(sum) => BigInt(Repr::Small(sum)),
                None => BigInt::from(*a as i128 + *b as i128),
            };
        }
        let (mut ia, mut ib) = (0, 0);
        let (a_neg, a) = self.sign_mag(&mut ia);
        let (b_neg, b) = other.sign_mag(&mut ib);
        BigInt::add_signed(a_neg, a, b_neg, b)
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return match a.checked_sub(*b) {
                Some(diff) => BigInt(Repr::Small(diff)),
                None => BigInt::from(*a as i128 - *b as i128),
            };
        }
        let (mut ia, mut ib) = (0, 0);
        let (a_neg, a) = self.sign_mag(&mut ia);
        let (b_neg, b) = other.sign_mag(&mut ib);
        BigInt::add_signed(a_neg, a, !b_neg && !b.is_empty(), b)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return match a.checked_mul(*b) {
                Some(product) => BigInt(Repr::Small(product)),
                None => BigInt::from(*a as i128 * *b as i128),
            };
        }
        let (mut ia, mut ib) = (0, 0);
        let (a_neg, a) = self.sign_mag(&mut ia);
        let (b_neg, b) = other.sign_mag(&mut ib);
        BigInt::from_limbs(a_neg != b_neg, BigInt::mul_abs(a, b))
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
    /// by repeated short division.  Correct for any non-zero magnitude;
    /// [`fmt::Display`] only reaches it for the limb form.
    fn fmt_chunked(negative: bool, limbs: &[u64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut digits = Vec::new();
        let mut cur = limbs.to_vec();
        while !cur.is_empty() {
            let (q, r) = BigInt::div_rem_abs_small(&cur, 10_000_000_000_000_000_000);
            digits.push(r);
            cur = q;
        }
        let mut s = String::new();
        if negative {
            s.push('-');
        }
        s.push_str(&digits.last().unwrap().to_string());
        for d in digits.iter().rev().skip(1) {
            s.push_str(&format!("{:019}", d));
        }
        write!(f, "{}", s)
    }

    /// `limbs = limbs * factor + addend` in place, on a magnitude.
    fn mul_add_small(limbs: &mut Vec<u64>, factor: u64, addend: u64) {
        let mut carry = addend as u128;
        for limb in limbs.iter_mut() {
            let cur = *limb as u128 * factor as u128 + carry;
            *limb = cur as u64;
            carry = cur >> 64;
        }
        if carry != 0 {
            limbs.push(carry as u64);
        }
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            // The inline form is the machine integer itself: format it in
            // place, with no limb clone, digit vector or string (the service
            // fingerprints every edge cost through this).  `fmt_chunked`
            // emits the same digits.
            Repr::Small(v) => write!(f, "{v}"),
            Repr::Large { negative, limbs } => BigInt::fmt_chunked(*negative, limbs, f),
        }
    }
}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        /// Decimal digits per chunk: the most a `u64` holds with room to
        /// spare, so a chunk parses as one machine integer.
        const CHUNK: usize = 18;
        const CHUNK_BASE: u64 = 10u64.pow(CHUNK as u32);

        let s = s.trim();
        let (negative, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() {
            return Err(ParseBigIntError { reason: "empty string".into() });
        }
        if let Some(ch) = digits.chars().find(|ch| !ch.is_ascii_digit()) {
            return Err(ParseBigIntError { reason: format!("invalid digit {ch:?}") });
        }
        // All ASCII from here on, so byte offsets are digit offsets.
        let chunk_value = |chunk: &str| chunk.bytes().fold(0u64, |v, b| v * 10 + (b - b'0') as u64);
        let (head, mut rest) = digits.split_at((digits.len() - 1) % CHUNK + 1);
        let head = chunk_value(head);
        if rest.is_empty() {
            // At most 18 digits: below `10^18 < 2^63`, a machine integer.
            let value = head as i64;
            return Ok(BigInt::from(if negative { -value } else { value }));
        }
        let mut limbs = vec![head];
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(CHUNK);
            BigInt::mul_add_small(&mut limbs, CHUNK_BASE, chunk_value(chunk));
            rest = tail;
        }
        Ok(BigInt::from_limbs(negative, limbs))
    }
}

#[cfg(test)]
impl BigInt {
    /// The same value in limb form whether or not it fits `i64` — the one
    /// deliberate breach of canonicity, so that the cross-form tests can send
    /// a small value down the limb routines.
    pub(crate) fn forced_limbs(&self) -> BigInt {
        let mut inline = 0;
        let (negative, limbs) = self.sign_mag(&mut inline);
        BigInt(Repr::Large { negative, limbs: limbs.to_vec() })
    }

    /// `true` for the inline form.
    pub(crate) fn is_inline(&self) -> bool {
        self.as_small().is_some()
    }

    /// `true` when the form is the one canonicity prescribes for the value.
    pub(crate) fn is_canonical(&self) -> bool {
        match &self.0 {
            Repr::Small(_) => true,
            Repr::Large { limbs, .. } => limbs.last() != Some(&0) && self.to_i64().is_none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

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
            assert!(r.abs() < d.abs());
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
        let max = u64::MAX as i128;
        // 10^19 is the chunk size: the widest one-limb values straddle it.
        let chunk = 10_000_000_000_000_000_000i128;
        for v in [1, -1, 7, i64::MAX as i128, i64::MIN as i128, chunk - 1, chunk, max, -max] {
            let big = b(v);
            assert_eq!(big.is_inline(), i64::try_from(v).is_ok(), "form of {v}");
            assert_eq!(big.to_string(), v.to_string());
            // The limb form always renders through `fmt_chunked`.
            assert_eq!(big.to_string(), big.forced_limbs().to_string(), "inline diverged on {v}");
            assert_eq!(big.to_string().parse::<BigInt>().unwrap(), big);
        }
        assert_eq!(b(0).to_string(), "0");
        assert_eq!("0".parse::<BigInt>().unwrap(), b(0));
        // The limb boundary: one past `u64::MAX` needs a second limb.
        let two_limbs = b(max + 1);
        assert_eq!(two_limbs.bits(), 65);
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
    fn hash_of(v: &BigInt) -> u64 {
        let mut hasher = DefaultHasher::new();
        v.hash(&mut hasher);
        hasher.finish()
    }

    /// Asserts that a result of the limb routines is the canonical twin of
    /// the inline route's result: same form, `==`, same hash.
    fn assert_same(inline: &BigInt, limb: &BigInt, what: &str) {
        assert!(inline.is_canonical(), "{what}: inline result {inline:?} is not canonical");
        assert!(limb.is_canonical(), "{what}: limb result {limb:?} is not canonical");
        assert_eq!(inline, limb, "{what}");
        assert_eq!(hash_of(inline), hash_of(limb), "{what}: hashes differ");
    }

    /// Every operation on `a`, `b` through every mix of forms, against the
    /// all-inline (or, for wide operands, canonical) result.
    fn check_all_forms(a: &BigInt, b: &BigInt) {
        let forms = |v: &BigInt| [v.clone(), v.forced_limbs()];
        for (fa, fb) in forms(a).iter().flat_map(|fa| forms(b).map(|fb| (fa.clone(), fb))) {
            let what = format!("{a} ? {b} as {fa:?}, {fb:?}");
            assert_same(&(a + b), &(&fa + &fb), &format!("add {what}"));
            assert_same(&(a - b), &(&fa - &fb), &format!("sub {what}"));
            assert_same(&(a * b), &(&fa * &fb), &format!("mul {what}"));
            assert_same(&a.gcd(b), &fa.gcd(&fb), &format!("gcd {what}"));
            assert_same(&a.lcm(b), &fa.lcm(&fb), &format!("lcm {what}"));
            assert_eq!(a.cmp(b), fa.cmp(&fb), "cmp {what}");
            if !b.is_zero() {
                let (q, r) = a.div_rem(b);
                let (fq, fr) = fa.div_rem(&fb);
                assert_same(&q, &fq, &format!("quotient {what}"));
                assert_same(&r, &fr, &format!("remainder {what}"));
                assert_eq!(&(&q * b) + &r, *a, "div_rem reconstruction {what}");
            }
        }
        let fa = a.forced_limbs();
        assert_same(&-a, &-&fa, &format!("neg {a}"));
        assert_same(&-a.clone(), &-fa.clone(), &format!("owned neg {a}"));
        assert_same(&a.abs(), &fa.abs(), &format!("abs {a}"));
        assert_same(&a.pow(3), &fa.pow(3), &format!("pow {a}"));
        assert_eq!(a.to_f64().to_bits(), fa.to_f64().to_bits(), "to_f64 {a}");
        assert_eq!(a.to_i64(), fa.to_i64(), "to_i64 {a}");
        assert_eq!(a.to_u64(), fa.to_u64(), "to_u64 {a}");
        assert_eq!(a.to_i128(), fa.to_i128(), "to_i128 {a}");
        assert_eq!(a.bits(), fa.bits(), "bits {a}");
        assert_eq!(a.sign(), fa.sign(), "sign {a}");
        assert_eq!(
            (a.is_zero(), a.is_one(), a.is_negative(), a.is_positive()),
            (fa.is_zero(), fa.is_one(), fa.is_negative(), fa.is_positive()),
            "predicates {a}"
        );
        if !a.is_zero() {
            // `fmt_chunked` is for non-zero magnitudes; canonical zero is inline.
            assert_eq!(a.to_string(), fa.to_string(), "display");
        }
        assert_same(a, &a.to_string().parse().unwrap(), &format!("parse {a}"));
    }

    /// The values around which a form changes.
    fn boundaries() -> Vec<i128> {
        let two63 = 1i128 << 63;
        let two64 = 1i128 << 64;
        let mut values = vec![0, 1, 2, 3, 10, 1 << 31, (1 << 32) + 1, 3_037_000_500];
        values.extend([i64::MAX as i128 - 1, i64::MAX as i128, two63, two63 + 1]);
        values.extend([two64 - 1, two64, two64 + 1, 1 << 100]);
        values.iter().flat_map(|&v| [v, -v]).collect()
    }

    #[test]
    fn forms_agree_at_the_boundaries() {
        let values = boundaries();
        assert!(values.contains(&(i64::MIN as i128)));
        for &x in &values {
            let a = BigInt::from(x);
            assert!(a.is_canonical());
            assert_eq!(a.is_inline(), i64::try_from(x).is_ok(), "form of {x}");
            assert_eq!(a.to_i128(), Some(x));
            assert_eq!(a.to_string(), x.to_string());
            for &y in &values {
                let b = BigInt::from(y);
                check_all_forms(&a, &b);
                // Against machine arithmetic wherever that has the room.
                if let Some(sum) = x.checked_add(y) {
                    assert_eq!(&a + &b, BigInt::from(sum), "{x} + {y}");
                }
                if let Some(diff) = x.checked_sub(y) {
                    assert_eq!(&a - &b, BigInt::from(diff), "{x} - {y}");
                }
                if let Some(product) = x.checked_mul(y) {
                    assert_eq!(&a * &b, BigInt::from(product), "{x} * {y}");
                }
                if y != 0 {
                    assert_eq!(a.div_rem(&b), (BigInt::from(x / y), BigInt::from(x % y)));
                }
                assert_eq!(a.cmp(&b), x.cmp(&y), "{x} <=> {y}");
            }
        }
    }

    #[test]
    fn promotion_and_demotion_keep_the_form_canonical() {
        let max = BigInt::from(i64::MAX);
        let min = BigInt::from(i64::MIN);
        // Promote by one, come back: inline again, equal, same hash.
        let above = &max + &BigInt::one();
        assert!(!above.is_inline());
        let back = &above - &BigInt::one();
        assert!(back.is_inline());
        assert_same(&max, &back, "(i64::MAX + 1) - 1");
        // `-i64::MIN` and `|i64::MIN|` are `2^63`: out of range, and negating
        // that demotes again.
        assert!(!(-&min).is_inline() && !min.abs().is_inline());
        assert_eq!(-&min, above);
        assert_same(&min, &-&above, "-(2^63)");
        // `i64::MIN / -1` overflows the machine division.
        assert_eq!(min.div_rem(&BigInt::from(-1i64)), (above.clone(), BigInt::zero()));
        assert_eq!(min.gcd(&min), above);
        // Products that overflow `i64` but not `i128`, and one that needs both limbs.
        let product = &max * &max;
        assert_eq!(product.to_i128(), Some(i64::MAX as i128 * i64::MAX as i128));
        assert_same(&max, &(&product / &max), "(MAX * MAX) / MAX");
        assert_eq!((&min * &min).to_i128(), Some(1i128 << 126));
        assert_eq!((&product * &product).to_i128(), None);
        // Conversions choose the form by value.
        assert!(BigInt::from(i64::MAX as u64).is_inline());
        assert!(!BigInt::from(i64::MAX as u64 + 1).is_inline());
        assert!(BigInt::from(i64::MIN as i128).is_inline());
        assert!(!BigInt::from(i64::MIN as i128 - 1).is_inline());
        assert!(BigInt::from(7u128).is_inline() && BigInt::from(7usize).is_inline());
    }

    #[test]
    fn parsing_is_chunked_without_changing_the_grammar() {
        // 18 digits is the widest single chunk; 19 and 36/37 cross chunk edges.
        for digits in [1usize, 17, 18, 19, 20, 35, 36, 37, 60] {
            let text: String = (0..digits).map(|i| char::from(b'1' + (i % 9) as u8)).collect();
            let mut expected = BigInt::zero();
            for ch in text.chars() {
                expected = &expected * &b(10) + b(ch.to_digit(10).unwrap() as i128);
            }
            assert_same(&expected, &text.parse().unwrap(), &text);
            assert_same(&-&expected, &format!("-{text}").parse().unwrap(), &text);
            assert_eq!(expected.to_string(), text);
            // Leading zeros shift the chunk boundaries, not the value.
            assert_same(&expected, &format!("+000{text}").parse().unwrap(), &text);
        }
        assert_eq!("9223372036854775807".parse::<BigInt>().unwrap(), b(i64::MAX as i128));
        assert_eq!("-9223372036854775808".parse::<BigInt>().unwrap(), b(i64::MIN as i128));
        assert!("-9223372036854775808".parse::<BigInt>().unwrap().is_inline());
        assert!(!"9223372036854775808".parse::<BigInt>().unwrap().is_inline());
        let reason = |s: &str| s.parse::<BigInt>().unwrap_err().reason;
        assert_eq!(reason(""), "empty string");
        assert_eq!(reason("  -  "), "empty string");
        assert_eq!(reason("- 5"), "invalid digit ' '");
        assert_eq!(reason("+"), "empty string");
        assert_eq!(reason("-+5"), "invalid digit '+'");
        assert_eq!(reason("12a4b"), "invalid digit 'a'");
        assert_eq!(reason("1234567890123456789012345x"), "invalid digit 'x'");
        assert_eq!(reason("١٢"), "invalid digit '١'");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn forms_agree_on_random_words(a in any::<i64>(), b in any::<i64>()) {
            check_all_forms(&BigInt::from(a), &BigInt::from(b));
        }

        #[test]
        fn forms_agree_on_wide_operands(a in any::<i128>(), b in any::<i64>(), c in any::<i64>()) {
            // One wide operand, one that may be either: the mixed routes.
            let wide = BigInt::from(a) * BigInt::from(c);
            check_all_forms(&wide, &BigInt::from(b));
            check_all_forms(&BigInt::from(b), &wide);
        }
    }
}
