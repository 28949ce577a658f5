//! Exact arithmetic foundations for the steady-state collective scheduler.
//!
//! The algorithms of Legrand, Marchal and Robert ("Optimizing the steady-state
//! throughput of scatter and reduce operations on heterogeneous platforms",
//! IPDPS 2004) are stated over the rationals: the optimal throughput `TP` is
//! the value of a linear program solved in rational numbers, the period of the
//! periodic schedule is the least common multiple of the denominators of the
//! solution, and both the weighted-matching decomposition and the
//! reduction-tree extraction rely on exact comparisons.
//!
//! This crate provides the two numeric types everything else builds on:
//!
//! * [`BigInt`] — arbitrary-precision signed integers in one of two forms, an
//!   inline `i64` or a sign plus `u64` limbs.  The form is canonical (a value
//!   that fits `i64` is always inline), so equality, ordering and hashing are
//!   by value; `+`, `-`, `*`, negation, `abs`, `div_rem` and `gcd` promote to
//!   limbs only when the machine operation overflows, and a limb result that
//!   fits again is demoted (see [`bigint`]);
//! * [`Ratio`] — normalized exact rationals with the usual field operations,
//!   ordering, floor/ceil, conversions and continued-fraction approximation of
//!   `f64` values.  The paper's data are small integer ratios, and an
//!   operation whose four parts are inline runs on `i128`-widened machine
//!   words with a `u64` gcd, allocation-free (see [`ratio`]).
//!
//! # Example
//!
//! ```
//! use steady_rational::{Ratio, lcm_of_denominators};
//!
//! // The toy scatter platform of Figure 2 achieves a throughput of 1/2 and
//! // the per-edge rates have denominators 2, 3 and 4: the schedule period is
//! // their least common multiple, 12.
//! let rates = vec![Ratio::from_frac(1, 2), Ratio::from_frac(1, 3), Ratio::from_frac(3, 4)];
//! let period = lcm_of_denominators(&rates);
//! assert_eq!(period.to_string(), "12");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bigint;
pub mod ratio;

pub use bigint::{BigInt, ParseBigIntError, Sign};
pub use ratio::{lcm_of_denominators, ParseRatioError, Ratio};

/// Convenience constructor for `n / d` used pervasively in tests and examples.
///
/// # Panics
/// Panics if `d == 0`.
pub fn rat(n: i64, d: i64) -> Ratio {
    Ratio::from_frac(n, d)
}

/// Convenience constructor for the integer rational `n`.
pub fn int(n: i64) -> Ratio {
    Ratio::from_int(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(int(3), rat(3, 1));
    }
}
