//! The noise protocol's arithmetic: homogeneous slices and the quiet decile.
//!
//! On a shared host co-tenants only ever *add* time: a fixed kernel's
//! minimum holds within ±1 % for minutes while its median wanders ±10 %.
//! Every timing is therefore computed per slice — slices replay the same
//! multiset of inputs, so they are comparable — and the reported value is
//! the 10th percentile across slices (for a rate, equivalently the 90th
//! percentile of slice rates): the speed of the program on the tenth of the
//! run the host left alone.

use std::time::Instant;

use crate::spans::Spans;
use crate::{alloc, host};

/// The quantile across slices every timing metric reports.
pub const QUIET: f64 = 0.10;

/// Linear-interpolated `q`-quantile (`q` in `[0, 1]`) of `len` ascending
/// values read through `at`.
fn interpolate(len: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!(len > 0, "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (len - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    at(lo) + (at(hi) - at(lo)) * (pos - lo as f64)
}

/// Quantile of `values`, sorting them in place.
pub fn quantile_mut(values: &mut [f64], q: f64) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    interpolate(values.len(), q, |i| values[i])
}

/// Quantile of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_mut(&mut values.to_vec(), q)
}

/// The quiet-decile value of per-slice measurements.
pub fn quiet(per_slice: &[f64]) -> f64 {
    quantile(per_slice, QUIET)
}

/// What one timed slice measured.
#[derive(Debug, Clone, Copy)]
pub struct SliceStats {
    /// Wall nanoseconds from the slice's first op to its last.
    pub wall_ns: f64,
    /// Process CPU nanoseconds (all threads) spent during the slice.
    pub cpu_ns: f64,
    /// Median per-op wall nanoseconds within the slice.
    pub p50_ns: f64,
    /// 90th-percentile per-op wall nanoseconds within the slice.
    pub p90_ns: f64,
    /// 99th-percentile per-op wall nanoseconds within the slice.
    pub p99_ns: f64,
}

/// Times the operations of one slice at a time into a buffer allocated once,
/// in set-up, and keeps the per-slice statistics.
pub struct Recorder {
    /// Exact per-op nanoseconds of the current slice (sorted at slice end;
    /// no histogram buckets).
    samples: Vec<u64>,
    wall_start: Instant,
    cpu_start: u64,
    /// One entry per finished slice.
    pub slices: Vec<SliceStats>,
    /// Operations attempted over all finished slices.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// The traced pass only: one span per operation, and allocations counted
    /// while a slice is open.
    pub spans: Option<Spans>,
    op_name: &'static str,
}

impl Recorder {
    /// A recorder for `slices` slices of at most `ops_per_slice` operations,
    /// whose per-op spans (once `spans` is set) are named `op_name`.
    pub fn new(slices: usize, ops_per_slice: usize, op_name: &'static str) -> Recorder {
        Recorder {
            samples: Vec::with_capacity(ops_per_slice),
            wall_start: Instant::now(),
            cpu_start: 0,
            slices: Vec::with_capacity(slices),
            attempted: 0,
            failed: 0,
            spans: None,
            op_name,
        }
    }

    /// Opens slice number `slice`: reads the CPU clock, then starts the wall
    /// clock.
    pub fn begin_slice(&mut self, slice: usize) {
        self.samples.clear();
        self.cpu_start = host::process_cpu_ns();
        if let Some(spans) = &mut self.spans {
            spans.set_slice(slice);
            alloc::set_counting(true);
        }
        self.wall_start = Instant::now();
    }

    /// Times one operation and hands its result back for checking.
    #[inline]
    pub fn time<R>(&mut self, op: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = match &mut self.spans {
            Some(spans) => {
                spans.next_op();
                spans.leaf(self.op_name, op)
            }
            None => op(),
        };
        self.samples.push(start.elapsed().as_nanos() as u64);
        result
    }

    /// Records whether an operation's answer was right (a wrong answer, a
    /// shed query and a failed query all count as failed operations).
    #[inline]
    pub fn verdict(&mut self, ok: bool) {
        self.failed += u64::from(!ok);
    }

    /// Closes the slice and folds its samples into a [`SliceStats`].
    pub fn end_slice(&mut self) {
        let wall_ns = self.wall_start.elapsed().as_nanos() as f64;
        alloc::set_counting(false);
        let cpu_ns = host::process_cpu_ns().saturating_sub(self.cpu_start) as f64;
        self.attempted += self.samples.len() as u64;
        self.samples.sort_unstable();
        let at = |q: f64| interpolate(self.samples.len(), q, |i| self.samples[i] as f64);
        self.slices.push(SliceStats {
            wall_ns,
            cpu_ns,
            p50_ns: at(0.50),
            p90_ns: at(0.90),
            p99_ns: at(0.99),
        });
    }

    /// Drops every finished slice (after the warm-up slice).  A wrong answer
    /// in a dropped slice still counts as a failed operation.
    pub fn reset(&mut self) {
        self.slices.clear();
        self.attempted = 0;
    }

    /// Quiet-decile value of one per-slice statistic.
    pub fn quiet_of(&self, stat: impl Fn(&SliceStats) -> f64) -> f64 {
        quiet(&self.slices.iter().map(stat).collect::<Vec<_>>())
    }

    /// Operations per slice (every slice replays the same multiset).
    pub fn ops_per_slice(&self) -> f64 {
        self.attempted as f64 / self.slices.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn quiet_decile_ignores_slow_slices() {
        // Nine quiet slices and one hit by a co-tenant: the estimate stays
        // with the quiet ones.
        let mut slices = vec![100.0; 9];
        slices.push(500.0);
        assert_eq!(quiet(&slices), 100.0);
    }
}
