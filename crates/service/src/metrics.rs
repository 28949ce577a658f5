//! Metrics registry: named counters, gauges and log-linear latency
//! histograms with mergeable buckets, rendered as hand-rolled JSON or
//! Prometheus text exposition.
//!
//! The histogram is the HDR-style log-linear design: values are bucketed by
//! their power of two (the "group") subdivided into `2^SUB_BITS` linear
//! sub-buckets, so the relative quantile error is bounded by
//! `2^-SUB_BITS` (= 1/64 ≈ 1.6%) everywhere, and values below `2^SUB_BITS`
//! are **exact** (one bucket per integer).  Recording is one atomic
//! increment — no allocation, no locking — so the serving hot path can feed
//! per-stage histograms unconditionally; snapshots subtract and merge
//! bucket-wise, which is what lets the load generator take a before/after
//! delta of a shared service and still report exact-run percentiles.
//!
//! Everything here is dependency-free and goes through
//! [`crate::sync`], so the same code is model-checkable under
//! `--cfg steady_loom` (the registry itself holds no locks on the record
//! path — only atomics).

use std::sync::Arc;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;

/// Linear sub-bucket bits per power-of-two group: 64 sub-buckets, so the
/// worst-case relative error of any reported quantile is 2⁻⁶ ≈ 1.6%.
const SUB_BITS: u32 = 6;

/// Sub-buckets per group.
const SUBS: usize = 1 << SUB_BITS;

/// Total buckets: one exact group for values `< 2^SUB_BITS` plus one group
/// per remaining power of two of the `u64` range.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS;

/// Bucket index of `value` (total order preserved: `v1 <= v2` implies
/// `index(v1) <= index(v2)`).
fn bucket_index(value: u64) -> usize {
    if value < SUBS as u64 {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let group = (msb - SUB_BITS + 1) as usize;
        let sub = ((value >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        group * SUBS + sub
    }
}

/// Lowest value mapping to bucket `index`.
fn bucket_low(index: usize) -> u64 {
    if index < SUBS {
        index as u64
    } else {
        let group = (index / SUBS) as u32;
        let sub = (index % SUBS) as u64;
        let msb = group + SUB_BITS - 1;
        (1u64 << msb) + (sub << (msb - SUB_BITS))
    }
}

/// Width of bucket `index` (1 for the exact group).
fn bucket_width(index: usize) -> u64 {
    if index < SUBS {
        1
    } else {
        let group = (index / SUBS) as u32;
        1u64 << (group - 1)
    }
}

/// Representative value reported for bucket `index`: its midpoint, which
/// halves the worst-case error and is **exact** for width-1 buckets.
fn bucket_mid(index: usize) -> u64 {
    bucket_low(index) + (bucket_width(index) - 1) / 2
}

/// A concurrent log-linear histogram of `u64` samples (typically
/// nanoseconds).  Recording is wait-free (one relaxed atomic add); reading
/// is by [`Histogram::snapshot`].
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        // relaxed: independent monotone tallies read only by snapshots; a
        // snapshot racing a record may see the bucket without the sum (or
        // vice versa), which quantile math tolerates by construction.
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        // relaxed: see `record` — a point-in-time read of a monotone tally.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of the samples recorded so far.
    pub fn sum(&self) -> u64 {
        // relaxed: see `record`.
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            // relaxed: see `record` — snapshot reads tolerate skew.
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        write!(f, "Histogram {{ count: {}, sum: {} }}", snap.count, snap.sum)
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (useful as a merge accumulator).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot { buckets: vec![0; BUCKETS], count: 0, sum: 0 }
    }

    /// Records one sample into this owned snapshot (single-threaded use,
    /// e.g. a load-generator client accumulating its own latencies).
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other`'s samples into this snapshot bucket-wise.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Bucket-wise difference from an `earlier` snapshot of the same
    /// histogram — the samples recorded in between.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the midpoint of the bucket
    /// holding the rank-`⌈q·count⌉` sample: within one bucket width of the
    /// exact order statistic, i.e. a relative error of at most 2⁻⁶ ≈ 1.6%
    /// (exact below 64).  Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_mid(index);
            }
        }
        self.max()
    }

    /// Largest recorded sample, to bucket resolution (0 when empty).
    pub fn max(&self) -> u64 {
        match self.buckets.iter().rposition(|&n| n > 0) {
            Some(index) => bucket_mid(index),
            None => 0,
        }
    }

    /// Smallest recorded sample, to bucket resolution (0 when empty).
    pub fn min(&self) -> u64 {
        match self.buckets.iter().position(|&n| n > 0) {
            Some(index) => bucket_mid(index),
            None => 0,
        }
    }

    /// `(inclusive upper bound, cumulative count)` per non-empty bucket, the
    /// shape Prometheus histogram exposition wants.
    fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            out.push((bucket_low(index) + bucket_width(index) - 1, cum));
        }
        out
    }
}

/// A named monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // relaxed: independent monotone tally read only by snapshots.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // relaxed: point-in-time snapshot read.
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge (a value that goes up and down).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: u64) {
        // relaxed: last-writer-wins status value read only by snapshots.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // relaxed: point-in-time snapshot read.
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A registry of named metrics, snapshotted as one [`MetricsSnapshot`].
///
/// Registration (startup) and snapshotting take the registry's own lock;
/// recording through the returned handles never does.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<(String, Metric)>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or returns the existing) counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut entries = self.entries.lock();
        for (n, metric) in entries.iter() {
            if n == name {
                if let Metric::Counter(c) = metric {
                    return Arc::clone(c);
                }
            }
        }
        let counter = Arc::new(Counter::default());
        entries.push((name.to_string(), Metric::Counter(Arc::clone(&counter))));
        counter
    }

    /// Registers (or returns the existing) gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut entries = self.entries.lock();
        for (n, metric) in entries.iter() {
            if n == name {
                if let Metric::Gauge(g) = metric {
                    return Arc::clone(g);
                }
            }
        }
        let gauge = Arc::new(Gauge::default());
        entries.push((name.to_string(), Metric::Gauge(Arc::clone(&gauge))));
        gauge
    }

    /// Registers (or returns the existing) histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut entries = self.entries.lock();
        for (n, metric) in entries.iter() {
            if n == name {
                if let Metric::Histogram(h) = metric {
                    return Arc::clone(h);
                }
            }
        }
        let histogram = Arc::new(Histogram::new());
        entries.push((name.to_string(), Metric::Histogram(Arc::clone(&histogram))));
        histogram
    }

    /// A point-in-time snapshot of every registered metric, in registration
    /// order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock();
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in entries.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }
}

/// Schema version stamped into every JSON document this crate emits, so
/// future field additions cannot silently break a stored-baseline
/// comparison.  Version 2 added the per-solver histograms
/// (`solver_pivots`, `solver_degenerate_pivots`, `solver_bland_pivots`,
/// `solver_peak_eta`, `solver_refactorizations`) and the solver-event
/// overhead fields of `steady obs-overhead`.  Version 3 dropped the
/// cold-solve admission gate's queue counter and wait histogram with the
/// gate itself.  Version 4 dropped the solver flight recorder's two
/// counters (and `obs-overhead`'s record fields) with the recorder, and the
/// queue-stage histogram, which duplicated `lane_demand_wait_nanos`.
pub const METRICS_SCHEMA_VERSION: u64 = 4;

/// An owned snapshot of a [`MetricsRegistry`] (plus any caller-appended
/// values), renderable as JSON or Prometheus text exposition.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Appends a counter value (used to fold pre-existing engine counters
    /// into one exposition without double-tracking them in the registry).
    pub fn push_counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), value));
    }

    /// Appends a gauge value.
    pub fn push_gauge(&mut self, name: &str, value: u64) {
        self.gauges.push((name.to_string(), value));
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Metric-wise difference from an `earlier` snapshot: counters and
    /// histograms subtract (the activity in between), gauges keep this
    /// snapshot's value.  Metrics absent from `earlier` pass through.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counter_then =
            |name: &str| earlier.counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v);
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(counter_then(n))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| {
                    let delta = match earlier.histogram(n) {
                        Some(then) => h.since(then),
                        None => h.clone(),
                    };
                    (n.clone(), delta)
                })
                .collect(),
        }
    }

    /// Hand-rolled JSON exposition: counters and gauges verbatim, histograms
    /// summarized as `count/sum/mean/min/max` plus p50/p90/p99 (quantiles
    /// carry the bucket error bound documented on
    /// [`HistogramSnapshot::quantile`]).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema_version\": {METRICS_SCHEMA_VERSION},\n"));
        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {value}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {value}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{name}\": {{ \"count\": {}, \"sum\": {}, \"mean\": {:.1}, \
                 \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {} }}",
                h.count(),
                h.sum(),
                h.mean(),
                h.min(),
                h.max(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Prometheus text exposition (version 0.0.4): counters as `_total`,
    /// gauges verbatim, histograms as sparse cumulative `_bucket{le=...}`
    /// series plus `_sum`/`_count`.  Every family is prefixed `steady_`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("# TYPE steady_{name}_total counter\n"));
            out.push_str(&format!("steady_{name}_total {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE steady_{name} gauge\n"));
            out.push_str(&format!("steady_{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE steady_{name} histogram\n"));
            for (le, cum) in h.cumulative() {
                out.push_str(&format!("steady_{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("steady_{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("steady_{name}_sum {}\n", h.sum()));
            out.push_str(&format!("steady_{name}_count {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_total() {
        let mut probes: Vec<u64> = (0..64u32)
            .flat_map(|shift| [0u64, 1, 3].map(|wiggle| (1u64 << shift).saturating_add(wiggle)))
            .collect();
        probes.sort_unstable();
        let mut last = 0usize;
        for v in probes {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            assert!(idx < BUCKETS);
            assert!(bucket_low(idx) <= v, "low({idx}) > {v}");
            assert!(v - bucket_low(idx) < bucket_width(idx), "{v} beyond bucket {idx}");
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUBS as u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        for v in 0..SUBS as u64 {
            // Quantile rank of the v-th smallest of 64 distinct values.
            let q = (v as f64 + 1.0) / SUBS as f64;
            assert_eq!(snap.quantile(q), v, "value {v} not exact");
        }
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), SUBS as u64 - 1);
    }

    /// The tentpole guarantee: on adversarial distributions every reported
    /// quantile is within ONE bucket width of the exact order statistic.
    #[test]
    fn quantile_error_is_within_one_bucket_width_on_adversarial_inputs() {
        let adversarial: Vec<Vec<u64>> = vec![
            // All mass on one point, at a bucket boundary.
            vec![1 << 20; 1000],
            // Bimodal with extreme separation.
            (0..500).map(|_| 3u64).chain((0..500).map(|_| u64::MAX / 2)).collect(),
            // Geometric sweep hitting every group.
            (0..60).map(|s| 1u64 << s).collect(),
            // Dense cluster just above a power of two (worst relative spot).
            (0..1000).map(|i| (1 << 30) + i).collect(),
            // Heavy tail: many tiny, few huge.
            (0..990).map(|i| i % 50).chain((0..10).map(|_| 1u64 << 40)).collect(),
        ];
        for (case, values) in adversarial.iter().enumerate() {
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            let snap = h.snapshot();
            for &q in &[0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let estimate = snap.quantile(q);
                let width = bucket_width(bucket_index(exact));
                assert!(
                    estimate.abs_diff(exact) <= width,
                    "case {case}: q{q} estimate {estimate} vs exact {exact} \
                     (bucket width {width})"
                );
            }
        }
    }

    #[test]
    fn merge_and_since_are_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 100, 10_000] {
            a.record(v);
        }
        for v in [2u64, 200, 20_000] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 6);
        assert_eq!(merged.sum(), 1 + 100 + 10_000 + 2 + 200 + 20_000);

        let before = a.snapshot();
        a.record(777);
        let delta = a.snapshot().since(&before);
        assert_eq!(delta.count(), 1);
        assert_eq!(delta.sum(), 777);
        assert!(delta.quantile(0.5).abs_diff(777) <= bucket_width(bucket_index(777)));
    }

    #[test]
    fn registry_snapshot_and_renders() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("queries");
        c.add(41);
        c.inc();
        let g = registry.gauge("cached_entries");
        g.set(7);
        let h = registry.histogram("stage_solve_warm_nanos");
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!((h.count(), h.sum()), (3, 60));
        // Re-registration returns the same handle.
        registry.counter("queries").inc();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("queries"), Some(43));
        assert_eq!(snap.gauges, vec![("cached_entries".to_string(), 7)]);
        assert_eq!(snap.histogram("stage_solve_warm_nanos").unwrap().count(), 3);

        let json = snap.to_json();
        assert!(json.contains("\"schema_version\": 4"), "{json}");
        assert!(json.contains("\"queries\": 43"), "{json}");
        assert!(json.contains("\"stage_solve_warm_nanos\""), "{json}");

        let prom = snap.to_prometheus();
        assert!(prom.contains("steady_queries_total 43"), "{prom}");
        assert!(prom.contains("steady_cached_entries 7"), "{prom}");
        assert!(prom.contains("steady_stage_solve_warm_nanos_count 3"), "{prom}");
        assert!(prom.contains("_bucket{le=\"+Inf\"} 3"), "{prom}");
        // Cumulative buckets are non-decreasing.
        let mut last = 0u64;
        for line in prom.lines().filter(|l| l.contains("_bucket{le=\"")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative buckets must not decrease: {prom}");
            last = v;
        }
    }

    #[test]
    fn snapshot_since_subtracts_counters_and_histograms() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("queries");
        let h = registry.histogram("e2e_hit_nanos");
        c.add(5);
        h.record(100);
        let before = registry.snapshot();
        c.add(2);
        h.record(300);
        let delta = registry.snapshot().since(&before);
        assert_eq!(delta.counter("queries"), Some(2));
        assert_eq!(delta.histogram("e2e_hit_nanos").unwrap().count(), 1);
    }
}
