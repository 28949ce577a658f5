//! The metric declarations and the result line.
//!
//! `BENCHMARK.json` declares the same names and units; the package's smoke
//! test holds the two together.

use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, reported with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.query_hit_us", "us"),
    ("service.fingerprint_us", "us"),
    ("service.fingerprint_200n_us", "us"),
    ("service.structural_fingerprint_us", "us"),
    ("service.cache_lookup_ns", "ns"),
    ("service.cache_insert_ns", "ns"),
    ("service.handoff_us", "us"),
    ("service.miss_triaged_us", "us"),
    ("service.miss_overhead_us", "us"),
    ("service.lane_wait_p50_us", "us"),
    ("service.lookup_p50_us", "us"),
    ("service.solve_warm_p50_us", "us"),
    ("service.publish_p50_us", "us"),
    ("service.hit_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("service.evictions", "count"),
    ("service.shed", "count"),
    ("service.query_p99_us", "us"),
    ("service.snapshot_ms", "ms"),
    ("service.preload_ms", "ms"),
    ("service.trace_overhead_fraction", "ratio"),
    ("sched.roundtrip_us", "us"),
    ("sched.lane_push_pop_ns", "ns"),
    ("drift.triage_us", "us"),
    ("drift.reuse_fraction", "ratio"),
    ("drift.in_range_fraction", "ratio"),
    ("drift.dual_repair_fraction", "ratio"),
    ("drift.mean_pivots", "count"),
    ("core.problem_new_us", "us"),
    ("core.formulate_us", "us"),
    ("core.interpret_us", "us"),
    ("core.formulate_200n_ms", "ms"),
    ("core.interpret_200n_ms", "ms"),
    ("core.verify_200n_ms", "ms"),
    ("core.unattributed_fraction", "ratio"),
    ("linprog.dense_solve_us", "us"),
    ("linprog.dense_pivots_per_solve", "count"),
    ("linprog.warm_solve_us", "us"),
    ("linprog.revised_solve_ms", "ms"),
    ("linprog.revised_phase1_ms", "ms"),
    ("linprog.revised_phase2_ms", "ms"),
    ("linprog.revised_refactor_ms", "ms"),
    ("linprog.revised_pivots", "count"),
    ("linprog.revised_degenerate_fraction", "ratio"),
    ("linprog.revised_refactorizations", "count"),
    ("linprog.revised_peak_eta", "count"),
    ("linprog.certify_fallbacks", "count"),
    ("rational.dot_ns_per_term", "ns"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("host.calib_ms", "ms"),
    ("host.steal_fraction", "ratio"),
];

/// Renders the result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, the metrics being exactly the
/// `declared` ones, in declaration order.
///
/// # Panics
///
/// Panics when `values` misses a declared metric, holds an undeclared or a
/// repeated one, or holds a value JSON cannot carry — each is a bug in the
/// benchmark, not a measurement.
pub fn result_line(
    attempted: u64,
    failed: u64,
    declared: &[(&str, &str)],
    values: &[(&'static str, f64)],
) -> String {
    for (name, _) in values {
        assert!(declared.iter().any(|(d, _)| d == name), "metric {name} is not declared");
    }
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let mut reported = values.iter().filter(|(n, _)| n == name);
        let (_, value) = reported.next().unwrap_or_else(|| panic!("metric {name} has no value"));
        assert!(reported.next().is_none(), "metric {name} was reported twice");
        assert!(value.is_finite(), "metric {name} is {value}");
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(line, "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    line.push_str("}}");
    line
}

/// A human-readable table of the same values, one metric per line.
pub fn table(declared: &[(&str, &str)], values: &[(&'static str, f64)]) -> String {
    let mut out = String::new();
    for (name, unit) in declared {
        if let Some((_, value)) = values.iter().find(|(n, _)| n == name) {
            let _ = writeln!(out, "{name:<38} {value:>16.4} {unit}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(10, 0, &[("a", "ms"), ("b", "1/s")], &[("b", 2.5), ("a", 1.0)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"a\":{\"value\":1,\"unit\":\"ms\"},\"b\":{\"value\":2.5,\"unit\":\"1/s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "has no value")]
    fn a_missing_metric_is_a_bug() {
        result_line(1, 0, &[("a", "ms")], &[]);
    }
}
