//! `--aa N`: does the benchmark agree with itself?
//!
//! Two interleaved sets of `N` runs of every workload, on the same build, each
//! run in a process of its own.  Run `i` of both sets uses seed `i`, so the
//! two sets see the same inputs and every exact counter must repeat.  For
//! each end-to-end metric the report gives both sets' medians and quartiles
//! (as Python's `statistics.quantiles(values, n=4)`), the spread of each set
//! (quartile distance over median) and the set-to-set disagreement next to
//! the bound `BENCHMARK.json` fixes.  Any disagreement above its bound, any
//! failed operation and any counter that does not repeat fail the check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

use crate::json::Json;

/// `[q1, median, q3]` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two values");
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// `BENCHMARK.json`, at the root of the checkout the benchmark was built in.
pub fn manifest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn read_manifest() -> Result<(Vec<String>, Vec<Declared>), String> {
    let path = manifest_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let manifest = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |entry: &Json, key: &str| -> Result<String, String> {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{}: an entry has no \"{key}\"", path.display()))
    };
    let list = |key: &str| manifest.get(key).map(Json::items).unwrap_or_default();
    let workloads =
        list("workloads").iter().map(|w| field(w, "name")).collect::<Result<Vec<_>, _>>()?;
    let metrics = list("end_to_end")
        .iter()
        .map(|m| {
            Ok(Declared {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                lower_is_better: field(m, "better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64).ok_or("a metric has no bound")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if workloads.is_empty() || metrics.is_empty() {
        return Err(format!("{} declares no workloads or no metrics", path.display()));
    }
    Ok((workloads, metrics))
}

/// What one child run reported.
struct ChildRun {
    values: BTreeMap<String, f64>,
    counts: String,
}

fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let result = stdout.lines().last().ok_or("a run printed nothing")?;
    let result = Json::parse(result).map_err(|e| format!("bad result line: {e}"))?;
    let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
    if failed != 0.0 {
        return Err(format!("{workload} seed {seed} reported {failed} failed operations"));
    }
    let counts = stdout
        .lines()
        .find_map(|line| line.strip_prefix("counts "))
        .ok_or("a run printed no counts line")?
        .to_owned();
    let values = result.get("metrics").map(Json::metric_values).unwrap_or_default();
    Ok(ChildRun { values, counts })
}

/// Runs the self-check and returns its Markdown report; `Err` carries the
/// report too, followed by what failed.
pub fn run(runs: usize, seconds: f64) -> Result<String, String> {
    let (workloads, metrics) = read_manifest()?;
    // sets[set][workload] = that set's runs of that workload, in seed order.
    let mut sets: [BTreeMap<&str, Vec<ChildRun>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for seed in 1..=runs as u64 {
        for set in &mut sets {
            for workload in &workloads {
                eprintln!("aa: seed {seed} {workload}");
                set.entry(workload).or_default().push(child_run(workload, seed, seconds)?);
            }
        }
    }

    let mut report = format!(
        "# A/A self-check: two interleaved sets of {runs} runs, `--seconds {seconds}`\n\n\
         Same build, same seeds (1..={runs}) in both sets; every run is its own process.\n\
         Quartiles as Python's `statistics.quantiles(values, n=4)`. *Spread* is the distance\n\
         between a set's quartiles over its median; *disagreement* is set B's median against\n\
         set A's, positive when B is worse.\n"
    );
    let mut failures = Vec::new();
    for workload in &workloads {
        let [a, b] = [&sets[0][workload.as_str()], &sets[1][workload.as_str()]];
        let _ = write!(
            report,
            "\n## {workload}\n\n\
             | metric | unit | A q1 / median / q3 | B q1 / median / q3 | spread A | spread B | \
             disagreement | bound |\n|---|---|---|---|---|---|---|---|\n"
        );
        for metric in &metrics {
            let column = |set: &[ChildRun]| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|run| run.values.get(&metric.name).copied())
                    .collect::<Option<Vec<f64>>>()
                    .ok_or_else(|| format!("a run of {workload} did not report {}", metric.name))
            };
            let [qa, qb] = [quartiles(&column(a)?), quartiles(&column(b)?)];
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            let worse = if metric.lower_is_better { qb[1] - qa[1] } else { qa[1] - qb[1] };
            let disagreement = worse / qa[1];
            let show = |q: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", q[0], q[1], q[2]);
            let _ = writeln!(
                report,
                "| `{}` | {} | {} | {} | {:.2} % | {:.2} % | {:+.2} % | {:.0} % |",
                metric.name,
                metric.unit,
                show(qa),
                show(qb),
                100.0 * spread(qa),
                100.0 * spread(qb),
                100.0 * disagreement,
                100.0 * metric.bound,
            );
            if disagreement.abs() > metric.bound {
                failures.push(format!(
                    "{workload}/{}: sets disagree by {:.2} %, bound {:.0} %",
                    metric.name,
                    100.0 * disagreement.abs(),
                    100.0 * metric.bound
                ));
            }
        }
        let mismatched: Vec<usize> =
            (0..runs).filter(|&i| a[i].counts != b[i].counts).map(|i| i + 1).collect();
        if mismatched.is_empty() {
            let _ = writeln!(
                report,
                "\nExact counters repeat in all {runs} pairs (seed 1: `{}`).",
                a[0].counts
            );
        } else {
            failures.push(format!("{workload}: counters differ for seeds {mismatched:?}"));
        }
    }

    if failures.is_empty() {
        report.push_str("\nResult: **pass** — every disagreement is within its bound.\n");
        Ok(report)
    } else {
        let _ = write!(report, "\nResult: **FAIL**\n\n- {}\n", failures.join("\n- "));
        Err(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
