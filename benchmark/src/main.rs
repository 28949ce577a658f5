//! `steady-perf` command line.
//!
//! ```text
//! steady-perf --workload W --seed S --seconds N --trace 0|1 [--smoke]
//! steady-perf --aa [N] [--seconds N]
//! ```

use std::process::ExitCode;

use steady_perf::aa;
use steady_perf::run::{run_named, Options, DEFAULT_SECONDS, WORKLOADS};

const USAGE: &str = "usage: steady-perf --workload <hit_serve|drift_serve|cold_solve|scale_solve> \
                     [--seed N] [--seconds N] [--trace 0|1] [--smoke]\n       \
                     steady-perf --aa [N] [--seconds N]";

fn parse(args: &[String]) -> Result<(Options, Option<usize>), String> {
    let mut options = Options {
        workload: String::new(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut aa_runs = None;
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next().cloned().ok_or_else(|| format!("{flag} expects {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => options.workload = value("a workload name")?,
            "--seed" => {
                let raw = value("a number")?;
                options.seed =
                    raw.parse().map_err(|_| format!("--seed: '{raw}' is not a number"))?;
            }
            "--seconds" => {
                let raw = value("a number")?;
                options.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: '{raw}' is not a positive number"))?;
            }
            "--trace" => {
                options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: '{other}' is neither 0 nor 1")),
                }
            }
            "--smoke" => options.smoke = true,
            "--aa" => {
                let runs = args.next_if(|next| !next.starts_with("--"));
                aa_runs =
                    Some(match runs {
                        Some(raw) => raw.parse().ok().filter(|n| *n >= 2).ok_or_else(|| {
                            format!("--aa: '{raw}' is not a run count of at least 2")
                        })?,
                        None => 5,
                    });
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if aa_runs.is_none() && !WORKLOADS.contains(&options.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}\n{USAGE}"));
    }
    Ok((options, aa_runs))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|(options, aa_runs)| match aa_runs {
        Some(runs) => aa::run(runs, options.seconds),
        None => run_named(&options),
    });
    match outcome {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("steady-perf: {message}");
            ExitCode::FAILURE
        }
    }
}
