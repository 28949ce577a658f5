//! `steady` — command-line front-end for the steady-state collective scheduler.
//!
//! The binary exposes the library's main entry points without writing any
//! Rust: describe a platform in the simple text format of
//! [`steady_platform::Platform::from_text`], then ask for the optimal
//! steady-state throughput (and, optionally, the explicit periodic schedule or
//! the reduction trees) of a scatter, gather, gossip, reduce or parallel-prefix
//! series on it.  Topology generation and the paper's worked examples are also
//! available as subcommands.
//!
//! ```text
//! steady solve scatter  --platform net.txt --source 0 --targets 3,4 --schedule
//! steady solve reduce   --platform net.txt --participants 0,1,2 --target 0 --trees
//! steady solve prefix   --platform net.txt --participants 0,1,2
//! steady generate tiers --seed 42 --out platform.txt
//! steady demo figure6
//! steady info --platform net.txt --dot
//! ```
//!
//! Every command is implemented as a library function writing to a generic
//! [`std::io::Write`], so the integration tests drive the exact same code as
//! the binary.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

use std::io::Write;

use args::ArgError;

/// Error type returned by the command dispatcher.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage (unknown command, bad options); the message is user-facing.
    Usage(String),
    /// The underlying solver, platform or I/O layer failed.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Failed(format!("I/O error: {e}"))
    }
}

/// The command overview printed by `steady help`.
pub const HELP: &str = "\
steady — steady-state throughput of collective operations on heterogeneous platforms

USAGE:
  steady solve scatter  --platform FILE --source N --targets A,B,...   [--schedule] [--verify]
  steady solve gather   --platform FILE --sources A,B,... --sink N     [--schedule] [--verify]
  steady solve gossip   --platform FILE --sources A,... --targets B,...
  steady solve reduce   --platform FILE --participants A,B,... --target N
                        [--size R] [--task-cost R] [--trees] [--schedule] [--verify]
  steady solve prefix   --platform FILE --participants A,B,... [--size R] [--task-cost R]
  steady generate TOPO  [--out FILE] [topology options]
          TOPO ∈ {star, chain, clique, grid, ring, torus, hypercube, fat-tree,
                  dumbbell, random, geometric, tiers}
  steady serve-bench    [--queries N] [--clients N] [--distinct N] [--workers N]
                        [--cache-capacity N] [--shards N] [--seed N] [--out FILE] [--schedules]
                        [--baseline FILE] [--snapshot FILE] [--preload FILE] [--trace FILE]
  steady trace          [--queries N] [--clients N] [--distinct N] [--workers N] [--seed N]
                        [--out FILE] [--metrics] [--prometheus]
  steady obs-overhead   [--queries N] [--clients N] [--distinct N] [--workers N] [--seed N]
                        [--rounds N] [--max-overhead F] [--out FILE] [--trace-out FILE]
  steady drift-bench    [--epochs N] [--hits-per-epoch N] [--workers N] [--ttl N | --no-ttl]
                        [--seed N] [--out FILE] [--min-reuse F] [--no-verify]
  steady forecast-bench [--epochs N] [--hits-per-epoch N] [--workers N] [--horizon N]
                        [--plan N] [--seed N] [--out FILE] [--min-prefetch-hit F] [--no-verify]
  steady scaling-sweep  [--sizes A,B,...] [--targets N | --reduce [--participants N]]
                        [--seed N] [--out FILE] [--budget-ms N] [--no-verify]
  steady explain        [--size N] [--targets N | --reduce [--participants N]]
                        [--seed N] [--pivots]
  steady demo NAME      NAME ∈ {figure2, figure6, figure9}
  steady info           --platform FILE [--dot]
  steady help

Platforms are plain text: one `node NAME SPEED` or `edge FROM TO COST` per line
(indices refer to declaration order, costs and speeds are rationals like 2/3).
";

/// Runs one command line (without the program name) and writes the report to `out`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        writeln!(out, "{HELP}")?;
        return Err(CliError::Usage("no command given".into()));
    };
    let rest = &args[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => {
            writeln!(out, "{HELP}")?;
            Ok(())
        }
        "solve" => commands::solve::run(rest, out),
        "serve-bench" => commands::serve_bench::run(rest, out),
        "trace" => commands::trace::run(rest, out),
        "obs-overhead" => commands::obs_overhead::run(rest, out),
        "drift-bench" => commands::drift_bench::run(rest, out),
        "forecast-bench" => commands::forecast_bench::run(rest, out),
        "scaling-sweep" => commands::scaling_sweep::run(rest, out),
        "explain" => commands::explain::run(rest, out),
        "generate" => commands::generate::run(rest, out),
        "demo" => commands::demo::run(rest, out),
        "info" => commands::info::run(rest, out),
        other => Err(CliError::Usage(format!("unknown command '{other}' (try 'steady help')"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(words: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("valid utf-8 output"))
    }

    #[test]
    fn help_lists_every_command() {
        let text = run_to_string(&["help"]).unwrap();
        for needle in [
            "solve scatter",
            "solve reduce",
            "serve-bench",
            "trace",
            "obs-overhead",
            "drift-bench",
            "forecast-bench",
            "scaling-sweep",
            "explain",
            "generate",
            "demo",
            "info",
        ] {
            assert!(text.contains(needle), "help misses '{needle}'");
        }
    }

    #[test]
    fn missing_or_unknown_commands_are_usage_errors() {
        assert!(matches!(run_to_string(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run_to_string(&["frobnicate"]), Err(CliError::Usage(_))));
    }
}
