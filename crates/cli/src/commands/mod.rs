//! Subcommand implementations.

pub mod demo;
pub mod drift_bench;
pub mod explain;
pub mod forecast_bench;
pub mod generate;
pub mod info;
pub mod obs_overhead;
pub mod scaling_sweep;
pub mod serve_bench;
pub mod solve;
pub mod trace;

use std::path::Path;

use steady_platform::Platform;

use crate::CliError;

/// Loads a platform from the text format, reporting a readable error.
pub fn load_platform(path: &str) -> Result<Platform, CliError> {
    let text = std::fs::read_to_string(Path::new(path))
        .map_err(|e| CliError::Failed(format!("cannot read platform file '{path}': {e}")))?;
    Platform::from_text(&text)
        .map_err(|e| CliError::Failed(format!("invalid platform file '{path}': {e}")))
}
