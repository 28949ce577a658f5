//! Shared helpers for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a dedicated Criterion
//! bench target under `benches/`; each target prints the reproduced rows or
//! series (so that `cargo bench` output documents the reproduction) and then
//! measures the relevant computational kernel.  The helpers here format exact
//! rationals for those tables and build the workload instances shared by
//! several benches.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use steady_core::reduce::ReduceProblem;
use steady_core::ScatterProblem;
use steady_platform::generators::{self, TiersConfig};
use steady_platform::NodeId;
use steady_rational::Ratio;

/// Formats an exact rational together with its decimal approximation.
pub fn fmt_ratio(r: &Ratio) -> String {
    if r.is_integer() {
        format!("{r}")
    } else {
        format!("{r} (~{:.4})", r.to_f64())
    }
}

/// Prints a table header followed by an underline of the same width.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
}

/// The Figure 2 scatter problem.
pub fn figure2_problem() -> ScatterProblem {
    ScatterProblem::from_instance(generators::figure2()).expect("figure2 instance is valid")
}

/// The Figure 6 reduce problem.
pub fn figure6_problem() -> ReduceProblem {
    ReduceProblem::from_instance(generators::figure6()).expect("figure6 instance is valid")
}

/// The Figure 9-like Tiers reduce problem (full 8-participant instance).
pub fn figure9_problem() -> ReduceProblem {
    ReduceProblem::from_instance(generators::figure9()).expect("figure9 instance is valid")
}

/// A scaled-down Tiers reduce instance (for timing kernels inside Criterion
/// where the full Figure 9 LP would be too slow to sample repeatedly).
pub fn small_tiers_reduce(participants: usize, seed: u64) -> ReduceProblem {
    let config = TiersConfig {
        wan_routers: 2,
        man_per_wan: 1,
        lan_per_man: participants.div_ceil(2),
        ..TiersConfig::default()
    };
    let mut instance = generators::tiers_reduce_instance(&config, seed);
    instance.participants.truncate(participants.max(2));
    if !instance.participants.contains(&instance.target) {
        instance.target = instance.participants[0];
    }
    ReduceProblem::from_instance(instance).expect("generated instance is valid")
}

/// A scatter problem on a random Tiers platform with the given seed.
pub fn tiers_scatter(seed: u64) -> ScatterProblem {
    let instance = generators::tiers_scatter_instance(&TiersConfig::default(), seed);
    ScatterProblem::from_instance(instance).expect("generated instance is valid")
}

/// Scatter problems of growing size on star platforms (used by the LP-solver
/// ablation).
pub fn star_scatter(leaves: usize) -> ScatterProblem {
    let (platform, center, leaf_ids) = generators::star(leaves, steady_rational::rat(1, 2));
    ScatterProblem::new(platform, center, leaf_ids).expect("star scatter is valid")
}

/// Scatter problem on a 2-D grid, the head node in a corner.
pub fn grid_scatter(rows: usize, cols: usize) -> ScatterProblem {
    let (platform, ids) = generators::grid(rows, cols, steady_rational::rat(1, 1));
    let source = ids[0][0];
    let targets: Vec<NodeId> = platform.node_ids().filter(|&n| n != source).collect();
    ScatterProblem::new(platform, source, targets).expect("grid scatter is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_rational::rat;

    #[test]
    fn helpers_build_valid_problems() {
        assert_eq!(figure2_problem().targets().len(), 2);
        assert_eq!(figure6_problem().participants().len(), 3);
        assert_eq!(figure9_problem().participants().len(), 8);
        assert!(small_tiers_reduce(4, 3).participants().len() >= 2);
        assert!(tiers_scatter(1).targets().len() >= 2);
        assert_eq!(star_scatter(5).targets().len(), 5);
        assert_eq!(grid_scatter(2, 3).targets().len(), 5);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(&rat(3, 1)), "3");
        assert!(fmt_ratio(&rat(1, 2)).starts_with("1/2 (~0.5000"));
    }
}
