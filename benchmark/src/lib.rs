//! `steady-perf`: the repository's benchmark.
//!
//! Four workloads, measured end to end (`--trace 0`) and layer by layer
//! (`--trace 1`) from outside the program — by timing calls into its public
//! functions — under a noise protocol built for a shared two-core host:
//! a thread budget of at most two, fixed operation counts in homogeneous
//! slices, and the quiet-decile estimator.  See `README.md`.

#![warn(missing_docs)]

pub mod aa;
pub mod alloc;
pub mod estimator;
pub mod host;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod probe;
pub mod report;
pub mod run;
pub mod spans;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;
