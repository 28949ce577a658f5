//! Speculative pre-solving of predicted drifted platforms.
//!
//! The drift pipeline (`steady-drift`) made *reacting* to cost drift cheap:
//! a drifted query triages against its structural class's cached simplex
//! basis and usually re-prices in range or repairs with a few dual pivots.
//! But the first drifted solve still sits on the query's critical path.
//! This crate removes it by turning the drift model into a *predictor*:
//!
//! * the walkers of a [`DriftModel`](steady_drift::DriftModel) live on a
//!   bounded integer grid and move
//!   at most one cell per step, so the set of platforms reachable within `k`
//!   steps is **exactly** the product of per-edge walker intervals — a
//!   finite, enumerable drift envelope, not a statistical blur;
//! * each envelope state is certified with the exact zero-pivot survival
//!   probe ([`steady_lp::basis_still_optimal`]): either the cached basis is
//!   still optimal there (a future query would triage `InRange` for free)
//!   or it is not (the solve would need repair pivots) — edge costs sit in
//!   the *constraint matrix* of the collective LPs, which no single-axis
//!   sensitivity interval can bound jointly, so certification is per state;
//! * [`Forecaster::forecast`] walks the envelope best-first by exact
//!   `k`-step probability, classifies the class
//!   ([`ClassFate::WillHold`] / [`ClassFate::MayExit`] /
//!   [`ClassFate::WillExit`]) and emits a ranked [`PresolvePlan`] of the
//!   likeliest next platforms with their expected triage rungs — the work
//!   list an idle serving worker drains to pre-solve the future.
//!
//! Speculation never touches correctness: a pre-solved answer is produced
//! by the same triage ladder as a demand solve and is bit-identical
//! (`Ratio`-equal) to a cold solve; a wrong prediction only wastes the idle
//! cycles it was computed in.
//!
//! # Example
//!
//! ```
//! use steady_forecast::{ClassFate, ForecastConfig, Forecaster};
//! use steady_core::problem::SteadyProblem;
//! use steady_core::ScatterProblem;
//! use steady_drift::{DriftConfig, DriftModel};
//! use steady_platform::generators::heterogeneous_star;
//! use steady_rational::rat;
//!
//! let (platform, center, leaves) = heterogeneous_star(&[rat(1, 2), rat(1, 3)]);
//! let model = DriftModel::new(platform, DriftConfig::default(), 42);
//!
//! // Solve the current platform once and keep the basis.
//! let problem = ScatterProblem::new(model.current(), center, leaves.clone()).unwrap();
//! let (_, report) = steady_drift::solve_steady_triaged(&problem, None).unwrap();
//! let basis = report.basis.unwrap();
//!
//! // Forecast one step ahead: every reachable platform is classified.
//! let forecaster = Forecaster::new(ForecastConfig::default());
//! let plan = forecaster
//!     .forecast(&model, |p| ScatterProblem::new(p, center, leaves.clone()), &basis)
//!     .unwrap();
//! assert!(plan.exhaustive, "a one-step envelope on a 2-edge star is tiny");
//! assert!(!matches!(plan.fate, ClassFate::WillExit) || !plan.candidates.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod forecaster;

pub use forecaster::{
    ClassFate, ForecastConfig, Forecaster, PlannedSolve, PredictedTriage, PresolvePlan,
};
