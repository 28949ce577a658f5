//! Solver observability: an event tap on every pivot of every solver path.
//!
//! The steady-state answers this workspace serves are produced by LP solves,
//! and at thousand-node scale those solves dominate end-to-end latency.  This
//! module makes them inspectable without touching their arithmetic: the
//! solvers ([`crate::revised`], [`crate::exact`]) emit a
//! [`SolveEvent`] at every phase transition, pivot, eta append,
//! refactorization, warm-start install, cold crash start, exact check and
//! certified-pipeline fallback, into whatever [`SolveObserver`] the caller
//! supplies.
//!
//! **Zero-cost when off.**  Every emission site is guarded by the observer's
//! associated constant [`SolveObserver::ENABLED`]; the default
//! [`NoopObserver`] sets it to `false`, so the monomorphized uninstrumented
//! solve contains no event construction at all — the `*_observed` entry
//! points instantiated with [`NoopObserver`] compile to exactly the code the
//! plain entry points had before this layer existed.
//!
//! **Observation never changes results.**  Observers receive copies of
//! solver state and have no channel back into the pivot rules; the property
//! tests in `tests/proptest_observer.rs` enforce that observed and
//! unobserved solves are bit-identical (values, objective, duals, bases,
//! per-phase pivot counts) on the primal and dual revised paths, and that
//! the event stream reconciles with the reported counters (pivot events ==
//! `iterations`).
//!
//! Three observers are provided: [`HealthObserver`] folds the stream into
//! the compact [`SolveHealth`] aggregate (degenerate-pivot fraction, Bland
//! switches, peak eta fill, fallback cause) that travels up through
//! `core::SolveReport` into the serving layer's metrics; a
//! [`RecordingObserver`] additionally keeps a timestamped, bounded event
//! timeline for traced serving solves and the `steady explain` command; and
//! [`Chain`] fans one stream into two observers.

use std::time::Instant;

/// The simplex phase a pivot belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvePhase {
    /// Phase 1: minimize the sum of artificials (feasibility search).
    Phase1,
    /// Phase 2: optimize the real objective from a feasible vertex.
    Phase2,
    /// Dual-simplex repair of a primal-infeasible warm basis.
    DualRepair,
}

impl SolvePhase {
    /// Short lowercase label for logs and timelines.
    pub fn name(&self) -> &'static str {
        match self {
            SolvePhase::Phase1 => "phase1",
            SolvePhase::Phase2 => "phase2",
            SolvePhase::DualRepair => "dual-repair",
        }
    }
}

/// The entering-column selection rule in force for a pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotRule {
    /// Largest reduced cost (the default rule).
    Dantzig,
    /// Smallest eligible index (the anti-cycling rule the solver switches to
    /// after `bland_after` pivots).
    Bland,
}

/// Whether a pivot was chosen by the primal or the dual ratio test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotKind {
    /// Primal simplex pivot (entering column first, then leaving row).
    Primal,
    /// Dual simplex pivot (leaving row first, then entering column).
    Dual,
}

/// Why the revised solver rebuilt its LU factorization mid-solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorReason {
    /// The eta file reached `RevisedOptions::refactor_interval` updates.
    EtaInterval,
    /// The eta file's fill-in outgrew the LU factors themselves.
    FillGrowth,
}

impl RefactorReason {
    /// Short lowercase label for logs and timelines.
    pub fn name(&self) -> &'static str {
        match self {
            RefactorReason::EtaInterval => "eta-interval",
            RefactorReason::FillGrowth => "fill-growth",
        }
    }
}

/// How a supplied warm basis was ultimately used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmOutcome {
    /// The basis installed cleanly and primal feasible; the solve resumed
    /// from it.
    Installed,
    /// The basis was incompatible, singular or primal infeasible and the
    /// solve restarted cold.
    Rejected,
    /// Dual path: the basis was still optimal — zero pivots, re-price only.
    StillOptimal,
    /// Dual path: dual-simplex pivots repaired the basis in place.
    DualRepaired,
    /// Dual path: primal phase-2 pivots re-optimized from the installed
    /// vertex.
    PrimalReoptimized,
    /// Dual path: the basis could not be exploited; the result comes from a
    /// fresh two-phase solve (or a phase-1 restart from the installed point).
    FellBack,
}

impl WarmOutcome {
    /// Short lowercase label for logs and timelines.
    pub fn name(&self) -> &'static str {
        match self {
            WarmOutcome::Installed => "installed",
            WarmOutcome::Rejected => "rejected",
            WarmOutcome::StillOptimal => "still-optimal",
            WarmOutcome::DualRepaired => "dual-repaired",
            WarmOutcome::PrimalReoptimized => "primal-reoptimized",
            WarmOutcome::FellBack => "fell-back",
        }
    }
}

/// Why the certified pipeline abandoned its fast `f64`-then-certify path and
/// re-solved with the exact rational simplex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FallbackCause {
    /// The `f64` stage failed (possibly a spurious round-off verdict); the
    /// exact simplex re-decides from scratch.
    FloatFailed,
    /// Exact verification rejected the rationalized float optimum.
    CertificationFailed {
        /// The reason the exact checks reported.
        reason: String,
    },
    /// The dual-simplex `f64` stage failed; the solve was re-routed cold
    /// through the certified pipeline.
    DualFloatFailed,
}

impl FallbackCause {
    /// Short lowercase label for logs, metrics and timelines.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FallbackCause::FloatFailed => "float-failed",
            FallbackCause::CertificationFailed { .. } => "certification-failed",
            FallbackCause::DualFloatFailed => "dual-float-failed",
        }
    }
}

/// One solver event.  A single logical solve may chain several runs (an
/// `f64` run and an exact fallback run), each introduced by
/// [`SolveEvent::RunStarted`]; pivot events across all runs of a solve sum
/// to the `iterations` its report states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveEvent {
    /// A solver run began.  Opens the run's install interval,
    /// [`PhaseBreakdown::install_nanos`], which the first phase or certify
    /// marker closes.
    RunStarted,
    /// A simplex phase began (within the current run).
    PhaseStarted {
        /// The phase that follows this marker.
        phase: SolvePhase,
    },
    /// A counted simplex pivot is about to execute.
    Pivot {
        /// The phase the pivot belongs to.
        phase: SolvePhase,
        /// Primal or dual ratio test.
        kind: PivotKind,
        /// Entering-column selection rule in force.
        rule: PivotRule,
        /// Entering (standard-form) column.
        entering: usize,
        /// Leaving (standard-form) column.
        leaving: usize,
        /// `true` when the pivot does not move the current vertex (zero
        /// primal ratio, or zero dual reduced cost).
        degenerate: bool,
    },
    /// The revised solver appended an eta update to its factorization.
    EtaAppended {
        /// Eta-file length after the append.
        etas: usize,
        /// Total nonzeros stored across the eta file.
        eta_nnz: usize,
    },
    /// The revised solver is about to rebuild its LU factorization.
    RefactorStarted {
        /// What triggered the rebuild.
        reason: RefactorReason,
        /// Eta-file length at the trigger point.
        etas: usize,
        /// Eta-file nonzeros at the trigger point.
        eta_nnz: usize,
    },
    /// The LU rebuild finished.
    RefactorFinished {
        /// Nonzeros of the fresh factorization — together with `dim` this is
        /// the Markowitz quality measure (fill per row = `lu_nnz / dim`).
        lu_nnz: usize,
        /// Basis dimension.
        dim: usize,
    },
    /// A supplied warm basis resolved to an outcome.
    WarmStart {
        /// How the basis was used.
        outcome: WarmOutcome,
    },
    /// The revised solver chose its cold-start basis: a triangular crash that
    /// replaces zero-level artificials by real columns, so a run that covers
    /// every open row has no phase 1.
    CrashStart {
        /// Rows that would have started on an artificial at level zero.
        open_rows: usize,
        /// How many of them start on a real column instead.
        covered: usize,
    },
    /// The certified pipeline is about to check the float answer exactly
    /// ([`crate::exact::certify`]).  Closes the open phase: certify time is
    /// its own [`PhaseBreakdown::certify_nanos`] bucket.
    CertifyStarted,
    /// The certified pipeline fell back to the exact simplex.
    Fallback {
        /// Why the fast path was abandoned.
        cause: FallbackCause,
    },
}

/// A sink for [`SolveEvent`]s, threaded through every solver entry point.
///
/// Implementations must not (and cannot) influence the solve: they receive
/// copies of solver state only.  Set [`SolveObserver::ENABLED`] to `false`
/// (as [`NoopObserver`] does) to compile all emission sites away.
pub trait SolveObserver {
    /// `false` disables event construction statically; emission sites are
    /// guarded by `if O::ENABLED` and fold to nothing when it is `false`.
    const ENABLED: bool = true;

    /// Receives one event.
    fn on_event(&mut self, event: SolveEvent);
}

/// The default observer: statically disabled, so observed entry points
/// instantiated with it are bit-for-bit the uninstrumented solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SolveObserver for NoopObserver {
    const ENABLED: bool = false;

    fn on_event(&mut self, _event: SolveEvent) {}
}

/// Fans one event stream into two observers (events are cloned only when
/// both sides are enabled).
#[derive(Debug)]
pub struct Chain<'a, A, B>(pub &'a mut A, pub &'a mut B);

impl<A: SolveObserver, B: SolveObserver> SolveObserver for Chain<'_, A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_event(&mut self, event: SolveEvent) {
        if A::ENABLED && B::ENABLED {
            self.0.on_event(event.clone());
            self.1.on_event(event);
        } else if A::ENABLED {
            self.0.on_event(event);
        } else if B::ENABLED {
            self.1.on_event(event);
        }
    }
}

/// Numeric-health aggregate of one logical solve, folded from its event
/// stream.  This is the compact per-solve record the serving layer feeds
/// into histograms and query traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveHealth {
    /// Counted pivots across all runs (equals the report's `iterations`).
    pub pivots: usize,
    /// Pivots whose ratio was zero (the vertex did not move) — the
    /// classical degeneracy signal.
    pub degenerate_pivots: usize,
    /// Pivots taken under Bland's anti-cycling rule; any nonzero value
    /// means the Dantzig→Bland switch fired.
    pub bland_pivots: usize,
    /// Dual-simplex pivots (subset of `pivots`).
    pub dual_pivots: usize,
    /// Mid-solve LU refactorizations of the revised solver.
    pub refactorizations: usize,
    /// Longest eta file reached between refactorizations.
    pub peak_eta: usize,
    /// Largest eta-file fill (total stored nonzeros) reached.
    pub peak_eta_nnz: usize,
    /// Certified-pipeline fallback, when one fired (the last one wins if a
    /// solve somehow chains several).
    pub fallback: Option<FallbackCause>,
}

impl SolveHealth {
    /// Folds one event into the aggregate.
    pub fn observe(&mut self, event: &SolveEvent) {
        match event {
            SolveEvent::Pivot { kind, rule, degenerate, .. } => {
                self.pivots += 1;
                if *degenerate {
                    self.degenerate_pivots += 1;
                }
                if *rule == PivotRule::Bland {
                    self.bland_pivots += 1;
                }
                if *kind == PivotKind::Dual {
                    self.dual_pivots += 1;
                }
            }
            SolveEvent::EtaAppended { etas, eta_nnz } => {
                self.peak_eta = self.peak_eta.max(*etas);
                self.peak_eta_nnz = self.peak_eta_nnz.max(*eta_nnz);
            }
            SolveEvent::RefactorFinished { .. } => self.refactorizations += 1,
            SolveEvent::Fallback { cause } => self.fallback = Some(cause.clone()),
            SolveEvent::RunStarted
            | SolveEvent::PhaseStarted { .. }
            | SolveEvent::RefactorStarted { .. }
            | SolveEvent::WarmStart { .. }
            | SolveEvent::CrashStart { .. }
            | SolveEvent::CertifyStarted => {}
        }
    }

    /// Fraction of pivots that were degenerate (0 when no pivots ran).
    pub fn degenerate_fraction(&self) -> f64 {
        if self.pivots == 0 {
            0.0
        } else {
            self.degenerate_pivots as f64 / self.pivots as f64
        }
    }

    /// `true` when the Dantzig→Bland anti-cycling switch fired.
    pub fn bland_switched(&self) -> bool {
        self.bland_pivots > 0
    }

    /// `true` when the certified pipeline abandoned its fast path.
    pub fn fell_back(&self) -> bool {
        self.fallback.is_some()
    }
}

/// An observer that folds the stream into a [`SolveHealth`] and keeps
/// nothing else — cheap enough to leave attached to every serving solve.
#[derive(Debug, Default)]
pub struct HealthObserver {
    health: SolveHealth,
}

impl HealthObserver {
    /// A fresh, empty aggregate.
    pub fn new() -> HealthObserver {
        HealthObserver::default()
    }

    /// The aggregate so far.
    pub fn health(&self) -> &SolveHealth {
        &self.health
    }

    /// Consumes the observer, returning the aggregate.
    pub fn into_health(self) -> SolveHealth {
        self.health
    }
}

impl SolveObserver for HealthObserver {
    fn on_event(&mut self, event: SolveEvent) {
        self.health.observe(&event);
    }
}

/// A [`SolveEvent`] stamped with nanoseconds since the recording began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// Nanoseconds from [`RecordingObserver`] construction to the event.
    pub at_nanos: u64,
    /// The event itself.
    pub event: SolveEvent,
}

/// An observer that keeps a timestamped timeline of the event stream (up to
/// a capacity; later events are counted, not stored) alongside the
/// [`SolveHealth`] aggregate.  The serving layer turns a traced query's
/// timeline into the phase breakdown its trace carries, and the
/// `steady explain` command renders it in full.
#[derive(Debug)]
pub struct RecordingObserver {
    start: Instant,
    events: Vec<TimedEvent>,
    capacity: usize,
    truncated: usize,
    health: SolveHealth,
}

impl RecordingObserver {
    /// Records at most `capacity` events; the rest only update the health
    /// aggregate and the truncation counter.
    pub fn new(capacity: usize) -> RecordingObserver {
        RecordingObserver {
            start: Instant::now(),
            events: Vec::new(),
            capacity: capacity.max(1),
            truncated: 0,
            health: SolveHealth::default(),
        }
    }

    /// Records every event (bounded only by memory); for offline tools.
    pub fn unbounded() -> RecordingObserver {
        RecordingObserver::new(usize::MAX)
    }

    /// The health aggregate so far.
    pub fn health(&self) -> &SolveHealth {
        &self.health
    }

    /// The recorded timeline so far.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Events observed but not stored (capacity overflow).
    pub fn truncated(&self) -> usize {
        self.truncated
    }

    /// Nanoseconds since the recording began.
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Seals the recording, stamping the total wall time.
    pub fn finish(self) -> SolveRecording {
        SolveRecording {
            total_nanos: self.start.elapsed().as_nanos() as u64,
            events: self.events,
            truncated: self.truncated,
            health: self.health,
        }
    }
}

impl SolveObserver for RecordingObserver {
    fn on_event(&mut self, event: SolveEvent) {
        self.health.observe(&event);
        if self.events.len() < self.capacity {
            let at_nanos = self.start.elapsed().as_nanos() as u64;
            self.events.push(TimedEvent { at_nanos, event });
        } else {
            self.truncated += 1;
        }
    }
}

/// A sealed solve timeline: the events, the truncation count, the health
/// aggregate and the total wall time of the solve they were recorded from.
#[derive(Debug, Clone, Default)]
pub struct SolveRecording {
    /// Wall nanoseconds from recording start to [`RecordingObserver::finish`].
    pub total_nanos: u64,
    /// The recorded, timestamped events in emission order.
    pub events: Vec<TimedEvent>,
    /// Events observed but not stored.
    pub truncated: usize,
    /// The health aggregate over **all** events (stored or truncated).
    pub health: SolveHealth,
}

impl SolveRecording {
    /// Derives the wall-clock phase breakdown from the timeline: each
    /// [`SolveEvent::RunStarted`], [`SolveEvent::PhaseStarted`] or
    /// [`SolveEvent::CertifyStarted`] marker opens an interval (install,
    /// phase or certify) that the next run/phase/certify/fallback marker (or
    /// the end of the solve) closes.  The buckets are disjoint sub-intervals
    /// of the solve, so their sum never exceeds
    /// [`SolveRecording::total_nanos`].
    pub fn breakdown(&self) -> PhaseBreakdown {
        #[derive(Clone, Copy)]
        enum Bucket {
            Install,
            Phase(SolvePhase),
            Certify,
        }
        let mut out = PhaseBreakdown::default();
        let mut open: Option<(Bucket, u64)> = None;
        let mut refactor_open: Option<u64> = None;
        let close = |open: &mut Option<(Bucket, u64)>, now: u64, out: &mut PhaseBreakdown| {
            if let Some((bucket, since)) = open.take() {
                let span = now.saturating_sub(since);
                match bucket {
                    Bucket::Install => out.install_nanos += span,
                    Bucket::Phase(SolvePhase::Phase1) => out.phase1_nanos += span,
                    Bucket::Phase(SolvePhase::Phase2) => out.phase2_nanos += span,
                    Bucket::Phase(SolvePhase::DualRepair) => out.dual_nanos += span,
                    Bucket::Certify => out.certify_nanos += span,
                }
            }
        };
        for e in &self.events {
            match &e.event {
                SolveEvent::Fallback { .. } => close(&mut open, e.at_nanos, &mut out),
                SolveEvent::RunStarted => {
                    close(&mut open, e.at_nanos, &mut out);
                    open = Some((Bucket::Install, e.at_nanos));
                }
                SolveEvent::PhaseStarted { phase } => {
                    close(&mut open, e.at_nanos, &mut out);
                    open = Some((Bucket::Phase(*phase), e.at_nanos));
                }
                SolveEvent::CertifyStarted => {
                    close(&mut open, e.at_nanos, &mut out);
                    open = Some((Bucket::Certify, e.at_nanos));
                }
                SolveEvent::RefactorStarted { .. } => refactor_open = Some(e.at_nanos),
                SolveEvent::RefactorFinished { .. } => {
                    if let Some(since) = refactor_open.take() {
                        out.refactor_nanos += e.at_nanos.saturating_sub(since);
                    }
                }
                _ => {}
            }
        }
        close(&mut open, self.total_nanos, &mut out);
        out
    }
}

/// Where a solve's wall time went, by simplex phase and exact check.
/// `refactor_nanos` is time spent rebuilding LU factorizations and is
/// *included* in the phase the rebuild happened in (it is reported
/// separately, not additionally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Wall nanoseconds from each run's start to its first phase or certify
    /// marker, all runs summed: the standard form, the start basis (crash or
    /// warm install), its factorization and first FTRAN — and, when phase 1
    /// does not run, any artificial drive-out before phase 2.
    pub install_nanos: u64,
    /// Wall nanoseconds in phase 1 (feasibility search), all runs summed.
    pub phase1_nanos: u64,
    /// Wall nanoseconds in phase 2 (optimization); the exact check's marker
    /// closes it, so it holds no certify time.
    pub phase2_nanos: u64,
    /// Wall nanoseconds in dual-simplex repair.
    pub dual_nanos: u64,
    /// Wall nanoseconds in [`crate::exact::certify`]: rationalizing the float
    /// answer and checking it exactly.
    pub certify_nanos: u64,
    /// Wall nanoseconds inside LU refactorizations (subset of the phases).
    pub refactor_nanos: u64,
}

impl PhaseBreakdown {
    /// Sum of the disjoint buckets (install, phases and certify) — by
    /// construction never more than the total solve time they were carved
    /// from.
    pub fn phase_total_nanos(&self) -> u64 {
        self.install_nanos
            + self.phase1_nanos
            + self.phase2_nanos
            + self.dual_nanos
            + self.certify_nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pivot(degenerate: bool, rule: PivotRule, kind: PivotKind) -> SolveEvent {
        SolveEvent::Pivot {
            phase: SolvePhase::Phase2,
            kind,
            rule,
            entering: 1,
            leaving: 2,
            degenerate,
        }
    }

    #[test]
    fn noop_observer_is_statically_disabled() {
        const { assert!(!NoopObserver::ENABLED) };
        const { assert!(HealthObserver::ENABLED) };
    }

    #[test]
    fn health_folds_the_stream() {
        let mut h = SolveHealth::default();
        h.observe(&pivot(true, PivotRule::Dantzig, PivotKind::Primal));
        h.observe(&pivot(false, PivotRule::Bland, PivotKind::Dual));
        h.observe(&SolveEvent::EtaAppended { etas: 3, eta_nnz: 17 });
        h.observe(&SolveEvent::EtaAppended { etas: 1, eta_nnz: 5 });
        h.observe(&SolveEvent::RefactorFinished { lu_nnz: 40, dim: 10 });
        h.observe(&SolveEvent::Fallback { cause: FallbackCause::FloatFailed });
        assert_eq!(h.pivots, 2);
        assert_eq!(h.degenerate_pivots, 1);
        assert_eq!(h.bland_pivots, 1);
        assert_eq!(h.dual_pivots, 1);
        assert_eq!(h.refactorizations, 1);
        assert_eq!(h.peak_eta, 3);
        assert_eq!(h.peak_eta_nnz, 17);
        assert!((h.degenerate_fraction() - 0.5).abs() < 1e-12);
        assert!(h.bland_switched());
        assert!(h.fell_back());
        assert_eq!(h.fallback.as_ref().unwrap().kind_name(), "float-failed");
    }

    #[test]
    fn chain_feeds_both_sides() {
        let mut a = HealthObserver::new();
        let mut b = HealthObserver::new();
        let mut chain = Chain(&mut a, &mut b);
        chain.on_event(pivot(false, PivotRule::Dantzig, PivotKind::Primal));
        assert_eq!(a.health().pivots, 1);
        assert_eq!(b.health().pivots, 1);
    }

    #[test]
    fn recording_truncates_but_keeps_counting() {
        let mut rec = RecordingObserver::new(2);
        for _ in 0..5 {
            rec.on_event(pivot(false, PivotRule::Dantzig, PivotKind::Primal));
        }
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.truncated(), 3);
        let sealed = rec.finish();
        assert_eq!(sealed.health.pivots, 5);
        assert_eq!(sealed.truncated, 3);
    }

    #[test]
    fn breakdown_carves_disjoint_phase_intervals() {
        let rec = SolveRecording {
            total_nanos: 100,
            events: vec![
                TimedEvent { at_nanos: 0, event: SolveEvent::RunStarted },
                TimedEvent {
                    at_nanos: 10,
                    event: SolveEvent::PhaseStarted { phase: SolvePhase::Phase1 },
                },
                TimedEvent {
                    at_nanos: 20,
                    event: SolveEvent::RefactorStarted {
                        reason: RefactorReason::EtaInterval,
                        etas: 4,
                        eta_nnz: 9,
                    },
                },
                TimedEvent {
                    at_nanos: 25,
                    event: SolveEvent::RefactorFinished { lu_nnz: 12, dim: 4 },
                },
                TimedEvent {
                    at_nanos: 40,
                    event: SolveEvent::PhaseStarted { phase: SolvePhase::Phase2 },
                },
                TimedEvent { at_nanos: 70, event: SolveEvent::CertifyStarted },
                TimedEvent {
                    at_nanos: 85,
                    event: SolveEvent::Fallback {
                        cause: FallbackCause::CertificationFailed { reason: "gap".into() },
                    },
                },
                TimedEvent { at_nanos: 86, event: SolveEvent::RunStarted },
                TimedEvent {
                    at_nanos: 90,
                    event: SolveEvent::PhaseStarted { phase: SolvePhase::Phase2 },
                },
            ],
            truncated: 0,
            health: SolveHealth::default(),
        };
        let b = rec.breakdown();
        assert_eq!(b.install_nanos, 10 + 4);
        assert_eq!(b.phase1_nanos, 30);
        assert_eq!(b.phase2_nanos, 30 + 10);
        assert_eq!(b.certify_nanos, 15);
        assert_eq!(b.dual_nanos, 0);
        assert_eq!(b.refactor_nanos, 5);
        // Only the gap between the fallback and the next run is unaccounted.
        assert_eq!(b.phase_total_nanos(), 99);
        assert!(b.phase_total_nanos() <= rec.total_nanos);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SolvePhase::DualRepair.name(), "dual-repair");
        assert_eq!(RefactorReason::FillGrowth.name(), "fill-growth");
        assert_eq!(WarmOutcome::StillOptimal.name(), "still-optimal");
        assert_eq!(
            FallbackCause::CertificationFailed { reason: "gap".into() }.kind_name(),
            "certification-failed"
        );
    }
}
