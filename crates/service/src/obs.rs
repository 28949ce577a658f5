//! Per-query lifecycle tracing for the serving core.
//!
//! Every query admitted by [`crate::engine::Service`] can carry a
//! [`QueryTrace`] — a fixed-size, heap-free record of monotonic timestamps
//! at each lifecycle edge (cache lookup → worker pickup → single-flight →
//! solve → publish), plus the triage rung, per-phase simplex pivot counts
//! ([`steady_lp::SolveTrace`]), fallback cause and solver time breakdown of
//! the solve that answered it.  A cache hit is answered on the caller's
//! thread and stops after the lookup: its trace has a lookup and a publish
//! span and nothing in between.  Completed traces land in bounded ring buffers
//! ([`TraceRing`]) — one per worker, plus caller-side rings for the traces
//! sealed on callers' threads — that **never block the hot path**: the push
//! is a `try_lock` that drops (and counts) the record on contention, and
//! the buffer overwrites (and counts) its oldest record when full.  A
//! collector drains the rings off-path and can render the result as Chrome
//! trace-event JSON ([`chrome_trace_json`]) loadable in Perfetto.
//!
//! Time comes from the [`Clock`] trait.  Production uses [`WallClock`]
//! (monotonic `Instant` nanoseconds from service start); the trait is the
//! seam where the roadmap's simulated clock plugs in — a deterministic
//! clock makes every timestamp below reproducible without touching the
//! engine.
//!
//! Tracing is **zero-allocation when off and cheap when on**: disabled, the
//! per-query cost is `Option::None` in the job struct; enabled, a
//! `QueryTrace` is a `Copy` struct threaded by value, so the only shared
//! mutable state is the ring itself (rank 50 in the
//! [`crate::sync`] lock order — a strict leaf).

use std::time::Instant;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use std::collections::VecDeque;

/// A monotonic nanosecond clock.
///
/// The single seam between the serving core and real time: every timestamp
/// in a [`QueryTrace`] and every latency histogram sample is a difference
/// of `now_nanos()` readings.  Swapping in a simulated clock (a roadmap
/// item) makes the whole observability layer deterministic.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin; must never decrease.
    fn now_nanos(&self) -> u64;
}

/// The production [`Clock`]: monotonic nanoseconds since construction.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is "now".
    pub fn new() -> WallClock {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A manually advanced [`Clock`] for tests (and the seed of the roadmap's
/// simulated clock).
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock starting at 0.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Advances the clock by `nanos`.
    pub fn advance(&self, nanos: u64) {
        // relaxed: test-only monotone counter; readers only need *some*
        // non-decreasing value, not ordering against other memory.
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        // relaxed: see `advance`.
        self.nanos.load(Ordering::Relaxed)
    }
}

/// The lifecycle stages of a traced query, in order.  Each stage's span is
/// the difference of two adjacent [`QueryTrace`] timestamps, so the stage
/// durations **sum exactly** to the end-to-end latency.
pub const STAGES: [&str; 5] = ["lookup", "queue", "flight", "solve", "publish"];

/// [`QueryTrace::lane`] of a query answered on its caller's thread — it never
/// rode a scheduler lane.
pub const INLINE_LANE: &str = "inline";

/// A heap-free record of one query's trip through the serving core.
///
/// All timestamps are [`Clock`] nanoseconds.  Stages a query skips (a cache
/// hit never reaches a worker, let alone a solve) keep their timestamps
/// equal to the previous edge, so every span is well-defined and
/// non-negative after [`QueryTrace::finish`] runs its monotone fix-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTrace {
    /// Unique id (assigned at submit, monotonically increasing).
    pub id: u64,
    /// Worker that admitted (dequeued) the query — for an [`INLINE_LANE`]
    /// trace, the caller-side ring of the thread that answered it.
    pub worker: u32,
    /// Worker that solved/published — for a query parked on another's
    /// in-flight solve, the leader's worker, which may differ from `worker`.
    pub solver: u32,
    /// Query reached the service (`Service::submit`).
    pub submitted_nanos: u64,
    /// Validation, fingerprint and cache lookup finished (on the caller's
    /// thread for demand traffic).
    pub lookup_done_nanos: u64,
    /// A worker dequeued it (misses and expired entries only).
    pub admitted_nanos: u64,
    /// Single-flight join-or-lead resolved (parked, fed, or led) — for the
    /// leader, the moment its solve began.
    pub solve_start_nanos: u64,
    /// Solve finished.
    pub solve_done_nanos: u64,
    /// Answer published and reply sent.
    pub end_nanos: u64,
    /// Scheduler lane the query rode (`"demand"`, `"revalidation"` or
    /// `"prefetch"`), or [`INLINE_LANE`] when it was answered on its
    /// caller's thread.
    pub lane: &'static str,
    /// Cache lookup outcome: `"hit"`, `"stale"` or `"miss"`.
    pub lookup: &'static str,
    /// How the query was ultimately served (mirrors
    /// [`crate::engine::ServedVia`], plus `"error"`, `"prefetch"`, and
    /// `"deadline"` / `"cancelled"` for a query shed before it ran).
    pub outcome: &'static str,
    /// Triage rung of the solve that answered (empty when no solve ran).
    pub triage: &'static str,
    /// Phase-1 (feasibility) simplex pivots of the answering solve.
    pub phase1_pivots: u32,
    /// Phase-2 (optimization) simplex pivots of the answering solve.
    pub phase2_pivots: u32,
    /// Degenerate pivots of the answering solve (zero-progress steps).
    pub degenerate_pivots: u32,
    /// Pivots taken under Bland's anti-cycling rule (non-zero means the
    /// solve degraded off Dantzig pricing).
    pub bland_pivots: u32,
    /// Why the answering solve fell back off the certified fast path
    /// ([`steady_lp::FallbackCause::kind_name`]); empty when it did not.
    pub fallback: &'static str,
    /// Time the solver spent installing its start basis, nanoseconds: each
    /// run's start to its first phase or certify marker (see
    /// [`steady_lp::PhaseBreakdown::install_nanos`]).
    pub solve_install_nanos: u64,
    /// Time the solver spent in phase 1, nanoseconds.
    pub solve_phase1_nanos: u64,
    /// Time the solver spent in phase 2, nanoseconds.
    pub solve_phase2_nanos: u64,
    /// Time the solver spent in dual-simplex repair, nanoseconds.
    pub solve_dual_nanos: u64,
    /// Time the solver spent checking the float answer exactly,
    /// nanoseconds.
    pub solve_certify_nanos: u64,
    /// Time the solver spent refactorizing the basis, nanoseconds
    /// (*included* in the surrounding phase spans).
    pub solve_refactor_nanos: u64,
}

impl QueryTrace {
    /// A fresh trace: every timestamp starts at `now` and is overwritten as
    /// the query passes each edge.
    pub fn begin(id: u64, now: u64) -> QueryTrace {
        QueryTrace {
            id,
            worker: 0,
            solver: 0,
            submitted_nanos: now,
            lookup_done_nanos: now,
            admitted_nanos: now,
            solve_start_nanos: now,
            solve_done_nanos: now,
            end_nanos: now,
            lane: "demand",
            lookup: "",
            outcome: "",
            triage: "",
            phase1_pivots: 0,
            phase2_pivots: 0,
            degenerate_pivots: 0,
            bland_pivots: 0,
            fallback: "",
            solve_install_nanos: 0,
            solve_phase1_nanos: 0,
            solve_phase2_nanos: 0,
            solve_dual_nanos: 0,
            solve_certify_nanos: 0,
            solve_refactor_nanos: 0,
        }
    }

    /// Records the per-phase pivot counts of the answering solve.
    pub fn set_solve(&mut self, trace: steady_lp::SolveTrace) {
        self.phase1_pivots = trace.phase1_pivots.min(u32::MAX as usize) as u32;
        self.phase2_pivots = trace.phase2_pivots.min(u32::MAX as usize) as u32;
    }

    /// Records the answering solve's health aggregate (pivot-mix counters
    /// and fallback cause; see [`steady_lp::SolveHealth`]).
    pub fn set_health(&mut self, health: &steady_lp::SolveHealth) {
        self.degenerate_pivots = health.degenerate_pivots.min(u32::MAX as usize) as u32;
        self.bland_pivots = health.bland_pivots.min(u32::MAX as usize) as u32;
        self.fallback = health.fallback.as_ref().map_or("", steady_lp::FallbackCause::kind_name);
    }

    /// Records the answering solve's per-phase time breakdown (from a
    /// [`steady_lp::SolveRecording`]); rendered as solver sub-spans nested
    /// under the solve span by [`chrome_trace_json`].
    pub fn set_breakdown(&mut self, breakdown: &steady_lp::PhaseBreakdown) {
        self.solve_install_nanos = breakdown.install_nanos;
        self.solve_phase1_nanos = breakdown.phase1_nanos;
        self.solve_phase2_nanos = breakdown.phase2_nanos;
        self.solve_dual_nanos = breakdown.dual_nanos;
        self.solve_certify_nanos = breakdown.certify_nanos;
        self.solve_refactor_nanos = breakdown.refactor_nanos;
    }

    /// Seals the trace: stamps the outcome and end time, then runs a
    /// monotone fix-up so skipped stages collapse to zero-length spans
    /// instead of going negative (a cache hit never wrote the solve edges,
    /// which still hold earlier values).
    pub fn finish(&mut self, outcome: &'static str, end_nanos: u64) {
        self.outcome = outcome;
        self.end_nanos = end_nanos;
        let mut floor = self.submitted_nanos;
        for stamp in [
            &mut self.lookup_done_nanos,
            &mut self.admitted_nanos,
            &mut self.solve_start_nanos,
            &mut self.solve_done_nanos,
            &mut self.end_nanos,
        ] {
            if *stamp < floor {
                *stamp = floor;
            }
            floor = *stamp;
        }
    }

    /// `(stage name, start, end)` for each of [`STAGES`], adjacent and
    /// gap-free: the spans sum exactly to `end_nanos - submitted_nanos`.
    pub fn stages(&self) -> [(&'static str, u64, u64); 5] {
        [
            ("lookup", self.submitted_nanos, self.lookup_done_nanos),
            ("queue", self.lookup_done_nanos, self.admitted_nanos),
            ("flight", self.admitted_nanos, self.solve_start_nanos),
            ("solve", self.solve_start_nanos, self.solve_done_nanos),
            ("publish", self.solve_done_nanos, self.end_nanos),
        ]
    }

    /// End-to-end latency in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.submitted_nanos)
    }
}

/// A bounded ring buffer of completed [`QueryTrace`]s with drop accounting.
///
/// The hot-path [`TraceRing::push`] never blocks: it `try_lock`s the ring
/// and **drops the record** (counting it) if a collector holds the lock,
/// and overwrites the oldest record (counting it) when full.  The ring is
/// rank 50 — the bottom of the lock order — and the only blocking
/// acquisition is the collector's [`TraceRing::drain`], taken with no other
/// lock held.
#[derive(Debug)]
pub struct TraceRing {
    ring: Mutex<VecDeque<QueryTrace>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring holding at most `capacity` (≥ 1) traces.
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Offers a completed trace.  Never blocks: on lock contention the
    /// trace is dropped; when full the **oldest** trace is evicted.  Either
    /// loss increments the drop counter, so
    /// `pushed == drained + buffered + dropped` always holds.
    pub fn push(&self, trace: QueryTrace) {
        match self.ring.try_lock() {
            Some(mut ring) => {
                if ring.len() == self.capacity {
                    ring.pop_front();
                    // relaxed: monotone loss tally; read only by collectors
                    // that tolerate a momentarily stale count.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                ring.push_back(trace);
            }
            None => {
                // relaxed: see above.
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Removes and returns every buffered trace (collector side; blocks on
    /// the ring lock, which writers only ever `try_lock`).
    pub fn drain(&self) -> Vec<QueryTrace> {
        let mut ring = self.ring.lock();
        ring.drain(..).collect()
    }

    /// Traces lost to contention or overwrite since construction.
    pub fn dropped(&self) -> u64 {
        // relaxed: monotone tally, point-in-time read.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Buffered traces right now.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Caller-side rings per [`TraceSink`].  Callers are not the service's
/// threads, so their number is unknown: each calling thread keeps one ring
/// for life ([`caller_ring`]), and up to this many concurrent callers never
/// share one.
pub const CALLER_RINGS: usize = 8;

/// Hands each thread that asks the next caller-ring index, once.
static NEXT_CALLER_RING: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

std::thread_local! {
    // relaxed: a ticket counter; threads need distinct tickets, not order.
    static CALLER_RING: usize = NEXT_CALLER_RING.fetch_add(1, Ordering::Relaxed) % CALLER_RINGS;
}

/// The calling thread's caller-side ring (in `0..CALLER_RINGS`, fixed for
/// the thread's life): where the traces it seals inline belong.
pub fn caller_ring() -> usize {
    CALLER_RING.with(|ring| *ring)
}

/// Which of a [`TraceSink`]'s rings a completed trace is offered to.
#[derive(Debug, Clone, Copy)]
pub enum Ring {
    /// The ring of the worker that sealed the trace.
    Worker(usize),
    /// A caller-side ring (see [`caller_ring`]), for a trace sealed on its
    /// caller's thread.
    Caller(usize),
}

/// The per-service trace collector: one [`TraceRing`] per worker,
/// [`CALLER_RINGS`] caller-side rings, and the id source.  A worker pushes
/// only to its own ring and a calling thread only to its own caller-side
/// ring, so a ring sees one concurrent writer plus the collector (callers
/// beyond [`CALLER_RINGS`] share, and contention there is a counted drop).
#[derive(Debug)]
pub struct TraceSink {
    workers: Vec<TraceRing>,
    callers: Vec<TraceRing>,
    next_id: AtomicU64,
    enabled: bool,
}

impl TraceSink {
    /// A sink whose rings each hold `capacity`.  When `enabled` is false,
    /// [`TraceSink::begin`] returns `None` and the whole tracing path costs
    /// one branch per query.
    pub fn new(workers: usize, capacity: usize, enabled: bool) -> TraceSink {
        let rings = |n: usize| (0..n).map(|_| TraceRing::new(capacity)).collect();
        TraceSink {
            workers: rings(workers.max(1)),
            callers: rings(CALLER_RINGS),
            next_id: AtomicU64::new(0),
            enabled,
        }
    }

    /// Whether per-query tracing is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a trace for a query submitted at `now`, or `None` when
    /// tracing is off.
    pub fn begin(&self, now: u64) -> Option<QueryTrace> {
        if !self.enabled {
            return None;
        }
        // relaxed: unique-id counter; ids need distinctness, not ordering.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Some(QueryTrace::begin(id, now))
    }

    /// Offers a completed trace to `ring` (indices wrap, so callers may
    /// pass any).
    pub fn push(&self, ring: Ring, trace: QueryTrace) {
        let (rings, index) = match ring {
            Ring::Worker(index) => (&self.workers, index),
            Ring::Caller(index) => (&self.callers, index),
        };
        rings[index % rings.len()].push(trace);
    }

    fn rings(&self) -> impl Iterator<Item = &TraceRing> {
        self.workers.iter().chain(&self.callers)
    }

    /// Drains every ring, returning all buffered traces ordered by
    /// submission time.
    pub fn drain(&self) -> Vec<QueryTrace> {
        let mut all: Vec<QueryTrace> = self.rings().flat_map(|r| r.drain()).collect();
        all.sort_by_key(|t| (t.submitted_nanos, t.id));
        all
    }

    /// Total traces lost across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings().map(|r| r.dropped()).sum()
    }
}

/// One client-side request span for the trace file (recorded by the load
/// generator: wall time from send to reply, per client thread).
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    /// Client thread index.
    pub client: u32,
    /// Request sent, [`Clock`] nanoseconds.
    pub start_nanos: u64,
    /// Reply received.
    pub end_nanos: u64,
    /// How the request was served (same labels as [`QueryTrace::outcome`]).
    pub outcome: &'static str,
}

/// Process id used for service worker tracks in the trace file.
const SERVICE_PID: u32 = 1;
/// Process id used for client tracks.
const CLIENT_PID: u32 = 2;
/// Synthetic thread id of caller-side ring 0's track; ring `r` is
/// `CALLER_TID_BASE + r`.
const CALLER_TID_BASE: u32 = 2000;

/// Formats `nanos` as fractional microseconds, the unit of the Chrome
/// trace-event `ts`/`dur` fields.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn push_event(out: &mut String, name: &str, pid: u32, tid: u32, start: u64, end: u64, args: &str) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push_str(&format!(
        "\n  {{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \
         \"ts\": {}, \"dur\": {}, \"args\": {{{args}}}}}",
        micros(start),
        micros(end.saturating_sub(start)),
    ));
}

fn push_thread_name(out: &mut String, pid: u32, tid: u32, name: &str) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push_str(&format!(
        "\n  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
         \"args\": {{\"name\": \"{name}\"}}}}",
    ));
}

/// Emits the solver's per-phase sub-spans nested inside a solve span, on the
/// **same tid** as the owning worker so Perfetto renders them as child
/// slices of the solve.  The breakdown only records totals, so the buckets
/// are laid out in their canonical order (install → phase 1 → dual repair →
/// phase 2 → certify) from the solve's start and clamped to its end;
/// refactorization time is included in the phases and reported as a
/// solve-span arg instead.
fn push_solver_spans(out: &mut String, t: &QueryTrace, tid: u32, start: u64, end: u64) {
    let mut cursor = start;
    for (name, nanos) in [
        ("solver.install", t.solve_install_nanos),
        ("solver.phase1", t.solve_phase1_nanos),
        ("solver.dual-repair", t.solve_dual_nanos),
        ("solver.phase2", t.solve_phase2_nanos),
        ("solver.certify", t.solve_certify_nanos),
    ] {
        if nanos == 0 {
            continue;
        }
        let sub_end = cursor.saturating_add(nanos).min(end);
        if sub_end > cursor {
            push_event(out, name, SERVICE_PID, tid, cursor, sub_end, &format!("\"qid\": {}", t.id));
        }
        cursor = sub_end;
    }
}

/// Renders completed traces (and optional client spans) as Chrome
/// trace-event JSON — the format Perfetto and `chrome://tracing` load
/// directly.  One track per service worker (pid 1), one per caller-side ring
/// that sealed an [`INLINE_LANE`] trace (hits answered on callers' threads),
/// and one track per load-generator client (pid 2).
/// Each solve span additionally carries nested `solver.install` /
/// `solver.phase1` / `solver.dual-repair` / `solver.phase2` /
/// `solver.certify` child slices on the owning worker's track (see
/// `push_solver_spans`).
pub fn chrome_trace_json(traces: &[QueryTrace], clients: &[ClientSpan]) -> String {
    let mut out = String::from("{\n\"traceEvents\": [");

    let inline = |t: &QueryTrace| t.lane == INLINE_LANE;
    let mut workers: Vec<u32> =
        traces.iter().filter(|t| !inline(t)).flat_map(|t| [t.worker, t.solver]).collect();
    workers.sort_unstable();
    workers.dedup();
    for &w in &workers {
        push_thread_name(&mut out, SERVICE_PID, w, &format!("worker-{w}"));
    }
    let mut callers: Vec<u32> = traces.iter().filter(|t| inline(t)).map(|t| t.worker).collect();
    callers.sort_unstable();
    callers.dedup();
    for &c in &callers {
        push_thread_name(&mut out, SERVICE_PID, CALLER_TID_BASE + c, &format!("caller-{c}"));
    }
    let mut client_ids: Vec<u32> = clients.iter().map(|c| c.client).collect();
    client_ids.sort_unstable();
    client_ids.dedup();
    for &c in &client_ids {
        push_thread_name(&mut out, CLIENT_PID, c, &format!("client-{c}"));
    }

    for t in traces {
        for (stage, start, end) in t.stages() {
            if end == start {
                continue;
            }
            // An inline trace ran on its caller's thread from end to end.
            // Otherwise lookup/queue/flight are drawn on the admitting
            // worker; solve/publish on the solver.
            let tid = match stage {
                _ if inline(t) => CALLER_TID_BASE + t.worker,
                "solve" | "publish" => t.solver,
                _ => t.worker,
            };
            let args = match stage {
                "solve" => format!(
                    "\"qid\": {}, \"triage\": \"{}\", \"phase1_pivots\": {}, \
                     \"phase2_pivots\": {}, \"degenerate_pivots\": {}, \
                     \"bland_pivots\": {}, \"refactor_nanos\": {}, \"fallback\": \"{}\"",
                    t.id,
                    t.triage,
                    t.phase1_pivots,
                    t.phase2_pivots,
                    t.degenerate_pivots,
                    t.bland_pivots,
                    t.solve_refactor_nanos,
                    t.fallback,
                ),
                "publish" => format!("\"qid\": {}, \"outcome\": \"{}\"", t.id, t.outcome),
                "lookup" | "queue" => format!("\"qid\": {}, \"lane\": \"{}\"", t.id, t.lane),
                _ => format!("\"qid\": {}", t.id),
            };
            push_event(&mut out, stage, SERVICE_PID, tid, start, end, &args);
            if stage == "solve" {
                push_solver_spans(&mut out, t, tid, start, end);
            }
        }
    }

    for c in clients {
        push_event(
            &mut out,
            "request",
            CLIENT_PID,
            c.client,
            c.start_nanos,
            c.end_nanos,
            &format!("\"outcome\": \"{}\"", c.outcome),
        );
    }

    out.push_str("\n],\n\"schema_version\": 1\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_nanos(), 0);
        clock.advance(5);
        clock.advance(7);
        assert_eq!(clock.now_nanos(), 12);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }

    /// The acceptance criterion: stage spans are adjacent and sum exactly
    /// to the end-to-end latency, even when stages were skipped.
    #[test]
    fn stage_spans_sum_to_total_even_with_skipped_stages() {
        // A cache hit: no worker ever picked it up, solve edges never written.
        let mut t = QueryTrace::begin(1, 100);
        t.lookup_done_nanos = 150;
        t.finish("cache", 160);
        let sum: u64 = t.stages().iter().map(|&(_, s, e)| e - s).sum();
        assert_eq!(sum, t.total_nanos());
        assert_eq!(sum, 60);
        assert_eq!(t.stages()[1], ("queue", 150, 150), "a hit has no queue span");
        for window in t.stages().windows(2) {
            assert_eq!(window[0].2, window[1].1, "stages must be adjacent");
        }

        // A full cold solve.
        let mut t = QueryTrace::begin(2, 0);
        t.lookup_done_nanos = 10;
        t.admitted_nanos = 25;
        t.solve_start_nanos = 400;
        t.solve_done_nanos = 900;
        t.finish("solve-cold", 950);
        let sum: u64 = t.stages().iter().map(|&(_, s, e)| e - s).sum();
        assert_eq!(sum, 950);
        assert_eq!(t.total_nanos(), 950);
    }

    #[test]
    fn finish_repairs_out_of_order_stamps() {
        let mut t = QueryTrace::begin(3, 50);
        t.lookup_done_nanos = 60;
        // admitted left at 50 (< lookup_done): fix-up must clamp it.
        t.finish("error", 70);
        assert_eq!(t.admitted_nanos, 60);
        let sum: u64 = t.stages().iter().map(|&(_, s, e)| e - s).sum();
        assert_eq!(sum, 20);
    }

    #[test]
    fn ring_drops_oldest_when_full_and_counts() {
        let ring = TraceRing::new(2);
        for id in 0..5 {
            ring.push(QueryTrace::begin(id, id));
        }
        assert_eq!(ring.dropped(), 3);
        let drained = ring.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].id, 3, "oldest must be evicted first");
        assert_eq!(drained[1].id, 4);
        assert!(ring.is_empty());
        // Conservation: pushed == drained + buffered + dropped.
        assert_eq!(5, drained.len() as u64 + ring.len() as u64 + ring.dropped());
    }

    #[test]
    fn disabled_sink_begins_nothing() {
        let sink = TraceSink::new(2, 8, false);
        assert!(!sink.enabled());
        assert!(sink.begin(0).is_none());
    }

    #[test]
    fn sink_assigns_unique_ids_and_drains_sorted() {
        let sink = TraceSink::new(2, 8, true);
        let mut a = sink.begin(200).unwrap();
        let mut b = sink.begin(100).unwrap();
        let mut c = sink.begin(150).unwrap();
        assert_ne!(a.id, b.id);
        a.finish("cache", 210);
        b.finish("cache", 110);
        c.finish("cache", 160);
        sink.push(Ring::Worker(0), a);
        sink.push(Ring::Worker(1), b);
        sink.push(Ring::Caller(caller_ring()), c);
        let all = sink.drain();
        assert_eq!(all.len(), 3, "worker and caller-side rings drain together");
        assert!(all.windows(2).all(|w| w[0].submitted_nanos <= w[1].submitted_nanos));
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn chrome_trace_json_shape() {
        let mut t = QueryTrace::begin(7, 1_000);
        t.worker = 0;
        t.solver = 1;
        t.lookup_done_nanos = 2_000;
        t.admitted_nanos = 3_000;
        t.solve_start_nanos = 10_000;
        t.solve_done_nanos = 20_000;
        t.lookup = "miss";
        t.triage = "resolve-cold";
        t.finish("solve-cold", 21_000);
        let clients =
            [ClientSpan { client: 0, start_nanos: 500, end_nanos: 22_000, outcome: "solve-cold" }];
        let json = chrome_trace_json(&[t], &clients);

        assert!(json.starts_with("{\n\"traceEvents\": ["), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"worker-1\""), "{json}");
        assert!(json.contains("\"client-0\""), "{json}");
        assert!(json.contains("\"name\": \"solve\""), "{json}");
        assert!(json.contains("\"triage\": \"resolve-cold\""), "{json}");
        // The flight span sits on the admitting worker, the solve on the
        // solver.
        assert!(
            json.contains("\"name\": \"flight\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0"),
            "{json}"
        );
        assert!(
            json.contains("\"name\": \"solve\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"),
            "{json}"
        );
        // Fractional-microsecond timestamps: 1000ns -> "1.000".
        assert!(json.contains("\"ts\": 1.000"), "{json}");
        assert!(json.contains("\"schema_version\": 1"), "{json}");
        // Balanced braces (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn solver_sub_spans_nest_inside_the_solve_span() {
        let mut t = QueryTrace::begin(9, 0);
        t.worker = 2;
        t.solver = 2;
        t.lookup_done_nanos = 100;
        t.admitted_nanos = 200;
        t.solve_start_nanos = 1_000;
        t.solve_done_nanos = 9_000;
        t.triage = "resolve-cold";
        t.solve_install_nanos = 500;
        t.solve_phase1_nanos = 2_000;
        t.solve_dual_nanos = 0;
        t.solve_phase2_nanos = 3_000;
        t.solve_certify_nanos = 1_000;
        t.solve_refactor_nanos = 500;
        t.degenerate_pivots = 4;
        t.bland_pivots = 1;
        t.finish("solve-cold", 9_500);
        let json = chrome_trace_json(&[t], &[]);
        // Child slices sit on the solver's tid, inside [1000, 9000).
        for name in ["solver.install", "solver.phase1", "solver.phase2", "solver.certify"] {
            let slice = format!("\"name\": \"{name}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 2");
            assert!(json.contains(&slice), "{name} missing: {json}");
        }
        assert!(!json.contains("solver.dual-repair"), "{json}");
        // install starts with the solve; phase1, phase2 and certify follow.
        assert!(json.contains("\"ts\": 1.000, \"dur\": 0.500"), "{json}");
        assert!(json.contains("\"ts\": 1.500, \"dur\": 2.000"), "{json}");
        assert!(json.contains("\"ts\": 3.500, \"dur\": 3.000"), "{json}");
        assert!(json.contains("\"ts\": 6.500, \"dur\": 1.000"), "{json}");
        // Health counters and refactor time ride on the solve span's args.
        assert!(json.contains("\"degenerate_pivots\": 4"), "{json}");
        assert!(json.contains("\"bland_pivots\": 1"), "{json}");
        assert!(json.contains("\"refactor_nanos\": 500"), "{json}");
    }

    #[test]
    fn solver_sub_spans_clamp_to_the_solve_span() {
        let mut t = QueryTrace::begin(10, 0);
        t.solve_start_nanos = 1_000;
        t.solve_done_nanos = 2_000;
        // A breakdown longer than the measured span (clock skew between the
        // engine's stamps and the solver's recording) must not escape the
        // parent.
        t.solve_phase1_nanos = 5_000;
        t.solve_phase2_nanos = 5_000;
        t.finish("solve-cold", 2_000);
        let json = chrome_trace_json(&[t], &[]);
        assert!(json.contains("\"name\": \"solver.phase1\""), "{json}");
        // phase1 is clamped to the solve end; phase2 collapses to nothing.
        assert!(json.contains("\"ts\": 1.000, \"dur\": 1.000"), "{json}");
        assert!(!json.contains("solver.phase2"), "{json}");
    }

    #[test]
    fn fell_back_solves_name_their_fallback_on_the_solve_span() {
        let mut t = QueryTrace::begin(11, 0);
        t.solve_start_nanos = 1_000;
        t.solve_done_nanos = 2_000;
        let healthy = steady_lp::SolveHealth::default();
        t.set_health(&healthy);
        assert_eq!(t.fallback, "", "no fallback, no cause");
        t.set_health(&steady_lp::SolveHealth {
            fallback: Some(steady_lp::FallbackCause::FloatFailed),
            ..healthy
        });
        t.finish("solve-cold", 2_000);
        let json = chrome_trace_json(&[t], &[]);
        assert!(json.contains("\"fallback\": \"float-failed\""), "{json}");
    }

    #[test]
    fn zero_length_spans_are_omitted() {
        let mut t = QueryTrace::begin(1, 100);
        t.lookup_done_nanos = 120;
        t.finish("cache", 125);
        let json = chrome_trace_json(&[t], &[]);
        assert!(!json.contains("\"name\": \"solve\""), "{json}");
        assert!(!json.contains("\"name\": \"flight\""), "{json}");
        assert!(!json.contains("\"name\": \"queue\""), "a hit never queues: {json}");
        assert!(json.contains("\"name\": \"lookup\""), "{json}");
        assert!(json.contains("\"name\": \"publish\""), "{json}");
    }

    #[test]
    fn inline_hits_are_drawn_on_their_caller_track() {
        let mut hit = QueryTrace::begin(1, 100);
        hit.lane = INLINE_LANE;
        hit.worker = 3;
        hit.lookup_done_nanos = 120;
        hit.finish("cache", 125);
        let mut miss = QueryTrace::begin(2, 100);
        miss.worker = 3;
        miss.solver = 3;
        miss.lookup_done_nanos = 130;
        miss.admitted_nanos = 140;
        miss.finish("solve-cold", 900);
        let json = chrome_trace_json(&[hit, miss], &[]);
        // Caller-side ring 3 and worker 3 are different tracks.
        assert!(json.contains("\"caller-3\""), "{json}");
        assert!(json.contains("\"worker-3\""), "{json}");
        let caller_tid = format!("\"tid\": {}, \"ts\": 0.100", CALLER_TID_BASE + 3);
        assert!(json.contains(&caller_tid), "the hit's lookup sits on the caller track: {json}");
        assert!(json.contains("\"tid\": 3, \"ts\": 0.100"), "the miss stays on the worker: {json}");
    }
}
