//! Benchmark-owned spans around calls into the program's public functions.
//!
//! The traced pass measures each layer from outside: a span is opened before
//! a call and closed after it, records name, start, end, parent and op id,
//! stays in memory, and is written out once, at exit.  A layer's self time
//! is its spans' duration minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::estimator;

const NO_PARENT: u32 = u32::MAX;

/// One timed call (or group of calls).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.what`, e.g. `service.fingerprint`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for a root.
    pub parent: u32,
    /// The operation (query, solve) the span belongs to; spans of one
    /// operation share it.
    pub op: u32,
    /// The homogeneous slice the operation ran in.
    pub slice: u32,
}

impl Span {
    fn nanos(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// How the spans of one name inside one slice fold into a number.
#[derive(Debug, Clone, Copy)]
pub enum Fold {
    /// The median span: a typical call's latency.
    Median,
    /// The 99th-percentile span.
    P99,
    /// The summed spans: parts of a whole that must add up.
    Sum,
}

impl Fold {
    fn apply(self, mut nanos: Vec<f64>) -> f64 {
        match self {
            Fold::Sum => nanos.iter().sum(),
            Fold::Median => estimator::quantile_mut(&mut nanos, 0.50),
            Fold::P99 => estimator::quantile_mut(&mut nanos, 0.99),
        }
    }
}

/// An in-memory span recorder with a fixed capacity.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans kept before further ones are only counted.
    limit: usize,
    open: Vec<u32>,
    op: u32,
    slice: u32,
    dropped: u64,
}

impl Spans {
    /// A recorder with room for `capacity` spans that keeps at most `limit`
    /// of them until [`Spans::lift_limit`]; later ones still run their
    /// closure but are only counted.
    pub fn with_capacity(capacity: usize, limit: usize) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            limit: limit.min(capacity),
            open: Vec::with_capacity(8),
            op: 0,
            slice: 0,
            dropped: 0,
        }
    }

    /// Lets the recorder fill its whole capacity.
    pub fn lift_limit(&mut self) {
        self.limit = self.spans.capacity();
    }

    /// Spans opened from now on belong to slice `slice`.
    pub fn set_slice(&mut self, slice: usize) {
        self.slice = slice as u32;
    }

    /// Spans opened from now on belong to a new operation.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span that may have child spans.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let index = if self.spans.len() < self.limit {
            let parent = self.open.last().copied().unwrap_or(NO_PARENT);
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op: self.op,
                slice: self.slice,
            });
            Some(self.spans.len() as u32 - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.open.extend(index);
        let result = f(self);
        if let Some(index) = index {
            self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.open.pop();
        }
        result
    }

    /// Runs `f` inside a span without children.
    #[inline]
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.scope(name, |_| f())
    }

    /// Spans that did not fit the capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Nanoseconds of the spans named `name`, in recording order, by slice.
    fn by_slice(&self, name: &str) -> BTreeMap<u32, Vec<f64>> {
        let mut by_slice: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            by_slice.entry(span.slice).or_default().push(span.nanos());
        }
        assert!(!by_slice.is_empty(), "no span named {name} was recorded");
        by_slice
    }

    /// Quiet-decile nanoseconds of the spans named `name`: folded per slice,
    /// then the 10th percentile across slices.
    pub fn quiet_ns(&self, name: &str, fold: Fold) -> f64 {
        let per_slice: Vec<f64> =
            self.by_slice(name).into_values().map(|nanos| fold.apply(nanos)).collect();
        estimator::quiet(&per_slice)
    }

    /// Quiet-decile median of what is left of each `whole` span after the
    /// `parts` spans recorded for the same input: the n-th span of each name
    /// within a slice belongs to the n-th input, so the difference is taken
    /// input by input, where the inputs' own spread cancels, before the
    /// median is.
    pub fn quiet_remainder_ns(&self, whole: &str, parts: &[&str]) -> f64 {
        let mut left = self.by_slice(whole);
        for part in parts {
            for (slice, nanos) in self.by_slice(part) {
                let rest = left.get_mut(&slice).unwrap_or_else(|| panic!("{part} has no {whole}"));
                assert_eq!(rest.len(), nanos.len(), "{whole} and {part} do not pair up");
                rest.iter_mut().zip(nanos).for_each(|(w, p)| *w -= p);
            }
        }
        let per_slice: Vec<f64> =
            left.into_values().map(|nanos| Fold::Median.apply(nanos)).collect();
        estimator::quiet(&per_slice)
    }

    /// Number of spans named `name`.
    #[cfg(test)]
    fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Per name: `(count, total nanoseconds, self nanoseconds)`.
    fn layers(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::nanos).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                own[span.parent as usize] -= span.nanos();
            }
        }
        let mut layers: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let entry = layers.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.nanos();
            entry.2 += own;
        }
        layers
    }

    /// Writes every span, and the per-name self-time table, as one JSON
    /// object.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut json = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            json,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped\":{},\"layers\":[",
            self.dropped
        );
        for (i, (name, (count, total, own))) in self.layers().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                json,
                "{sep}\n{{\"name\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        json.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let _ = write!(
                json,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"slice\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.slice
            );
        }
        json.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(json.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut spans = Spans::with_capacity(16, 16);
        spans.scope("outer", |s| {
            s.leaf("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
            s.leaf("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let layers = spans.layers();
        let (count, total, own) = layers["outer"];
        let (inner_count, inner_total, inner_own) = layers["inner"];
        assert_eq!((count, inner_count), (1, 2));
        assert_eq!(inner_total, inner_own);
        assert!((own - (total - inner_total)).abs() < 1.0);
        assert!(own >= 0.0 && own < total);
    }

    #[test]
    fn full_recorder_counts_instead_of_storing() {
        let mut spans = Spans::with_capacity(4, 1);
        assert_eq!(spans.leaf("a", || 1), 1);
        assert_eq!(spans.scope("b", |s| s.leaf("c", || 2)), 2);
        assert_eq!((spans.count("a"), spans.count("b"), spans.dropped()), (1, 0, 2));
    }

    #[test]
    fn remainder_is_taken_input_by_input() {
        let mut spans = Spans::with_capacity(8, 8);
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        // Two inputs of very different cost; what `whole` adds to `part` is
        // 2 ms for both.
        for cost in [1, 6] {
            spans.leaf("whole", || sleep(cost + 2));
            spans.leaf("part", || sleep(cost));
        }
        let left = spans.quiet_remainder_ns("whole", &["part"]) / 1e6;
        assert!((1.5..3.5).contains(&left), "remainder {left} ms");
    }

    #[test]
    fn quiet_value_folds_per_slice_first() {
        let mut spans = Spans::with_capacity(8, 8);
        for slice in 0..2 {
            spans.set_slice(slice);
            spans.leaf("x", || ());
            spans.leaf("x", || ());
        }
        assert_eq!(spans.by_slice("x").len(), 2);
        assert!(spans.quiet_ns("x", Fold::Median) >= 0.0);
    }
}
