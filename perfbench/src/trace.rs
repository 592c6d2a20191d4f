//! In-memory spans recorded around calls into the library's public API.
//!
//! A [`Tracer`] is either on (every [`Tracer::span`] call records a span
//! with name, start, end and parent) or off (the closure runs with no
//! clock reads at all), so one code path serves the untraced end-to-end
//! measurement and the traced per-layer run. Spans are kept in memory and
//! serialized once the run ends.

use std::time::Instant;

use serde_json::{json, Value};

/// Name of the root span that holds the measured operation. Spans outside
/// it (gate references, probes) are never added into the fit's time.
pub const FIT: &str = "fit";

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, `<layer>.<call>` (e.g. `tree.build`).
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Whether the span lies under a [`FIT`] span.
    pub in_fit: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and is free when not.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open
    /// span). Returns `f`'s result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let parent = self.open.last().copied();
        let in_fit = name == FIT || parent.is_some_and(|p| self.spans[p].in_fit);
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            in_fit,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// [`Tracer::span`], also returning the span's duration in seconds
    /// (0 when the tracer is off).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let out = self.span(name, f);
        (out, self.spans.get(id).map_or(0.0, Span::secs))
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans whose parent is `parent`.
    pub fn children(&self, parent: usize) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.parent == Some(parent))
    }

    /// Total seconds of the children of `parent` named `name`.
    pub fn child_secs(&self, parent: usize, name: &str) -> f64 {
        self.children(parent)
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Self time of span `i`: its duration minus what its children cover
    /// (children are sequential, so their durations do not overlap).
    pub fn self_secs(&self, i: usize) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::secs)
            .sum();
        self.spans[i].secs() - covered
    }

    /// The spans as JSON: one object per span with name, start, end,
    /// parent and whether it lies inside the fit.
    pub fn spans_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "parent": s.parent,
                        "outside_fit": !s.in_fit,
                    })
                })
                .collect(),
        )
    }

    /// Self seconds summed per layer (the span name's prefix before the
    /// first `.`), separately for spans inside and outside the fit.
    pub fn self_time_by_layer(&self) -> Value {
        let mut rows: Vec<(&'static str, bool, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let t = self.self_secs(i);
            match rows
                .iter_mut()
                .find(|(l, f, _)| *l == layer && *f == s.in_fit)
            {
                Some(row) => row.2 += t,
                None => rows.push((layer, s.in_fit, t)),
            }
        }
        Value::Array(
            rows.into_iter()
                .map(|(layer, in_fit, secs)| {
                    json!({ "layer": layer, "outside_fit": !in_fit, "self_s": secs })
                })
                .collect(),
        )
    }
}
