//! The ledger's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions — never by `janus_obs`, which is one of the layers being
//! measured. The load generator is one thread, so a stack gives every span
//! its parent. Spans stay in memory and are written out once, at exit.

use crate::json::{num, obj, text, Value};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The binary or job the span worked on (empty for structural spans).
    pub id: String,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Work only the traced run does (a one-thread re-run, a decomposed
    /// `prepare`, an HTTP scrape): inside the `rep` span, outside the
    /// parts an untraced repetition times.
    pub extra: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the crate-name prefix of its name.
    /// Structural spans (`rep`, `binary`, `round`, `leg`) are the harness.
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "bench",
        }
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

const DISABLED: usize = usize::MAX;

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between repetitions, so one child can
    /// interleave untraced and traced repetitions of the same work.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggle only between repetitions");
        self.enabled = enabled;
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn open(&mut self, name: &'static str, id: &str, extra: bool) -> Open {
        if !self.enabled {
            return Open(DISABLED);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id: id.to_string(),
            rep: self.rep,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            extra,
        });
        self.stack.push(index);
        // Read the clock last, so recording cost lands in the parent.
        self.spans[index].start_ns = self.origin.elapsed().as_nanos() as u64;
        Open(index)
    }

    pub fn begin(&mut self, name: &'static str, id: &str) -> Open {
        self.open(name, id, false)
    }

    /// Begins a span of traced-run-only work (see [`Span::extra`]).
    pub fn begin_extra(&mut self, name: &'static str, id: &str) -> Open {
        self.open(name, id, true)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == DISABLED {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must nest");
        self.spans[open.0].end_ns = now;
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, id: &str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Mean duration in nanoseconds of the spans called `name`.
    pub fn mean_ns(&self, name: &str) -> f64 {
        crate::stats::mean(&self.durations(name))
    }

    /// Self time (duration minus direct children) summed per layer, in
    /// nanoseconds.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_time = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur_ns();
            }
        }
        let mut layers = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            *layers.entry(s.layer()).or_default() += s.dur_ns().saturating_sub(children);
        }
        layers
    }

    /// The smallest share of a `rep` span covered by leaf spans beneath it:
    /// time inside no layer call is harness time nobody can attribute.
    pub fn min_leaf_coverage(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let mut leaf_time: BTreeMap<u32, u64> = BTreeMap::new();
        for (s, parent) in self.spans.iter().zip(&has_child) {
            if !parent && s.name != "rep" {
                *leaf_time.entry(s.rep).or_default() += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == "rep" && s.dur_ns() > 0)
            .map(|s| leaf_time.get(&s.rep).copied().unwrap_or(0) as f64 / s.dur_ns() as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// The spans in Chrome trace-event format (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self, workload: &str) -> Value {
        let events = self.spans.iter().enumerate().map(|(index, s)| {
            obj([
                ("name", text(s.name)),
                ("cat", text(s.layer())),
                ("ph", text("X")),
                ("ts", num(s.start_ns as f64 / 1e3)),
                ("dur", num(s.dur_ns() as f64 / 1e3)),
                ("pid", num(1.0)),
                ("tid", num(1.0)),
                (
                    "args",
                    obj([
                        ("workload", text(workload)),
                        ("rep", num(f64::from(s.rep))),
                        ("id", text(&s.id)),
                        ("span", num(index as f64)),
                        ("parent", s.parent.map_or(Value::Null, |p| num(p as f64))),
                        ("extra", Value::Bool(s.extra)),
                    ]),
                ),
            ])
        });
        obj([
            ("displayTimeUnit", text("ms")),
            ("traceEvents", Value::Arr(events.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let rep = t.begin("rep", "");
        let b = t.begin("binary", "470.lbm");
        t.time("vm.run", "470.lbm", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(b);
        let x = t.begin_extra("dbm.execute.t1", "470.lbm");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(x);
        t.end(rep);

        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 3));
        assert_eq!(spans[2].layer(), "vm");
        assert_eq!(spans[0].layer(), "bench");

        let layers = t.self_time_by_layer();
        assert!(layers["vm"] >= 2_000_000);
        assert!(
            layers["bench"] < layers["vm"],
            "structural spans hold little self time"
        );
        assert!(spans[3].extra && !spans[2].extra);
        assert!(t.min_leaf_coverage() > 0.9);
        let doc = t.chrome_trace("interp");
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 4);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("rep", "");
        assert_eq!(t.time("vm.run", "x", || 7), 7);
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
