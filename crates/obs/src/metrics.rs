//! Always-on metrics: an atomic [`Counter`]/[`Gauge`]/[`Histogram`]
//! registry with static label sets, cheap enough to run unconditionally.
//!
//! The [`Recorder`](crate::Recorder) answers *"what happened in this run"*
//! and stays opt-in; this module answers *"how is the process doing right
//! now"* and is always on. The cost model that makes that acceptable:
//!
//! * **Registration is slow-path.** [`Registry::counter`] /
//!   [`Registry::gauge`] / [`Registry::histogram`] take a lock, intern the
//!   family and label set, and hand back an `Arc` handle. Callers do this
//!   once, at setup time, and cache the handle.
//! * **Recording is lock-free.** [`Counter::inc`] is one relaxed
//!   `fetch_add`; [`Gauge::set`] one relaxed `store`;
//!   [`Histogram::record`](crate::Histogram::record) a handful of relaxed
//!   atomics. No locks, no allocation, no branches on configuration —
//!   there is nothing to turn off.
//! * **Export walks the registry.** [`Registry::prometheus_text`] renders
//!   the Prometheus text exposition format (`# HELP`/`# TYPE` once per
//!   family, escaped label values, `_bucket`/`_sum`/`_count` histogram
//!   series); [`parse_exposition`] parses it back for round-trip tests and
//!   scrape format checks.
//!
//! There is no process-wide registry: whoever owns a registry owns its
//! counters. A serving session meters into the configured one or a fresh
//! one of its own, DBM run counters included (counted from each job's
//! returned stats), so its `/metrics` page covers only its own work.
//!
//! # Example
//!
//! ```
//! use janus_obs::metrics::Registry;
//!
//! let registry = Registry::new();
//! let jobs = registry.counter(
//!     "janus_demo_jobs_total",
//!     "Jobs processed by the demo.",
//!     &[("tenant", "acme")],
//! );
//! jobs.inc(); // hot path: one relaxed atomic add
//! let text = registry.prometheus_text();
//! assert!(text.contains("# TYPE janus_demo_jobs_total counter"));
//! assert!(text.contains("janus_demo_jobs_total{tenant=\"acme\"} 1"));
//! let parsed = janus_obs::metrics::parse_exposition(&text).unwrap();
//! assert_eq!(parsed.value("janus_demo_jobs_total", &[("tenant", "acme")]), Some(1.0));
//! ```

use crate::hist::{bucket_upper_bound, Histogram, BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing counter. Recording is one relaxed atomic op.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero (detached from any registry).
    #[must_use]
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down. Recording is one relaxed
/// atomic op.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero (detached from any registry).
    #[must_use]
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The kind of a metric family, mirroring Prometheus `# TYPE` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter (names conventionally end `_total`).
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Log-bucketed histogram ([`Histogram`]); exported as
    /// `_bucket`/`_sum`/`_count` series.
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registered metric behind its family.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Owned label set of one series: `(key, value)` pairs, registration order.
type LabelSet = Vec<(&'static str, String)>;

/// One family: a help string, a kind, and its series keyed by label set.
#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: MetricKind,
    /// Series in registration order; exports sort by label values. Small
    /// (one per label combination), so a linear scan on registration is
    /// fine — registration is the slow path by design.
    series: Vec<(LabelSet, Metric)>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

/// A registry of metric families. Cheap to clone (clones share state);
/// `Registry::default()` / [`Registry::new`] build an empty independent
/// registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl PartialEq for Registry {
    /// Two registries are equal when they share state (clones of one
    /// registry) — "points at the same sink", like
    /// [`Recorder`](crate::Recorder) equality.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Registry {
    /// An empty registry, independent of every other.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or retrieves) a counter series. Idempotent: the same
    /// `name` + `labels` always return the same handle, so callers may
    /// re-register freely — but should cache the `Arc` and keep the hot
    /// path lock-free.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind — two
    /// call sites disagreeing about what a family is, a programming error.
    #[must_use]
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        match self.register(name, help, MetricKind::Counter, labels, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or retrieves) a gauge series. Same contract as
    /// [`Registry::counter`].
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    #[must_use]
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Gauge> {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            Metric::Gauge(Arc::new(Gauge::new()))
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or retrieves) a histogram series (the shared log-bucketed
    /// [`Histogram`]). Same contract as [`Registry::counter`].
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    #[must_use]
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Histogram> {
        match self.register(name, help, MetricKind::Histogram, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
        labels: &[(&'static str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let labels: LabelSet = labels.iter().map(|(k, v)| (*k, v.to_string())).collect();
        let mut families = self.inner.families.lock().expect("metrics registry lock");
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: Vec::new(),
        });
        assert!(
            family.kind == kind,
            "metric family {name:?} registered as {:?} and {kind:?}",
            family.kind
        );
        if let Some((_, metric)) = family.series.iter().find(|(l, _)| *l == labels) {
            return metric.clone();
        }
        let metric = make();
        family.series.push((labels, metric.clone()));
        metric
    }

    /// The number of registered families.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .families
            .lock()
            .expect("metrics registry lock")
            .len()
    }

    /// Whether no family is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders every family as Prometheus text exposition format:
    /// `# HELP` and `# TYPE` once per family, series sorted by label
    /// values, label values escaped (`\\`, `\"`, `\n`), histograms as
    /// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let families = self.inner.families.lock().expect("metrics registry lock");
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.keyword());
            let mut series: Vec<&(LabelSet, Metric)> = family.series.iter().collect();
            series.sort_by(|(a, _), (b, _)| a.cmp(b));
            for (labels, metric) in series {
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels), c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels), g.get());
                    }
                    Metric::Histogram(h) => {
                        render_histogram_series(&mut out, name, labels, h);
                    }
                }
            }
        }
        out
    }

    /// Flat samples of every series: `(family, labels, value)`, with
    /// histograms contributing their `_sum` and `_count` (buckets are an
    /// exposition detail). For JSON snapshots and tests.
    #[must_use]
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        let families = self.inner.families.lock().expect("metrics registry lock");
        for (name, family) in families.iter() {
            for (labels, metric) in &family.series {
                let labels: Vec<(String, String)> = labels
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect();
                match metric {
                    Metric::Counter(c) => out.push(Sample {
                        name: (*name).to_string(),
                        labels,
                        value: c.get() as f64,
                    }),
                    Metric::Gauge(g) => out.push(Sample {
                        name: (*name).to_string(),
                        labels,
                        value: g.get() as f64,
                    }),
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        out.push(Sample {
                            name: format!("{name}_count"),
                            labels: labels.clone(),
                            value: snap.count as f64,
                        });
                        out.push(Sample {
                            name: format!("{name}_sum"),
                            labels,
                            value: snap.sum as f64,
                        });
                    }
                }
            }
        }
        out
    }
}

/// Renders one histogram series in exposition format: cumulative
/// `_bucket{le="..."}` lines (the `+Inf` bucket always present), `_sum`
/// and `_count`.
fn render_histogram_series(
    out: &mut String,
    name: &str,
    labels: &[(&'static str, String)],
    hist: &Histogram,
) {
    let snap = hist.snapshot();
    let mut cumulative = 0u64;
    for i in 0..BUCKETS {
        if snap.buckets[i] == 0 {
            continue;
        }
        cumulative += snap.buckets[i];
        let le = bucket_upper_bound(i).to_string();
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            render_labels_with(labels, ("le", &le))
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        render_labels_with(labels, ("le", "+Inf")),
        snap.count
    );
    let _ = writeln!(out, "{name}_sum{} {}", render_labels(labels), snap.sum);
    let _ = writeln!(out, "{name}_count{} {}", render_labels(labels), snap.count);
}

/// Escapes a label value per the exposition format: `\` → `\\`, `"` →
/// `\"`, newline → `\n`.
#[must_use]
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a `# HELP` string: `\` → `\\`, newline → `\n`.
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

fn render_labels_with(labels: &[(&'static str, String)], extra: (&str, &str)) -> String {
    let mut out = String::from("{");
    for (k, v) in labels {
        let _ = write!(out, "{k}=\"{}\",", escape_label_value(v));
    }
    let _ = write!(out, "{}=\"{}\"", extra.0, escape_label_value(extra.1));
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Exposition parsing (round-trip tests, scrape format checks)
// ---------------------------------------------------------------------------

/// One parsed sample line of an exposition document.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Series name as written (histogram suffixes included).
    pub name: String,
    /// Label pairs, document order, escapes decoded.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A parsed Prometheus text exposition document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// `# TYPE` declarations: family name → kind keyword.
    pub families: BTreeMap<String, String>,
    /// `# HELP` declarations: family name → help text.
    pub help: BTreeMap<String, String>,
    /// Every sample line, document order.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// The value of the series `name` with exactly `labels` (order
    /// ignored), or `None` when absent.
    #[must_use]
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
    }

    /// All samples of the series `name`, any labels.
    #[must_use]
    pub fn series(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }
}

/// Parses a Prometheus text exposition document, validating the invariants
/// the exporter promises: every line is a comment, blank, or a well-formed
/// sample; `# TYPE` appears at most once per family; every sample belongs
/// to a `# TYPE`-declared family (histogram `_bucket`/`_sum`/`_count`
/// suffixes resolve to their base family).
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input.
pub fn parse_exposition(input: &str) -> Result<Exposition, String> {
    let mut doc = Exposition::default();
    for (lineno, line) in input.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("").to_string();
            let kind = parts.next().unwrap_or("").trim().to_string();
            if name.is_empty() || kind.is_empty() {
                return Err(format!("line {n}: malformed TYPE line"));
            }
            if doc.families.insert(name.clone(), kind).is_some() {
                return Err(format!("line {n}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("").to_string();
            let help = parts.next().unwrap_or("").to_string();
            doc.help.insert(name, help);
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal
        }
        let sample = parse_sample_line(line).map_err(|e| format!("line {n}: {e}"))?;
        let base = sample
            .name
            .strip_suffix("_bucket")
            .or_else(|| sample.name.strip_suffix("_sum"))
            .or_else(|| sample.name.strip_suffix("_count"))
            .filter(|base| doc.families.get(*base).map(String::as_str) == Some("histogram"))
            .unwrap_or(&sample.name);
        if !doc.families.contains_key(base) {
            return Err(format!(
                "line {n}: sample {:?} has no TYPE declaration",
                sample.name
            ));
        }
        doc.samples.push(sample);
    }
    Ok(doc)
}

fn parse_sample_line(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let name_end = bytes
        .iter()
        .position(|&b| b == b'{' || b == b' ')
        .ok_or("missing value")?;
    let name = line[..name_end].to_string();
    if name.is_empty() {
        return Err("empty metric name".to_string());
    }
    let mut labels = Vec::new();
    let mut pos = name_end;
    if bytes[pos] == b'{' {
        pos += 1;
        loop {
            if bytes.get(pos) == Some(&b'}') {
                pos += 1;
                break;
            }
            let key_end = line[pos..]
                .find('=')
                .map(|i| pos + i)
                .ok_or("label missing '='")?;
            let key = line[pos..key_end].trim_start_matches(',').to_string();
            pos = key_end + 1;
            if bytes.get(pos) != Some(&b'"') {
                return Err("label value not quoted".to_string());
            }
            pos += 1;
            let mut value = String::new();
            loop {
                match bytes.get(pos) {
                    None => return Err("unterminated label value".to_string()),
                    Some(b'"') => {
                        pos += 1;
                        break;
                    }
                    Some(b'\\') => {
                        match bytes.get(pos + 1) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            _ => return Err("invalid escape in label value".to_string()),
                        }
                        pos += 2;
                    }
                    Some(_) => {
                        let rest = &line[pos..];
                        let c = rest.chars().next().ok_or("invalid utf-8")?;
                        value.push(c);
                        pos += c.len_utf8();
                    }
                }
            }
            labels.push((key, value));
            if bytes.get(pos) == Some(&b',') {
                pos += 1;
            }
        }
    }
    let rest = line[pos..].trim();
    if rest.is_empty() {
        return Err("missing value".to_string());
    }
    let value = match rest {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        n => n
            .parse::<f64>()
            .map_err(|_| format!("invalid value {n:?}"))?,
    };
    Ok(Sample {
        name,
        labels,
        value,
    })
}

// ---------------------------------------------------------------------------
// Process self-metrics
// ---------------------------------------------------------------------------

/// Process self-metrics: uptime, resident set size and thread count,
/// exported as `janus_process_*` gauges. RSS and thread count come from
/// `/proc/self/*` on Linux and degrade gracefully (gauges stay 0)
/// elsewhere — [`ProcessMetrics::refresh`] never fails.
#[derive(Debug)]
pub struct ProcessMetrics {
    start: Instant,
    uptime_seconds: Arc<Gauge>,
    rss_bytes: Arc<Gauge>,
    threads: Arc<Gauge>,
}

impl ProcessMetrics {
    /// Registers the `janus_process_*` gauges in `registry` (idempotent —
    /// re-registering shares the same gauges, though each handle keeps its
    /// own start instant for uptime).
    #[must_use]
    pub fn register(registry: &Registry) -> ProcessMetrics {
        ProcessMetrics {
            start: Instant::now(),
            uptime_seconds: registry.gauge(
                "janus_process_uptime_seconds",
                "Seconds since this process registered its telemetry.",
                &[],
            ),
            rss_bytes: registry.gauge(
                "janus_process_rss_bytes",
                "Resident set size in bytes (/proc/self/statm; 0 where unavailable).",
                &[],
            ),
            threads: registry.gauge(
                "janus_process_threads",
                "OS threads in this process (/proc/self/status; 0 where unavailable).",
                &[],
            ),
        }
    }

    /// Re-samples the gauges. Called by the telemetry endpoint on every
    /// scrape; cheap enough to call anywhere.
    pub fn refresh(&self) {
        self.uptime_seconds
            .set(i64::try_from(self.start.elapsed().as_secs()).unwrap_or(i64::MAX));
        if let Some(rss) = read_rss_bytes() {
            self.rss_bytes.set(i64::try_from(rss).unwrap_or(i64::MAX));
        }
        if let Some(threads) = read_thread_count() {
            self.threads.set(i64::try_from(threads).unwrap_or(i64::MAX));
        }
    }
}

/// Resident set size in bytes from `/proc/self/statm` (second field,
/// pages × 4096 — the page size on every Linux target the workspace
/// builds for). `None` where procfs is unavailable (non-Linux).
#[must_use]
pub fn read_rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let rss_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(rss_pages * 4096)
}

/// Thread count from `/proc/self/status` (`Threads:` line). `None` where
/// procfs is unavailable (non-Linux).
#[must_use]
pub fn read_thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_share_handles() {
        let registry = Registry::new();
        let a = registry.counter("janus_t_total", "help", &[("k", "v")]);
        let b = registry.counter("janus_t_total", "help", &[("k", "v")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4, "same labels share one series");
        let other = registry.counter("janus_t_total", "help", &[("k", "w")]);
        other.inc();
        assert_eq!(other.get(), 1);
        let g = registry.gauge("janus_g", "help", &[]);
        g.set(7);
        g.add(-1);
        assert_eq!(g.get(), 6);
        assert_eq!(registry.len(), 2);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflict_panics() {
        let registry = Registry::new();
        let _ = registry.counter("janus_conflict", "help", &[]);
        let _ = registry.gauge("janus_conflict", "help", &[]);
    }

    #[test]
    fn label_escaping_round_trips() {
        let registry = Registry::new();
        let nasty = "a\\b\"c\nd";
        let c = registry.counter("janus_esc_total", "weird \\ help\nline", &[("path", nasty)]);
        c.add(9);
        let text = registry.prometheus_text();
        let doc = parse_exposition(&text).expect("exposition parses");
        assert_eq!(doc.value("janus_esc_total", &[("path", nasty)]), Some(9.0));
        assert_eq!(
            doc.families.get("janus_esc_total").map(String::as_str),
            Some("counter")
        );
    }

    #[test]
    fn histogram_exposition_has_buckets_sum_count() {
        let registry = Registry::new();
        let h = registry.histogram("janus_lat_nanos", "latency", &[("stage", "x")]);
        h.record(3);
        h.record(100);
        let text = registry.prometheus_text();
        let doc = parse_exposition(&text).expect("parses");
        assert_eq!(
            doc.value("janus_lat_nanos_count", &[("stage", "x")]),
            Some(2.0)
        );
        assert_eq!(
            doc.value("janus_lat_nanos_sum", &[("stage", "x")]),
            Some(103.0)
        );
        assert_eq!(
            doc.value("janus_lat_nanos_bucket", &[("stage", "x"), ("le", "+Inf")]),
            Some(2.0)
        );
        // Cumulative counts are monotone over le.
        let buckets = doc.series("janus_lat_nanos_bucket");
        let mut last = 0.0;
        for b in &buckets {
            assert!(b.value >= last, "cumulative buckets are monotone");
            last = b.value;
        }
    }

    #[test]
    fn parser_rejects_undeclared_and_duplicate_families() {
        assert!(parse_exposition("janus_x_total 1\n").is_err());
        let doubled = "# TYPE janus_x_total counter\n# TYPE janus_x_total counter\n";
        assert!(parse_exposition(doubled).is_err());
        let ok = "# TYPE janus_x_total counter\njanus_x_total 1\n";
        assert_eq!(parse_exposition(ok).unwrap().samples.len(), 1);
    }

    #[test]
    fn process_metrics_refresh_populates_gauges() {
        let registry = Registry::new();
        let process = ProcessMetrics::register(&registry);
        process.refresh();
        let doc = parse_exposition(&registry.prometheus_text()).expect("parses");
        assert!(doc.value("janus_process_uptime_seconds", &[]).is_some());
        if cfg!(target_os = "linux") {
            assert!(doc.value("janus_process_rss_bytes", &[]).unwrap() > 0.0);
            assert!(doc.value("janus_process_threads", &[]).unwrap() > 0.0);
        }
    }

    #[test]
    fn samples_flatten_every_series() {
        let registry = Registry::new();
        registry.counter("janus_a_total", "a", &[]).add(2);
        registry.gauge("janus_b", "b", &[("x", "1")]).set(-3);
        registry.histogram("janus_c_nanos", "c", &[]).record(5);
        let samples = registry.samples();
        let find = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
        assert_eq!(find("janus_a_total"), Some(2.0));
        assert_eq!(find("janus_b"), Some(-3.0));
        assert_eq!(find("janus_c_nanos_count"), Some(1.0));
        assert_eq!(find("janus_c_nanos_sum"), Some(5.0));
    }
}
