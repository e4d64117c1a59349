//! Flight recorder and metrics for the janus stack: structured tracing
//! spans and instant events with one exporter (Chrome trace-event JSON for
//! Perfetto), log-bucketed latency histograms, and an
//! always-on metrics [`metrics::Registry`] whose Prometheus text exposition
//! is the workspace's one Prometheus writer.
//!
//! The crate is dependency-free by design (it must build against the
//! workspace's vendored shims) and is engineered so that a **disabled**
//! recorder costs one branch on the hot path: [`Recorder`] is an
//! `Option<Arc<…>>` internally, every recording call starts with an
//! `is_enabled` check, and the null recorder allocates nothing.
//!
//! # Model
//!
//! - **Events** are typed: complete spans (`ph: "X"` in Chrome terms, made
//!   with [`Recorder::span`] RAII guards so nesting is structural), instant
//!   events ([`Recorder::instant`]) and async begin/end pairs
//!   ([`Recorder::async_span`]) for intervals — like a job's queue wait —
//!   that overlap the thread-track spans.
//! - Events land in **per-thread sharded ring buffers** (the calling
//!   thread's id hashes to a shard). A full shard overwrites its oldest
//!   event and counts the drop — flight-recorder semantics, never silent
//!   loss ([`Recorder::dropped`]).
//! - **Histograms** bucket values by power of two ([`Histogram`]), so
//!   p50/p90/p99/max snapshots ([`LatencyStats`]) need no retained samples.
//!   They are not part of the recorder: callers register them in a
//!   [`metrics::Registry`] (that is how `ServeStats` reports latency,
//!   traced or not) or own them detached.
//!
//! # Example
//!
//! ```
//! use janus_obs::Recorder;
//!
//! let rec = Recorder::enabled();
//! rec.set_thread_track("worker-0");
//! {
//!     let _outer = rec.span("demo", "outer");
//!     let _inner = rec.span("demo", "inner").arg("iteration", 3u64);
//! } // guards drop innermost-first, so spans nest
//! rec.instant("demo", "tick", &[]);
//! let trace = rec.chrome_trace();
//! assert!(janus_obs::json::parse(&trace).is_ok());
//! ```

pub mod ewma;
mod export;
mod hist;
pub mod json;
pub mod metrics;

pub use hist::{
    bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, LatencyStats, BUCKETS,
};

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of ring-buffer shards; thread ids hash onto these.
const SHARDS: usize = 16;

/// Default ring capacity per shard (events). 16 shards × 8192 events is a
/// few megabytes at the top end — bounded regardless of run length.
const DEFAULT_EVENTS_PER_SHARD: usize = 8192;

/// A typed argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Signed integer argument.
    I64(i64),
    /// Floating-point argument.
    F64(f64),
    /// String argument.
    Str(String),
    /// Boolean argument.
    Bool(bool),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// The kind of a recorded event, mirroring Chrome trace-event phases.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// A complete span with a duration (`ph: "X"`). Spans recorded by
    /// [`SpanGuard`] nest structurally on their thread track.
    Complete {
        /// Span duration in nanoseconds.
        dur_nanos: u64,
    },
    /// A point-in-time event (`ph: "i"`).
    Instant,
    /// Start of an async interval (`ph: "b"`), paired by `id`.
    AsyncBegin {
        /// Correlation id shared with the matching [`Phase::AsyncEnd`].
        id: u64,
    },
    /// End of an async interval (`ph: "e"`), paired by `id`.
    AsyncEnd {
        /// Correlation id shared with the matching [`Phase::AsyncBegin`].
        id: u64,
    },
}

/// One recorded event. Timestamps are nanoseconds since the recorder's
/// epoch (its construction instant).
#[derive(Debug, Clone)]
pub struct Event {
    /// Category (a stable `&'static str` taxonomy key, e.g. `"serve.job"`).
    pub cat: &'static str,
    /// Event name (e.g. `"execute"`, `"queue.wait"`).
    pub name: Cow<'static, str>,
    /// Nanoseconds since the recorder epoch.
    pub ts_nanos: u64,
    /// Track id of the recording thread (hash of its `ThreadId`).
    pub tid: u64,
    /// Event kind.
    pub phase: Phase,
    /// Typed key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// One ring-buffer shard: a bounded deque plus a drop counter.
#[derive(Debug, Default)]
struct Shard {
    ring: VecDeque<Event>,
    dropped: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    capacity_per_shard: usize,
    shards: Vec<Mutex<Shard>>,
    /// Track id → human-readable name, registered via `set_thread_track`.
    tracks: Mutex<HashMap<u64, String>>,
    /// Monotonic source for async-interval correlation ids.
    next_async_id: AtomicU64,
}

/// A cheap-to-clone handle on the flight recorder. The default value is
/// the **null recorder**: disabled, allocation-free, every operation a
/// single branch. [`Recorder::enabled`] builds a live one.
///
/// Clones share the same buffers and epoch, so a recorder can
/// be stored in a config struct, cloned into worker threads, and exported
/// from the original handle afterwards.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl PartialEq for Recorder {
    /// Two recorders are equal when they are the same recorder (clones of
    /// one `enabled()` call) or both disabled. This is what config-struct
    /// equality wants: "points at the same sink".
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

thread_local! {
    /// Cached hash of the current thread's id (0 = not yet computed; the
    /// hash itself is re-mapped away from 0).
    static CACHED_TID: Cell<u64> = const { Cell::new(0) };
}

/// Stable-within-a-process track id for the calling thread.
fn current_tid() -> u64 {
    CACHED_TID.with(|c| {
        let cached = c.get();
        if cached != 0 {
            return cached;
        }
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        let tid = h.finish().max(1);
        c.set(tid);
        tid
    })
}

impl Recorder {
    /// A live recorder with the default per-shard ring capacity.
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_EVENTS_PER_SHARD)
    }

    /// A live recorder whose ring buffers hold `events_per_shard` events
    /// each (16 shards). When a shard fills, the oldest event is
    /// overwritten and the drop counted.
    #[must_use]
    pub fn with_capacity(events_per_shard: usize) -> Self {
        let capacity = events_per_shard.max(1);
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                capacity_per_shard: capacity,
                shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
                tracks: Mutex::new(HashMap::new()),
                next_async_id: AtomicU64::new(1),
            })),
        }
    }

    /// The null recorder (same as `Recorder::default()`): records nothing,
    /// allocates nothing, costs one branch per call.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this recorder collects events.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds elapsed since this recorder's epoch (0 when disabled).
    #[must_use]
    pub fn now_nanos(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Registers a human-readable track name for the calling thread; the
    /// Chrome exporter emits it as thread-name metadata so Perfetto shows
    /// one labelled track per worker.
    pub fn set_thread_track(&self, name: &str) {
        if let Some(inner) = &self.inner {
            let tid = current_tid();
            inner
                .tracks
                .lock()
                .expect("track registry lock")
                .insert(tid, name.to_string());
        }
    }

    /// Records an instant event on the calling thread's track.
    pub fn instant(
        &self,
        cat: &'static str,
        name: &'static str,
        args: &[(&'static str, ArgValue)],
    ) {
        if self.inner.is_none() {
            return;
        }
        let ts = self.now_nanos();
        self.push(Event {
            cat,
            name: Cow::Borrowed(name),
            ts_nanos: ts,
            tid: current_tid(),
            phase: Phase::Instant,
            args: args.to_vec(),
        });
    }

    /// Opens a complete span on the calling thread's track; the returned
    /// guard records the event (with its measured duration) on drop. Guards
    /// drop innermost-first, so spans nest structurally.
    #[must_use]
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard {
        // One clock read for the timestamp and the duration's start: with
        // two, a preemption between them shortens the span, and a nested
        // span could end after it.
        let (start_nanos, start) = match &self.inner {
            Some(inner) => {
                let now = Instant::now();
                (now.duration_since(inner.epoch).as_nanos() as u64, Some(now))
            }
            None => (0, None),
        };
        SpanGuard {
            rec: self.clone(),
            cat,
            name,
            start_nanos,
            start,
            args: Vec::new(),
        }
    }

    /// Records an async interval (`ph: "b"`/`"e"` pair) with explicit
    /// timestamps — for intervals measured elsewhere, like a job's queue
    /// wait, that overlap the recording thread's own spans. Returns the
    /// correlation id used (0 when disabled).
    pub fn async_span(
        &self,
        cat: &'static str,
        name: &'static str,
        start_nanos: u64,
        end_nanos: u64,
        args: &[(&'static str, ArgValue)],
    ) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let id = inner.next_async_id.fetch_add(1, Ordering::Relaxed);
        let tid = current_tid();
        self.push(Event {
            cat,
            name: Cow::Borrowed(name),
            ts_nanos: start_nanos,
            tid,
            phase: Phase::AsyncBegin { id },
            args: args.to_vec(),
        });
        self.push(Event {
            cat,
            name: Cow::Borrowed(name),
            ts_nanos: end_nanos.max(start_nanos),
            tid,
            phase: Phase::AsyncEnd { id },
            args: Vec::new(),
        });
        id
    }

    /// Total events overwritten because a ring shard was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .shards
                .iter()
                .map(|s| s.lock().expect("shard lock").dropped)
                .sum(),
            None => 0,
        }
    }

    /// Number of events currently resident across all ring shards.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner
                .shards
                .iter()
                .map(|s| s.lock().expect("shard lock").ring.len())
                .sum(),
            None => 0,
        }
    }

    /// Whether no events are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A timestamp-ordered snapshot of every resident event.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for shard in &inner.shards {
            out.extend(shard.lock().expect("shard lock").ring.iter().cloned());
        }
        out.sort_by_key(|e| e.ts_nanos);
        out
    }

    /// Registered thread-track names, `(tid, name)` pairs.
    #[must_use]
    pub fn tracks(&self) -> Vec<(u64, String)> {
        match &self.inner {
            Some(inner) => {
                let mut v: Vec<(u64, String)> = inner
                    .tracks
                    .lock()
                    .expect("track registry lock")
                    .iter()
                    .map(|(k, n)| (*k, n.clone()))
                    .collect();
                v.sort();
                v
            }
            None => Vec::new(),
        }
    }

    fn push(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        let shard = &inner.shards[(event.tid % SHARDS as u64) as usize];
        let mut shard = shard.lock().expect("shard lock");
        if shard.ring.len() >= inner.capacity_per_shard {
            shard.ring.pop_front();
            shard.dropped += 1;
        }
        shard.ring.push_back(event);
    }
}

/// RAII guard for a complete span: opened by [`Recorder::span`], records
/// the `X` event with its measured duration when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    rec: Recorder,
    cat: &'static str,
    name: &'static str,
    start_nanos: u64,
    /// `Some` only when the recorder is enabled; measures the duration.
    start: Option<Instant>,
    args: Vec<(&'static str, ArgValue)>,
}

impl SpanGuard {
    /// Attaches an argument (builder style). A no-op on a disabled
    /// recorder — no allocation happens.
    #[must_use]
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.push_arg(key, value);
        self
    }

    /// Attaches an argument in place (for values known mid-span).
    pub fn push_arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.start.is_some() {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_nanos = start.elapsed().as_nanos() as u64;
        self.rec.push(Event {
            cat: self.cat,
            name: Cow::Borrowed(self.name),
            ts_nanos: self.start_nanos,
            tid: current_tid(),
            phase: Phase::Complete { dur_nanos },
            args: std::mem::take(&mut self.args),
        });
    }
}
