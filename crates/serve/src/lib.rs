//! # janus-serve — the multi-tenant serving layer
//!
//! Janus front-loads static analysis into a compact rewrite schedule
//! precisely so the expensive part is done **once per binary** and the
//! dynamic modifier can reuse it on every run — yet driving the pipeline
//! through [`Janus::run`](janus_core::Janus::run) re-analyses, re-classifies
//! and re-schedules the guest on every invocation. This crate supplies the
//! subsystem that amortises that work across runs and executes many guest
//! invocations concurrently: a job runtime that accepts batches of guest
//! invocations (binary + input + per-job configuration), keyed by a content
//! digest of the `JBin`.
//!
//! ## Architecture
//!
//! (The cross-crate picture — how the serving layer sits on top of the
//! pipeline, the two execution backends and the artifact lifecycle — is
//! drawn end-to-end in `docs/ARCHITECTURE.md` at the repository root.)
//!
//! * [`ArtifactCache`] — a **sharded, content-addressed store** mapping
//!   [`JBinary::content_digest`] to the binary's derived artifacts: the
//!   static analysis, the optional profile, the selected loops, the
//!   generated [`RewriteSchedule`](janus_core::PipelineArtifacts) and a
//!   [`PreparedDbm`](janus_core::PreparedDbm) ready to execute. Each digest
//!   is built **exactly once** under a per-key build gate: concurrent
//!   submissions of the same binary elect one builder and every other
//!   submitter blocks on the gate until the artifact is published (counted
//!   as `cache_inflight_waits`, not as extra builds). Entries are bounded by
//!   a per-shard LRU; hit/miss/in-flight/eviction counters surface in
//!   [`ServeStats`].
//! * [`ArtifactStore`] — the **persistent disk tier** under the in-memory
//!   cache ([`ServeConfig::store_dir`]): serialised artifacts under
//!   digest-named files, written via temp-file + atomic rename so crashes
//!   and concurrent processes never observe torn entries. A cache miss
//!   probes the store before analysing; a store hit hydrates the in-memory
//!   entry with **zero pipeline rebuilds**, so a restarted session — or a
//!   second process sharing the directory — warm-starts. Corrupt entries
//!   are quarantined and rebuilt, never trusted (see the [`store`
//!   module](store) docs for the format and crash-safety argument).
//! * [`ServeHandle`] — a **bounded, fair job executor**: a pool of OS
//!   worker threads drains per-tenant submission queues under
//!   deficit-round-robin scheduling (token quotas per tenant, so a
//!   saturating tenant cannot starve a light one), resolves each job's
//!   artifact through the cache and runs it via
//!   [`PreparedDbm::execute_with`](janus_core::PreparedDbm::execute_with)
//!   (fresh guest memory per run, so concurrent jobs never observe each
//!   other). Admission control caps the pending queue depth, the total
//!   number of in-flight jobs and each tenant's backlog, and rejects jobs
//!   whose latency budget provably cannot be met
//!   ([`ServeError::DeadlineUnmeetable`], judged against queue occupancy
//!   and a cost model fed by completed runs) — saturated submissions fail
//!   fast with typed errors instead of queueing unboundedly.
//! * [`ServeSession`] — the session API on the `janus` facade:
//!   `janus.serve(ServeConfig)` returns a [`ServeHandle`] with
//!   [`submit`](ServeHandle::submit) / [`join`](ServeHandle::join), so
//!   callers drive the serving layer
//!   without touching internals.
//!
//! ## The digest-keyed artifact lifecycle
//!
//! 1. A job arrives carrying an `Arc<JBinary>`; its
//!    [`content_digest`](janus_ir::JBinary::content_digest) (a stable FNV-1a
//!    hash of the serialised image) is the cache key.
//! 2. On the first submission of a digest, the executing worker becomes the
//!    *builder*: it runs the front half of the pipeline
//!    ([`Janus::prepare`](janus_core::Janus::prepare) — analysis, optional
//!    profiling on the configured training input, loop selection, schedule
//!    generation), loads the process and decodes the schedule into a
//!    [`PreparedDbm`](janus_core::PreparedDbm). Concurrent submissions of
//!    the same digest wait on the build gate; **exactly one analysis runs**.
//! 3. The published [`Artifact`] is immutable plain data behind an `Arc`;
//!    any number of jobs execute against it concurrently, each with a fresh
//!    guest image and per-job backend/thread overrides.
//! 4. When the cache exceeds its capacity bound, the least-recently-used
//!    artifact of the over-full shard is evicted; resubmitting that binary
//!    reloads it from the disk store when one is configured (a disk hit,
//!    no re-analysis) and rebuilds it otherwise (a new miss).
//! 5. With [`ServeConfig::store_dir`] set, every built artifact is also
//!    persisted: the serialised [`PipelineArtifacts`](janus_core::PipelineArtifacts)
//!    lands in the store under the binary digest, tagged with a fingerprint
//!    of the pipeline configuration, and outlives the process.
//!
//! Guest results are independent of all of this: a job's outputs and final
//! memory digest are identical whether it ran through the serving layer, on
//! which worker, at which cache state, or serially through
//! [`PreparedDbm::execute`](janus_core::PreparedDbm::execute) — the
//! equivalence tests in `tests/serve.rs` pin exactly that.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use janus_core::Janus;
//! use janus_serve::{JobSpec, ServeConfig, ServeSession};
//! use janus_compile::{ast, Compiler};
//!
//! let program = ast::Program::builder("axpy")
//!     .global_f64("x", 512)
//!     .global_f64("y", 512)
//!     .function(ast::Function::new("main").local("i", ast::Ty::I64).body(vec![
//!         ast::Stmt::simple_for(
//!             "i",
//!             ast::Expr::const_i(0),
//!             ast::Expr::const_i(512),
//!             vec![ast::Stmt::assign(
//!                 ast::LValue::store("y", ast::Expr::var("i")),
//!                 ast::Expr::add(
//!                     ast::Expr::load("x", ast::Expr::var("i")),
//!                     ast::Expr::load("y", ast::Expr::var("i")),
//!                 ),
//!             )],
//!         ),
//!         ast::Stmt::print(ast::Expr::load("y", ast::Expr::const_i(100))),
//!     ]))
//!     .build();
//! let binary = Arc::new(Compiler::new().compile(&program).unwrap());
//!
//! let handle = Janus::new().serve(ServeConfig::default());
//! // Two submissions of the same binary: one analysis, one cache hit.
//! handle.submit(JobSpec::new(binary.clone())).unwrap();
//! handle.submit(JobSpec::new(binary)).unwrap();
//! let outcomes = handle.join();
//! assert_eq!(outcomes.len(), 2);
//! let stats = handle.stats();
//! assert_eq!(stats.cache_misses, 1);
//! assert_eq!(stats.cache_hits + stats.cache_inflight_waits, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod executor;
mod metrics;
pub mod store;
pub mod telemetry;

pub use cache::{Artifact, ArtifactCache};
pub use executor::ServeHandle;
pub use store::{ArtifactStore, STORE_FORMAT_VERSION};

use janus_core::{BackendKind, Janus};
use janus_dbm::DbmError;
use janus_ir::JBinary;
use janus_obs::metrics::Registry;
use janus_obs::{LatencyStats, Recorder};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one serving session ([`ServeSession::serve`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// OS worker threads draining the submission queue.
    pub workers: usize,
    /// Pending (queued, not yet running) jobs admitted before submissions
    /// fail with [`ServeError::Saturated`].
    pub queue_depth: usize,
    /// Cap on total in-flight jobs (pending + running). `0` means
    /// `queue_depth + workers` — the natural bound.
    pub max_in_flight: usize,
    /// Artifact-cache capacity in entries (distinct binaries). The bound is
    /// enforced per shard of the [`ArtifactCache`]'s eight, so it is a
    /// high-water mark.
    pub cache_capacity: usize,
    /// Training input used when the configured optimisation mode profiles a
    /// newly seen binary. One fixed input per session keeps artifacts a pure
    /// function of the binary digest.
    pub train_input: Vec<i64>,
    /// Directory of the persistent [`ArtifactStore`]. `None` (the default)
    /// serves from memory only; `Some(dir)` opens (creating if needed) a
    /// disk store there, warm-starts from its existing entries, and
    /// persists every artifact this session builds. Any number of
    /// sessions — in this process or others — may share one directory.
    pub store_dir: Option<PathBuf>,
    /// Byte budget of the disk store; least-recently-used entries are
    /// evicted past it. `0` (the default) means unbounded.
    pub store_max_bytes: u64,
    /// Quota applied to tenants without an entry in `tenant_quotas`
    /// (including the implicit `"default"` tenant of jobs that set none).
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides, matched by the tenant name carried in
    /// [`JobSpec::tenant`].
    pub tenant_quotas: Vec<(String, TenantQuota)>,
    /// The session's flight recorder. The default (disabled) recorder costs
    /// one branch per would-be event; pass
    /// [`Recorder::enabled`](janus_obs::Recorder::enabled) to collect
    /// per-job spans (queue wait, cache probe, disk hydrate, execute),
    /// store events and per-worker tracks, exportable as a Chrome trace.
    /// The handle installs this recorder into its pipeline and
    /// store, so one export covers the whole stack. Latency histograms
    /// ([`ServeStats::job_wall`] and friends) live in the session's
    /// registry ([`ServeConfig::metrics`]), traced or not.
    pub trace: Recorder,
    /// The metrics registry this session meters into — counters, gauges and
    /// latency histograms for jobs, tenants, the artifact cache and the
    /// disk store, always on (a handful of relaxed atomic ops per event).
    /// They are the session's only counters: [`ServeHandle::stats`] and
    /// `/statusz` read them. `None` (the default) gives the session a fresh
    /// [`Registry`] of its own; pass one to read the families in-process.
    /// Sessions given one registry share its counters, and so their stats.
    pub metrics: Option<Registry>,
    /// Address (`"host:port"`, e.g. `"127.0.0.1:9100"` or `"127.0.0.1:0"`
    /// for an ephemeral port) to serve live telemetry on: a dependency-free
    /// HTTP/1.0 endpoint answering `GET /metrics` (Prometheus exposition of
    /// the session's registry, its jobs' DBM counters included), `/healthz`
    /// (liveness + saturation verdict), `/statusz` (JSON snapshot of
    /// [`ServeStats`], per-tenant queues and SLO attainment) and `/tracez`
    /// (Chrome trace, when [`ServeConfig::trace`] is enabled). `None` (the
    /// default) serves no endpoint. The listener shuts down with the
    /// session. See [`telemetry`].
    pub telemetry_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 256,
            max_in_flight: 0,
            cache_capacity: 64,
            train_input: Vec::new(),
            store_dir: None,
            store_max_bytes: 0,
            default_quota: TenantQuota::default(),
            tenant_quotas: Vec::new(),
            trace: Recorder::default(),
            metrics: None,
            telemetry_addr: None,
        }
    }
}

impl ServeConfig {
    /// The effective in-flight cap: `max_in_flight`, defaulting to
    /// `queue_depth + workers` when 0.
    #[must_use]
    pub fn effective_max_in_flight(&self) -> usize {
        if self.max_in_flight == 0 {
            self.queue_depth + self.workers
        } else {
            self.max_in_flight
        }
    }

    /// The quota governing `tenant`: its `tenant_quotas` entry, falling
    /// back to `default_quota`.
    #[must_use]
    pub fn quota_for(&self, tenant: &str) -> TenantQuota {
        self.tenant_quotas
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, quota)| *quota)
            .unwrap_or(self.default_quota)
    }
}

/// Fair-scheduling quota of one tenant.
///
/// The executor keeps one FIFO queue per tenant and serves them with
/// **deficit round robin**: each visit of the scheduler grants the tenant
/// `quantum` tokens of deficit, and a job is started only when the
/// tenant's accumulated deficit covers the job's token cost (1 token ≈ 1
/// millisecond of estimated service time, from the session's cost model;
/// unseen binaries cost 1 token). Over time every backlogged tenant's
/// share of served work is proportional to its quantum, so a tenant
/// flooding the queue cannot starve a light one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Deficit tokens granted per scheduler round. Relative values set the
    /// tenants' long-run service shares; the default is 100 (≈ 100 ms of
    /// estimated service per round).
    pub quantum: u64,
    /// Per-tenant pending-queue cap; submissions beyond it are rejected
    /// with [`ServeError::TenantSaturated`]. `0` (the default) means no
    /// per-tenant cap — only the session-wide `queue_depth` applies.
    pub max_pending: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            quantum: 100,
            max_pending: 0,
        }
    }
}

/// Tenant name used for jobs that do not set [`JobSpec::tenant`].
pub const DEFAULT_TENANT: &str = "default";

/// Errors raised by the serving layer.
///
/// `Clone` because one build failure is shared with every submission that
/// waited on the same in-progress build.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control rejected the submission: the queue (or the
    /// in-flight cap) is full. Back off and resubmit.
    Saturated {
        /// In-flight jobs (pending + running) at rejection time.
        in_flight: usize,
        /// The limit that was hit.
        limit: usize,
    },
    /// Building the binary's artifacts (analysis, profiling, schedule
    /// generation or process load) failed.
    Build {
        /// Content digest of the failing binary.
        digest: u64,
        /// Human-readable cause.
        reason: String,
    },
    /// The job's guest execution failed.
    Execution(DbmError),
    /// The session is shutting down; no further submissions are accepted.
    ShuttingDown,
    /// Admission control rejected the submission because its latency
    /// budget ([`JobSpec::deadline`]) provably cannot be met: the cost
    /// model's service-time estimate for this binary, plus the current
    /// backlog spread over the worker pool, already exceeds the budget.
    /// Only raised when the model has evidence (at least one completed run
    /// of this or some binary); jobs for unseen binaries with no backlog
    /// estimate are always admitted.
    DeadlineUnmeetable {
        /// Estimated completion time (queue wait + service) in nanoseconds.
        estimated_nanos: u64,
        /// The job's deadline budget in nanoseconds.
        budget_nanos: u64,
    },
    /// Admission control rejected the submission because this tenant's
    /// pending queue reached its [`TenantQuota::max_pending`] cap. Other
    /// tenants are unaffected — back off and resubmit.
    TenantSaturated {
        /// The tenant whose quota was hit.
        tenant: String,
        /// The tenant's pending jobs at rejection time.
        pending: usize,
        /// The tenant's `max_pending` cap.
        limit: usize,
    },
    /// The persistent artifact store could not be opened
    /// ([`ServeConfig::store_dir`]).
    Store {
        /// Human-readable cause (the underlying I/O error).
        reason: String,
    },
    /// The telemetry endpoint could not be started
    /// ([`ServeConfig::telemetry_addr`]): the address did not bind.
    Telemetry {
        /// Human-readable cause (the underlying I/O error).
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Saturated { in_flight, limit } => {
                write!(
                    f,
                    "serving queue saturated ({in_flight} in flight, limit {limit})"
                )
            }
            ServeError::Build { digest, reason } => {
                write!(
                    f,
                    "artifact build failed for binary {digest:#018x}: {reason}"
                )
            }
            ServeError::Execution(e) => write!(f, "job execution failed: {e}"),
            ServeError::ShuttingDown => write!(f, "serving session is shutting down"),
            ServeError::DeadlineUnmeetable {
                estimated_nanos,
                budget_nanos,
            } => write!(
                f,
                "deadline unmeetable: estimated completion {estimated_nanos} ns exceeds budget {budget_nanos} ns"
            ),
            ServeError::TenantSaturated {
                tenant,
                pending,
                limit,
            } => write!(
                f,
                "tenant '{tenant}' saturated ({pending} pending, quota {limit})"
            ),
            ServeError::Store { reason } => {
                write!(f, "artifact store unavailable: {reason}")
            }
            ServeError::Telemetry { reason } => {
                write!(f, "telemetry endpoint failed to start: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DbmError> for ServeError {
    fn from(e: DbmError) -> Self {
        ServeError::Execution(e)
    }
}

/// Counters describing one serving session, snapshotted by
/// [`ServeHandle::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Cache lookups served from a ready artifact.
    pub cache_hits: u64,
    /// Cache lookups that started a build — i.e. the number of analyses
    /// actually run. Concurrent submissions of one binary contribute 1 here.
    pub cache_misses: u64,
    /// Cache lookups that blocked on another submission's in-progress build
    /// of the same digest (amortised to zero extra analyses).
    pub cache_inflight_waits: u64,
    /// Artifacts evicted by the LRU capacity bound.
    pub cache_evictions: u64,
    /// Distinct artifacts currently resident.
    pub cache_entries: u64,
    /// Memory-cache misses served from the persistent disk store — the
    /// artifact was deserialised and hydrated with **no** pipeline rebuild.
    /// 0 when no [`ServeConfig::store_dir`] is configured.
    pub disk_hits: u64,
    /// Disk-store probes that found no usable entry (absent, stale or
    /// corrupt); each corresponds to a `cache_misses` analysis.
    pub disk_misses: u64,
    /// Disk entries quarantined because their bytes failed verification
    /// (renamed aside, never served, rebuilt from the binary).
    pub disk_corrupt: u64,
    /// Bytes removed from the disk store by its byte-budget LRU policy.
    pub disk_evicted_bytes: u64,
    /// Entries resident in the disk store (as indexed by this process).
    pub disk_entries: u64,
    /// Jobs accepted by admission control.
    pub jobs_submitted: u64,
    /// Jobs that finished (successfully or not).
    pub jobs_completed: u64,
    /// Jobs that finished with an error.
    pub jobs_failed: u64,
    /// Submissions rejected with [`ServeError::Saturated`].
    pub jobs_rejected: u64,
    /// Submissions rejected with [`ServeError::DeadlineUnmeetable`].
    pub jobs_deadline_rejected: u64,
    /// Submissions rejected with [`ServeError::TenantSaturated`].
    pub jobs_quota_rejected: u64,
    /// Completed deadline-carrying jobs that finished within their budget.
    /// Jobs without a [`JobSpec::deadline`] count in neither SLO bucket.
    pub jobs_deadline_hit: u64,
    /// Completed deadline-carrying jobs that overran their budget (admitted
    /// jobs are never killed — the overrun is counted, not prevented).
    pub jobs_deadline_missed: u64,
    /// Jobs currently queued, not yet picked up by a worker.
    pub jobs_pending: u64,
    /// Jobs currently executing on a worker.
    pub jobs_running: u64,
    /// High-water mark of in-flight jobs (pending + running).
    pub max_in_flight_seen: u64,
    /// End-to-end job latency quantiles (dequeue through execution,
    /// including artifact resolution), from a log-bucketed histogram —
    /// p50/p90/p99 are bucket upper bounds, never more than 2× the exact
    /// value. Maintained whether or not tracing is enabled.
    pub job_wall: LatencyStats,
    /// Queue-wait quantiles: submission to dequeue by a worker.
    pub job_queue_wait: LatencyStats,
    /// Guest-execution quantiles: the [`PreparedDbm`](janus_core::PreparedDbm)
    /// run alone, excluding artifact resolution.
    pub job_execute: LatencyStats,
}

impl ServeStats {
    /// Fraction of cache lookups that did not run an analysis: memory hits,
    /// in-flight waits and disk hits over all lookups (0 when nothing was
    /// looked up). `cache_misses` alone counts the analyses actually run.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let amortised = self.cache_hits + self.cache_inflight_waits + self.disk_hits;
        let total = amortised + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            amortised as f64 / total as f64
        }
    }

    /// Deadline SLO attainment: the fraction of completed deadline-carrying
    /// jobs that finished within budget, or `None` when no such job has
    /// completed (no evidence is not 100%).
    #[must_use]
    pub fn deadline_attainment(&self) -> Option<f64> {
        let total = self.jobs_deadline_hit + self.jobs_deadline_missed;
        if total == 0 {
            None
        } else {
            Some(self.jobs_deadline_hit as f64 / total as f64)
        }
    }
}

/// Identifier of one submitted job, unique within its session and ordered by
/// submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One guest invocation submitted to the serving layer: the binary, its
/// input, and optional per-job overrides of the session configuration.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The guest binary. `Arc` so batches over the same binary share one
    /// allocation (the cache key is the content digest, not the pointer).
    pub binary: Arc<JBinary>,
    /// The binary's content digest, computed once in [`JobSpec::new`] —
    /// digesting re-serialises the whole binary, so batches should build
    /// one `JobSpec` per binary and [`Clone`] it per job rather than
    /// re-wrapping the `Arc` each time.
    pub binary_digest: u64,
    /// Simulated standard input for the run.
    pub input: Vec<i64>,
    /// Per-job override of the worker thread count for parallel loops.
    pub threads: Option<u32>,
    /// Per-job override of the execution backend.
    pub backend: Option<BackendKind>,
    /// The submitting tenant, for fair scheduling and quotas. `None` files
    /// the job under [`DEFAULT_TENANT`].
    pub tenant: Option<String>,
    /// Latency budget from submission to completion. Admission rejects the
    /// job with [`ServeError::DeadlineUnmeetable`] when the cost model's
    /// evidence says the budget cannot be met; `None` (the default) never
    /// rejects on latency grounds. Admission is a *promise check*, not a
    /// guarantee — an admitted job is not killed if it overruns.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A job running `binary` on an empty input with session defaults.
    /// Computes the binary's content digest here, once; clones share it.
    #[must_use]
    pub fn new(binary: Arc<JBinary>) -> JobSpec {
        let binary_digest = binary.content_digest();
        JobSpec {
            binary,
            binary_digest,
            input: Vec::new(),
            threads: None,
            backend: None,
            tenant: None,
            deadline: None,
        }
    }

    /// Overrides the execution backend for this job.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> JobSpec {
        self.backend = Some(backend);
        self
    }

    /// Files this job under `tenant` for fair scheduling and quotas.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> JobSpec {
        self.tenant = Some(tenant.into());
        self
    }
}

/// What one completed job produced.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's identifier.
    pub id: JobId,
    /// The tenant the job was filed under ([`DEFAULT_TENANT`] when the spec
    /// set none).
    pub tenant: String,
    /// The job's 0-based position in the session's *dequeue* order — the
    /// order the fair scheduler actually started jobs, which differs from
    /// submission order when deficit round robin interleaves tenants.
    pub sequence: u64,
    /// Content digest of the binary that ran (the artifact-cache key).
    pub binary_digest: u64,
    /// Content digest of the cached rewrite schedule the run used.
    pub schedule_digest: u64,
    /// Backend the job executed under (session default or per-job override).
    pub backend: BackendKind,
    /// Thread count the job executed with.
    pub threads: u32,
    /// Guest exit code.
    pub exit_code: i64,
    /// Modelled cycles of the run.
    pub cycles: u64,
    /// Integers written by the guest.
    pub output_ints: Vec<i64>,
    /// Floats written by the guest.
    pub output_floats: Vec<f64>,
    /// Digest of the final guest memory image — byte-identical to a serial
    /// run of the same binary and input.
    pub memory_digest: u64,
    /// Detailed execution statistics.
    pub stats: janus_dbm::DbmStats,
    /// Wall-clock nanoseconds from the start of artifact resolution (cache
    /// lookup, build for the building submission, gate wait for concurrent
    /// ones) through guest execution — the job's end-to-end service time on
    /// its worker.
    pub wall_nanos: u64,
}

/// One entry of [`ServeHandle::join`]'s result: the job and how it ended.
pub type JobOutcome = (JobId, Result<JobReport, ServeError>);

/// The session API: anything that can open a serving session. Implemented
/// for [`Janus`], so `janus.serve(config)` is the one entry point —
/// re-exported by the facade crate.
pub trait ServeSession {
    /// Opens a serving session: opens the persistent store when one is
    /// configured, spawns the worker pool and returns the handle jobs are
    /// submitted through.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when [`ServeConfig::store_dir`] is set but the
    /// directory cannot be created or read.
    fn try_serve(&self, config: ServeConfig) -> Result<ServeHandle, ServeError>;

    /// [`ServeSession::try_serve`], panicking on store-open failure.
    /// Infallible for purely in-memory sessions (`store_dir: None`).
    ///
    /// # Panics
    ///
    /// Panics when the configured persistent store cannot be opened.
    fn serve(&self, config: ServeConfig) -> ServeHandle {
        self.try_serve(config).expect("serving session starts")
    }
}

impl ServeSession for Janus {
    fn try_serve(&self, config: ServeConfig) -> Result<ServeHandle, ServeError> {
        ServeHandle::start(self.clone(), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_convert() {
        let e = ServeError::Saturated {
            in_flight: 9,
            limit: 8,
        };
        assert!(e.to_string().contains("9 in flight"));
        let e = ServeError::Build {
            digest: 0xabcd,
            reason: "no loops".into(),
        };
        assert!(e.to_string().contains("no loops"));
        let e: ServeError = DbmError::BadRule { reason: "x".into() }.into();
        assert!(matches!(e, ServeError::Execution(_)));
        assert!(ServeError::ShuttingDown
            .to_string()
            .contains("shutting down"));
        let e = ServeError::DeadlineUnmeetable {
            estimated_nanos: 2_000,
            budget_nanos: 1_000,
        };
        assert!(e.to_string().contains("exceeds budget 1000 ns"));
        let e = ServeError::TenantSaturated {
            tenant: "acme".into(),
            pending: 5,
            limit: 4,
        };
        assert!(e.to_string().contains("'acme'"));
        let e = ServeError::Store {
            reason: "read-only".into(),
        };
        assert!(e.to_string().contains("read-only"));
    }

    #[test]
    fn quota_lookup_falls_back_to_the_default() {
        let config = ServeConfig {
            default_quota: TenantQuota {
                quantum: 10,
                max_pending: 0,
            },
            tenant_quotas: vec![(
                "acme".into(),
                TenantQuota {
                    quantum: 300,
                    max_pending: 2,
                },
            )],
            ..ServeConfig::default()
        };
        assert_eq!(config.quota_for("acme").quantum, 300);
        assert_eq!(config.quota_for("acme").max_pending, 2);
        assert_eq!(config.quota_for(DEFAULT_TENANT).quantum, 10);
    }

    #[test]
    fn config_derives_the_in_flight_cap() {
        let config = ServeConfig::default();
        assert_eq!(
            config.effective_max_in_flight(),
            config.queue_depth + config.workers
        );
        let explicit = ServeConfig {
            max_in_flight: 17,
            ..ServeConfig::default()
        };
        assert_eq!(explicit.effective_max_in_flight(), 17);
    }

    #[test]
    fn stats_hit_rate_amortises_inflight_waits() {
        let stats = ServeStats {
            cache_hits: 6,
            cache_misses: 2,
            cache_inflight_waits: 2,
            ..ServeStats::default()
        };
        assert!((stats.cache_hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(ServeStats::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn job_spec_builders_set_overrides() {
        let mut asm = janus_ir::AsmBuilder::new();
        asm.label("main");
        asm.push(janus_ir::Inst::Halt);
        let binary = Arc::new(asm.finish_binary("main").unwrap());
        let job = JobSpec::new(binary)
            .with_backend(BackendKind::NativeThreads)
            .with_tenant("alpha");
        assert!(job.input.is_empty());
        assert_eq!(job.threads, None);
        assert_eq!(job.backend, Some(BackendKind::NativeThreads));
        assert_eq!(job.tenant.as_deref(), Some("alpha"));
    }
}
