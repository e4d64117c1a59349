//! Always-on serving metrics: cached handles into a
//! [`janus_obs::metrics::Registry`], wired through the executor, the
//! artifact cache and the persistent store.
//!
//! These handles are the session's only counters: each serving event is
//! recorded once, here, and [`ServeStats`](crate::ServeStats),
//! the per-tenant snapshots, the cache's and the store's
//! accessors, `/statusz` and `/metrics` all read them. A session meters
//! into [`ServeConfig::metrics`](crate::ServeConfig::metrics) when one is
//! configured and into a fresh registry of its own otherwise, so its
//! counters are never another session's. That holds for the DBM families
//! too: they are counted from each job's returned [`DbmStats`], never from
//! runs outside the session. Handles are registered once at session start;
//! every event site is a relaxed atomic op on a cached `Arc` — no locks, no
//! allocation on the hot path.

use janus_dbm::{BackendKind, DbmStats};
use janus_obs::metrics::{Counter, Gauge, Registry};
use janus_obs::Histogram;
use std::sync::Arc;

/// Cache-tier counters ([`ArtifactCache`](crate::ArtifactCache)). The
/// default meter holds detached counters — a cache outside a serving
/// session meters into nowhere at the same cost.
#[derive(Debug, Clone)]
pub(crate) struct CacheMeter {
    pub hits: Arc<Counter>,
    pub misses: Arc<Counter>,
    pub inflight_waits: Arc<Counter>,
    pub evictions: Arc<Counter>,
}

impl Default for CacheMeter {
    fn default() -> CacheMeter {
        CacheMeter {
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            inflight_waits: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
        }
    }
}

impl CacheMeter {
    pub(crate) fn register(registry: &Registry) -> CacheMeter {
        CacheMeter {
            hits: registry.counter(
                "janus_serve_cache_hits_total",
                "Artifact-cache lookups served from a ready in-memory entry.",
                &[],
            ),
            misses: registry.counter(
                "janus_serve_cache_misses_total",
                "Artifact-cache lookups that ran a full pipeline build.",
                &[],
            ),
            inflight_waits: registry.counter(
                "janus_serve_cache_inflight_waits_total",
                "Lookups that blocked on another submission's in-progress build.",
                &[],
            ),
            evictions: registry.counter(
                "janus_serve_cache_evictions_total",
                "Artifacts evicted by the in-memory LRU capacity bound.",
                &[],
            ),
        }
    }
}

/// Disk-store counters ([`ArtifactStore`](crate::ArtifactStore)); same
/// detached-by-default contract as [`CacheMeter`].
#[derive(Debug, Clone)]
pub(crate) struct StoreMeter {
    pub hits: Arc<Counter>,
    pub misses: Arc<Counter>,
    pub corrupt: Arc<Counter>,
    pub evicted_bytes: Arc<Counter>,
    pub errors: Arc<Counter>,
}

impl Default for StoreMeter {
    fn default() -> StoreMeter {
        StoreMeter {
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            corrupt: Arc::new(Counter::new()),
            evicted_bytes: Arc::new(Counter::new()),
            errors: Arc::new(Counter::new()),
        }
    }
}

impl StoreMeter {
    pub(crate) fn register(registry: &Registry) -> StoreMeter {
        StoreMeter {
            hits: registry.counter(
                "janus_store_hits_total",
                "Disk-store loads served from a verified entry (no rebuild).",
                &[],
            ),
            misses: registry.counter(
                "janus_store_misses_total",
                "Disk-store probes that found no usable entry (absent, stale \
                 or corrupt).",
                &[],
            ),
            corrupt: registry.counter(
                "janus_store_corrupt_total",
                "Disk entries quarantined after failing verification.",
                &[],
            ),
            evicted_bytes: registry.counter(
                "janus_store_evicted_bytes_total",
                "Bytes removed by the disk store's byte-budget LRU policy.",
                &[],
            ),
            errors: registry.counter(
                "janus_store_errors_total",
                "Artifact persistence attempts that failed with an I/O error.",
                &[],
            ),
        }
    }
}

/// A DBM counter family: name, help, and what one completed run adds.
type DbmCounter = (&'static str, &'static str, fn(&DbmStats) -> u64);

/// The DBM counter families a session counts from its jobs' returned
/// [`DbmStats`].
#[rustfmt::skip]
const DBM_COUNTERS: [DbmCounter; 14] = [
    ("janus_dbm_runs_total",
     "Guest programs run to completion under DBM control.", |_| 1),
    ("janus_dbm_guest_cycles_total",
     "Modelled guest cycles consumed by completed runs.", |s| s.breakdown.total()),
    ("janus_dbm_parallel_invocations_total",
     "Loop invocations executed in parallel (chunked).", |s| s.parallel_invocations),
    ("janus_dbm_sequential_fallbacks_total",
     "Parallel-candidate invocations that fell back to sequential \
      execution (failed bounds check or too few iterations).", |s| s.sequential_fallbacks),
    ("janus_dbm_tune_parallel_decisions_total",
     "Adaptive-tuner decisions that chose or kept parallel execution.",
     |s| s.tune_parallel_decisions),
    ("janus_dbm_tune_sequential_decisions_total",
     "Adaptive-tuner decisions that forced the sequential path.", |s| s.tune_sequential_decisions),
    ("janus_dbm_merge_pages_skipped_total",
     "Guest pages the page-aware overlay merge skipped untouched.", |s| s.merge_pages_skipped),
    ("janus_dbm_merge_pages_merged_total",
     "Guest pages the overlay merge actually visited.", |s| s.merge_pages_merged),
    ("janus_spec_invocations_total",
     "Loop invocations executed under iteration-level speculation.", |s| s.spec_invocations),
    ("janus_spec_executions_total",
     "Iteration incarnations executed to completion.", |s| s.spec_executions),
    ("janus_spec_validations_total",
     "Validation tasks performed by the speculative engine.", |s| s.spec_validations),
    ("janus_spec_aborts_total",
     "Speculative aborts (failed validations, estimate stalls, \
      retried faults). Abort rate = aborts / executions.", |s| s.spec_aborts),
    ("janus_spec_retries_total",
     "Conflict-driven iteration re-executions beyond the first \
      incarnation.", DbmStats::spec_retries),
    ("janus_spec_fallbacks_total",
     "Speculative invocations abandoned and re-run sequentially.", |s| s.spec_fallbacks),
];

/// One `backend` label's DBM handles: [`DBM_COUNTERS`] in order, then
/// failed runs.
struct DbmBackendMeter {
    counters: [Arc<Counter>; DBM_COUNTERS.len()],
    failures: Arc<Counter>,
}

/// The session's DBM families, one handle set per backend, counted from
/// each job's run by the worker that ran it.
pub(crate) struct DbmMeter {
    virtual_time: DbmBackendMeter,
    native_threads: DbmBackendMeter,
}

impl DbmMeter {
    fn register(registry: &Registry) -> DbmMeter {
        let backend = |kind: BackendKind| {
            let labels: &[(&'static str, &str)] = &[("backend", kind.label())];
            DbmBackendMeter {
                counters: DBM_COUNTERS.map(|(name, help, _)| registry.counter(name, help, labels)),
                failures: registry.counter(
                    "janus_dbm_run_failures_total",
                    "DBM runs that ended in an error (fault or cycle limit).",
                    labels,
                ),
            }
        };
        DbmMeter {
            virtual_time: backend(BackendKind::VirtualTime),
            native_threads: backend(BackendKind::NativeThreads),
        }
    }

    fn backend(&self, kind: BackendKind) -> &DbmBackendMeter {
        match kind {
            BackendKind::VirtualTime => &self.virtual_time,
            BackendKind::NativeThreads => &self.native_threads,
        }
    }

    /// Counts one completed run under `backend`.
    pub(crate) fn record_run(&self, backend: BackendKind, stats: &DbmStats) {
        let counters = &self.backend(backend).counters;
        for (counter, (_, _, amount)) in counters.iter().zip(&DBM_COUNTERS) {
            counter.add(amount(stats));
        }
    }

    /// Counts one run under `backend` that ended in an error.
    pub(crate) fn record_failure(&self, backend: BackendKind) {
        self.backend(backend).failures.inc();
    }
}

/// Per-tenant handles, labelled `{tenant=...}`. Registered on the tenant's
/// first submission and owned by the scheduler's tenant entry, which lives
/// for the whole session.
pub(crate) struct TenantMeter {
    /// Deficit-round-robin balance (tokens), copied at scrape time.
    pub deficit: Arc<Gauge>,
    /// Jobs queued for this tenant, copied at scrape time.
    pub pending: Arc<Gauge>,
    /// Jobs started (dequeued) for this tenant.
    pub served: Arc<Counter>,
    /// Completed jobs with a deadline that finished within it.
    pub deadline_hit: Arc<Counter>,
    /// Completed jobs with a deadline that overran it.
    pub deadline_missed: Arc<Counter>,
}

/// Session-level handles plus the registry itself (the telemetry endpoint
/// renders it and per-tenant handles register in it).
pub(crate) struct ServeMeter {
    pub registry: Registry,
    pub jobs_submitted: Arc<Counter>,
    pub jobs_completed: Arc<Counter>,
    pub jobs_failed: Arc<Counter>,
    /// Rejections by reason: `{reason="saturated"|"tenant-quota"|"deadline"}`.
    pub rejected_saturated: Arc<Counter>,
    pub rejected_quota: Arc<Counter>,
    pub rejected_deadline: Arc<Counter>,
    /// Deadline SLO outcome over completed deadline-carrying jobs.
    pub deadline_hit: Arc<Counter>,
    pub deadline_missed: Arc<Counter>,
    /// Jobs queued, not yet picked up (refreshed from the queue state).
    pub queue_depth: Arc<Gauge>,
    /// Jobs executing on a worker right now.
    pub jobs_running: Arc<Gauge>,
    /// High-water mark of in-flight jobs.
    pub in_flight_max: Arc<Gauge>,
    /// Distinct artifacts resident in the in-memory cache.
    pub cache_entries: Arc<Gauge>,
    /// Entries indexed in the disk store (0 when none is configured).
    pub store_entries: Arc<Gauge>,
    /// Bytes occupied by the disk store's indexed entries.
    pub store_bytes: Arc<Gauge>,
    /// End-to-end job latency: dequeue through execution, nanoseconds.
    pub hist_job_wall: Arc<Histogram>,
    /// Queue wait: submission to dequeue, nanoseconds.
    pub hist_queue_wait: Arc<Histogram>,
    /// Guest execution alone, nanoseconds.
    pub hist_execute: Arc<Histogram>,
    /// The DBM's run, loop and speculation counters.
    pub dbm: DbmMeter,
}

impl ServeMeter {
    /// Registers every session-level family in `registry`.
    pub(crate) fn register(registry: &Registry) -> ServeMeter {
        let reject = |reason: &str| {
            registry.counter(
                "janus_serve_jobs_rejected_total",
                "Submissions rejected by admission control, by reason.",
                &[("reason", reason)],
            )
        };
        ServeMeter {
            jobs_submitted: registry.counter(
                "janus_serve_jobs_submitted_total",
                "Jobs accepted by admission control.",
                &[],
            ),
            jobs_completed: registry.counter(
                "janus_serve_jobs_completed_total",
                "Jobs that finished (successfully or not).",
                &[],
            ),
            jobs_failed: registry.counter(
                "janus_serve_jobs_failed_total",
                "Jobs that finished with an error.",
                &[],
            ),
            rejected_saturated: reject("saturated"),
            rejected_quota: reject("tenant-quota"),
            rejected_deadline: reject("deadline"),
            deadline_hit: registry.counter(
                "janus_serve_deadline_hit_total",
                "Completed deadline-carrying jobs that finished within budget.",
                &[],
            ),
            deadline_missed: registry.counter(
                "janus_serve_deadline_missed_total",
                "Completed deadline-carrying jobs that overran their budget \
                 (admitted jobs are never killed; overruns are counted).",
                &[],
            ),
            queue_depth: registry.gauge(
                "janus_serve_queue_depth",
                "Jobs queued, not yet picked up by a worker.",
                &[],
            ),
            jobs_running: registry.gauge(
                "janus_serve_jobs_running",
                "Jobs currently executing on a worker.",
                &[],
            ),
            in_flight_max: registry.gauge(
                "janus_serve_in_flight_max",
                "High-water mark of in-flight jobs (pending + running).",
                &[],
            ),
            cache_entries: registry.gauge(
                "janus_serve_cache_entries",
                "Distinct artifacts resident in the in-memory cache.",
                &[],
            ),
            store_entries: registry.gauge(
                "janus_store_entries",
                "Entries indexed in the persistent disk store.",
                &[],
            ),
            store_bytes: registry.gauge(
                "janus_store_bytes",
                "Bytes occupied by the disk store's indexed entries.",
                &[],
            ),
            hist_job_wall: registry.histogram(
                "janus_serve_job_wall_nanos",
                "End-to-end job latency: dequeue through execution, including \
                 artifact resolution.",
                &[],
            ),
            hist_queue_wait: registry.histogram(
                "janus_serve_job_queue_wait_nanos",
                "Queue wait: submission to dequeue by a worker.",
                &[],
            ),
            hist_execute: registry.histogram(
                "janus_serve_job_execute_nanos",
                "Guest execution alone, excluding artifact resolution.",
                &[],
            ),
            dbm: DbmMeter::register(registry),
            registry: registry.clone(),
        }
    }

    /// Registers (idempotently) the per-tenant handles for `tenant`.
    pub(crate) fn tenant(&self, tenant: &str) -> TenantMeter {
        let labels: &[(&'static str, &str)] = &[("tenant", tenant)];
        TenantMeter {
            deficit: self.registry.gauge(
                "janus_serve_tenant_deficit_tokens",
                "Deficit-round-robin balance of the tenant (1 token ~ 1 ms of \
                 estimated service time).",
                labels,
            ),
            pending: self.registry.gauge(
                "janus_serve_tenant_pending",
                "Jobs currently queued for the tenant.",
                labels,
            ),
            served: self.registry.counter(
                "janus_serve_tenant_served_total",
                "Jobs started (dequeued by the fair scheduler) for the tenant.",
                labels,
            ),
            deadline_hit: self.registry.counter(
                "janus_serve_tenant_deadline_hit_total",
                "The tenant's completed deadline-carrying jobs that finished \
                 within budget.",
                labels,
            ),
            deadline_missed: self.registry.counter(
                "janus_serve_tenant_deadline_missed_total",
                "The tenant's completed deadline-carrying jobs that overran.",
                labels,
            ),
        }
    }
}
