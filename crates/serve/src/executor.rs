//! The bounded, fair job executor: a pool of OS worker threads draining
//! per-tenant submission queues under deficit-round-robin scheduling,
//! resolving artifacts through the two-tier [`ArtifactCache`] and executing
//! jobs via the cached [`PreparedDbm`](janus_core::PreparedDbm).

use crate::cache::{Artifact, ArtifactCache};
use crate::metrics::{CacheMeter, ServeMeter, StoreMeter, TenantMeter};
use crate::store::ArtifactStore;
use crate::telemetry::TelemetryServer;
use crate::{
    JobId, JobOutcome, JobReport, JobSpec, ServeConfig, ServeError, ServeStats, DEFAULT_TENANT,
};
use janus_core::{Janus, PipelineArtifacts, PreparedDbm, COVERAGE_THRESHOLD};
use janus_obs::ewma::KeyedEwma;
use janus_obs::Recorder;
use janus_vm::Process;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Token granularity of the fair scheduler: 1 token ≈ 1 ms of estimated
/// service time (jobs with no estimate cost 1 token).
const NANOS_PER_TOKEN: u64 = 1_000_000;

/// One admitted-but-unstarted job, with the cost attributed to it at
/// admission time.
struct PendingJob {
    id: JobId,
    job: JobSpec,
    /// Deficit tokens the tenant pays to start this job.
    cost_tokens: u64,
    /// Service-time estimate at admission (0 when the model had none);
    /// tracked so the queue's aggregate backlog estimate stays consistent
    /// when the job leaves the queue.
    est_nanos: u64,
    /// When the job entered the queue; its queue wait (dequeue minus this)
    /// feeds the queue-wait histogram and the flight recorder.
    submitted: Instant,
}

/// One tenant's FIFO backlog plus its deficit-round-robin account. Entries
/// persist for the session's lifetime (an emptied tenant leaves the
/// scheduling ring but keeps its counters), so `/statusz` and the
/// per-tenant metric families cover every tenant that ever submitted.
struct TenantQueue {
    queue: VecDeque<PendingJob>,
    /// Accumulated tokens; a job starts only when the deficit covers its
    /// cost. Reset when the backlog empties (an idle tenant banks nothing).
    deficit: u64,
    /// Tokens granted per scheduler round ([`crate::TenantQuota::quantum`]).
    quantum: u64,
    /// The tenant's registered handles: its served / deadline counters are
    /// the SLO ledger, and its deficit / pending gauges are copied from the
    /// fields above at scrape time.
    meter: TenantMeter,
}

/// The submission queues and result store, guarded by one mutex.
#[derive(Default)]
struct QueueState {
    /// Per-tenant backlogs, keyed by tenant name.
    tenants: HashMap<Arc<str>, TenantQueue>,
    /// Round-robin ring of tenants with a non-empty backlog (each appears
    /// exactly once; the front tenant is visited next).
    ring: VecDeque<Arc<str>>,
    /// Total queued jobs across all tenants.
    pending_total: usize,
    /// Sum of the queued jobs' service-time estimates (deadline admission's
    /// backlog term).
    pending_est_nanos: u64,
    running: usize,
    next_id: u64,
    /// Dequeue counter; stamped onto [`JobReport::sequence`].
    dequeue_seq: u64,
    finished: BTreeMap<u64, Result<JobReport, ServeError>>,
}

impl QueueState {
    /// Pops the next job under deficit round robin: visit the front tenant
    /// of the ring, grant its quantum until the deficit covers the head
    /// job's cost (rotating between grants so other tenants are served in
    /// between), then charge the deficit and hand the job out. Returns the
    /// job, its dequeue sequence number and its submission instant.
    fn pop_next(&mut self) -> Option<(JobId, JobSpec, u64, Instant)> {
        if self.pending_total == 0 {
            return None;
        }
        loop {
            let tenant = self.ring.front()?.clone();
            let tq = self.tenants.get_mut(&tenant).expect("ring tenant exists");
            if tq.queue.is_empty() {
                tq.deficit = 0;
                self.ring.pop_front();
                continue;
            }
            let head_cost = tq.queue.front().expect("non-empty queue").cost_tokens;
            if tq.deficit < head_cost {
                tq.deficit += tq.quantum;
                self.ring.rotate_left(1);
                continue;
            }
            tq.deficit -= head_cost;
            tq.meter.served.inc();
            let pending = tq.queue.pop_front().expect("non-empty queue");
            if tq.queue.is_empty() {
                // Leave the ring (and bank nothing): the tenant re-enters
                // at the back on its next submission.
                tq.deficit = 0;
                self.ring.pop_front();
            } else {
                // One job per visit: rotate so equal-cost tenants
                // interleave instead of bursting a whole quantum.
                self.ring.rotate_left(1);
            }
            self.pending_total -= 1;
            self.pending_est_nanos = self.pending_est_nanos.saturating_sub(pending.est_nanos);
            let sequence = self.dequeue_seq;
            self.dequeue_seq += 1;
            return Some((pending.id, pending.job, sequence, pending.submitted));
        }
    }
}

/// Per-binary (and global) EWMA of observed service times, feeding both the
/// fair scheduler's token costs and deadline admission. The estimator math
/// lives in [`janus_obs::ewma`] — one recurrence shared with the DBM's
/// adaptive execution tuner, not two copies that could drift.
#[derive(Default)]
struct CostModel {
    state: Mutex<KeyedEwma<u64>>,
}

impl CostModel {
    fn observe(&self, digest: u64, nanos: u64) {
        self.state
            .lock()
            .expect("cost model poisoned")
            .observe(digest, nanos as f64);
    }

    /// The service-time estimate for `digest`: its own EWMA, falling back
    /// to the global EWMA, or `None` before any job has completed — the
    /// model never guesses without evidence.
    fn estimate(&self, digest: u64) -> Option<u64> {
        self.state
            .lock()
            .expect("cost model poisoned")
            .estimate(&digest)
            .map(|nanos| nanos as u64)
    }
}

/// Fingerprint of the pipeline configuration that shapes an artifact:
/// everything [`Janus::prepare`] consults when turning a binary into a
/// schedule (optimisation mode, thread count, speculation, coverage
/// threshold, training input). Disk entries are stamped with it so
/// sessions configured differently can share one store directory without
/// serving each other's schedules; the serialisation format versions are
/// enforced separately by the payload's own header.
fn config_fingerprint(janus: &Janus, train_input: &[i64]) -> u64 {
    fn mix(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let config = janus.config();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    hash = mix(hash, &(config.mode as u32).to_le_bytes());
    hash = mix(hash, &config.threads.to_le_bytes());
    hash = mix(hash, &[u8::from(config.speculation)]);
    hash = mix(hash, &COVERAGE_THRESHOLD.to_bits().to_le_bytes());
    for value in train_input {
        hash = mix(hash, &value.to_le_bytes());
    }
    hash
}

/// State shared between the handle, the worker threads and the telemetry
/// endpoint.
pub(crate) struct Shared {
    janus: Janus,
    config: ServeConfig,
    cache: ArtifactCache,
    cost_model: CostModel,
    /// The session's flight recorder ([`ServeConfig::trace`]); disabled by
    /// default, in which case every event site costs one branch.
    trace: Recorder,
    /// The session's counters and latency histograms, registered once at
    /// session start in the session's own registry. Each event is recorded
    /// here and nowhere else; [`ServeStats`] reads these handles.
    meter: ServeMeter,
    state: Mutex<QueueState>,
    /// Wakes workers when a job is queued (or shutdown begins).
    work_ready: Condvar,
    /// Wakes [`ServeHandle::join`] when a job finishes.
    job_done: Condvar,
    stop: AtomicBool,
    /// High-water mark of in-flight jobs, raised by `fetch_max` at
    /// admission; a scrape copies it into its gauge.
    max_in_flight_seen: AtomicU64,
}

/// One tenant's snapshot for the `/statusz` telemetry endpoint and the
/// per-tenant metric families: backlog, fair-scheduler account and
/// deadline SLO ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TenantSnapshot {
    /// The tenant's name ([`crate::DEFAULT_TENANT`] for unlabelled jobs).
    pub(crate) tenant: String,
    /// Jobs currently queued for this tenant.
    pub(crate) pending: u64,
    /// The tenant's current deficit-round-robin balance (tokens).
    pub(crate) deficit: u64,
    /// Tokens granted per scheduler round.
    pub(crate) quantum: u64,
    /// Jobs dequeued (started) for this tenant over the session.
    pub(crate) served: u64,
    /// Completed deadline-carrying jobs that finished within budget.
    pub(crate) deadline_hit: u64,
    /// Completed deadline-carrying jobs that overran.
    pub(crate) deadline_missed: u64,
}

impl Shared {
    /// The full [`ServeStats`] snapshot (see [`ServeHandle::stats`]).
    pub(crate) fn stats_snapshot(&self) -> ServeStats {
        let (pending, running) = {
            let state = self.state.lock().expect("serve queue poisoned");
            (state.pending_total as u64, state.running as u64)
        };
        let disk = self.cache.disk_store();
        let disk_stat = |get: fn(&ArtifactStore) -> u64| disk.map_or(0, get);
        let meter = &self.meter;
        ServeStats {
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_inflight_waits: self.cache.inflight_waits(),
            cache_evictions: self.cache.evictions(),
            cache_entries: self.cache.len() as u64,
            disk_hits: disk_stat(ArtifactStore::hits),
            disk_misses: disk_stat(ArtifactStore::misses),
            disk_corrupt: disk_stat(ArtifactStore::corrupt),
            disk_evicted_bytes: disk_stat(ArtifactStore::evicted_bytes),
            disk_entries: disk.map_or(0, |s| s.entries() as u64),
            jobs_submitted: meter.jobs_submitted.get(),
            jobs_completed: meter.jobs_completed.get(),
            jobs_failed: meter.jobs_failed.get(),
            jobs_rejected: meter.rejected_saturated.get(),
            jobs_deadline_rejected: meter.rejected_deadline.get(),
            jobs_quota_rejected: meter.rejected_quota.get(),
            jobs_deadline_hit: meter.deadline_hit.get(),
            jobs_deadline_missed: meter.deadline_missed.get(),
            jobs_pending: pending,
            jobs_running: running,
            max_in_flight_seen: self.max_in_flight_seen.load(Ordering::Relaxed),
            job_wall: meter.hist_job_wall.latency_stats(),
            job_queue_wait: meter.hist_queue_wait.latency_stats(),
            job_execute: meter.hist_execute.latency_stats(),
        }
    }

    /// Per-tenant snapshots, name-sorted.
    pub(crate) fn tenant_snapshots(&self) -> Vec<TenantSnapshot> {
        let state = self.state.lock().expect("serve queue poisoned");
        let mut out: Vec<TenantSnapshot> = state
            .tenants
            .iter()
            .map(|(name, tq)| TenantSnapshot {
                tenant: name.to_string(),
                pending: tq.queue.len() as u64,
                deficit: tq.deficit,
                quantum: tq.quantum,
                served: tq.meter.served.get(),
                deadline_hit: tq.meter.deadline_hit.get(),
                deadline_missed: tq.meter.deadline_missed.get(),
            })
            .collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// Re-samples the point-in-time gauges from their sources of truth.
    /// Called by the telemetry endpoint before every render, so a scrape
    /// always sees current occupancy without the hot path ever touching a
    /// gauge it does not own.
    pub(crate) fn refresh_gauges(&self) {
        let meter = &self.meter;
        let as_i64 = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        {
            let state = self.state.lock().expect("serve queue poisoned");
            meter.queue_depth.set(as_i64(state.pending_total as u64));
            meter.jobs_running.set(as_i64(state.running as u64));
            for tq in state.tenants.values() {
                tq.meter.deficit.set(as_i64(tq.deficit));
                tq.meter.pending.set(as_i64(tq.queue.len() as u64));
            }
        }
        meter
            .in_flight_max
            .set(as_i64(self.max_in_flight_seen.load(Ordering::Relaxed)));
        meter.cache_entries.set(as_i64(self.cache.len() as u64));
        if let Some(disk) = self.cache.disk_store() {
            meter.store_entries.set(as_i64(disk.entries() as u64));
            meter.store_bytes.set(as_i64(disk.total_bytes()));
        }
    }

    /// Bytes occupied by the disk store (0 when none is configured).
    pub(crate) fn disk_store_bytes(&self) -> u64 {
        self.cache
            .disk_store()
            .map_or(0, ArtifactStore::total_bytes)
    }

    /// The session's metrics sink (the telemetry endpoint renders it).
    pub(crate) fn meter(&self) -> &ServeMeter {
        &self.meter
    }

    /// The session's flight recorder (the telemetry endpoint's `/tracez`).
    pub(crate) fn recorder(&self) -> &Recorder {
        &self.trace
    }

    /// The session's configuration (saturation verdicts for `/healthz`).
    pub(crate) fn serve_config(&self) -> &ServeConfig {
        &self.config
    }

    /// Whether shutdown has begun.
    pub(crate) fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running serving session: worker pool plus submission interface.
///
/// Obtained from [`ServeSession::serve`](crate::ServeSession::serve). Jobs
/// go in through [`submit`](ServeHandle::submit); results come back from
/// [`join`](ServeHandle::join) in submission order. Dropping the handle (or
/// calling [`shutdown`](ServeHandle::shutdown)) stops the workers after
/// their current job; queued-but-unstarted jobs are abandoned, so call
/// [`join`](ServeHandle::join) first if every submitted job must finish.
pub struct ServeHandle {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The live telemetry endpoint ([`ServeConfig::telemetry_addr`]), shut
    /// down with the session.
    telemetry: Option<TelemetryServer>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("workers", &self.workers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ServeHandle {
    /// Starts a session: opens the persistent store when configured,
    /// allocates the artifact cache and spawns the worker pool.
    pub(crate) fn start(janus: Janus, config: ServeConfig) -> Result<ServeHandle, ServeError> {
        // One recorder spans the whole stack: the executor's job events,
        // the pipeline's analysis/schedule spans (via the session's Janus),
        // the execution backends' chunk/speculation events and the disk
        // store's write/quarantine/evict instants all land in one sink.
        let trace = config.trace.clone();
        let janus = janus.with_trace(trace.clone());
        let fingerprint = config_fingerprint(&janus, &config.train_input);
        // Metrics are always on, in the configured registry or a fresh one
        // this session owns. Registration happens here, once; every event
        // site after this is a relaxed atomic on a cached handle.
        let registry = config.metrics.clone().unwrap_or_default();
        let meter = ServeMeter::register(&registry);
        let mut cache = match &config.store_dir {
            Some(dir) => {
                let mut store = ArtifactStore::open(dir, config.store_max_bytes).map_err(|e| {
                    ServeError::Store {
                        reason: format!("{}: {e}", dir.display()),
                    }
                })?;
                store.set_recorder(trace.clone());
                store.set_meter(StoreMeter::register(&registry));
                ArtifactCache::with_disk_store(config.cache_capacity, Arc::new(store), fingerprint)
            }
            None => ArtifactCache::new(config.cache_capacity),
        };
        cache.set_meter(CacheMeter::register(&registry));
        let telemetry_addr = config.telemetry_addr.clone();
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            janus,
            config,
            cache,
            cost_model: CostModel::default(),
            trace,
            meter,
            state: Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            stop: AtomicBool::new(false),
            max_in_flight_seen: AtomicU64::new(0),
        });
        let telemetry = match telemetry_addr {
            Some(addr) => Some(
                TelemetryServer::start(&addr, shared.clone())
                    .map_err(|reason| ServeError::Telemetry { reason })?,
            ),
            None => None,
        };
        let workers = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("janus-serve-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn serving worker")
            })
            .collect();
        Ok(ServeHandle {
            shared,
            workers,
            telemetry,
        })
    }

    /// Submits one job. Admission control applies, in order: a full pending
    /// queue (or in-flight cap) rejects with [`ServeError::Saturated`]; a
    /// tenant over its [`TenantQuota::max_pending`](crate::TenantQuota::max_pending)
    /// rejects with [`ServeError::TenantSaturated`]; a
    /// [`deadline`](JobSpec::deadline) the cost model's evidence says cannot
    /// be met rejects with [`ServeError::DeadlineUnmeetable`]. Rejections
    /// are fail-fast — back off and resubmit.
    ///
    /// # Errors
    ///
    /// [`ServeError::Saturated`] / [`ServeError::TenantSaturated`] /
    /// [`ServeError::DeadlineUnmeetable`] as above, and
    /// [`ServeError::ShuttingDown`] after [`ServeHandle::shutdown`] began.
    pub fn submit(&self, job: JobSpec) -> Result<JobId, ServeError> {
        let shared = &self.shared;
        if shared.stop.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let tenant_name: Arc<str> = job.tenant.as_deref().unwrap_or(DEFAULT_TENANT).into();
        let quota = shared.config.quota_for(&tenant_name);
        let estimate = shared.cost_model.estimate(job.binary_digest);

        let mut state = shared.state.lock().expect("serve queue poisoned");
        let in_flight = state.pending_total + state.running;
        let limit = shared.config.effective_max_in_flight();
        if state.pending_total >= shared.config.queue_depth || in_flight >= limit {
            shared.meter.rejected_saturated.inc();
            if shared.trace.is_enabled() {
                shared.trace.instant(
                    "serve.job",
                    "job.reject",
                    &[
                        ("reason", "saturated".into()),
                        ("in_flight", in_flight.into()),
                        ("limit", limit.into()),
                    ],
                );
            }
            return Err(ServeError::Saturated { in_flight, limit });
        }
        let tenant_pending = state.tenants.get(&tenant_name).map_or(0, |t| t.queue.len());
        if quota.max_pending > 0 && tenant_pending >= quota.max_pending {
            shared.meter.rejected_quota.inc();
            if shared.trace.is_enabled() {
                shared.trace.instant(
                    "serve.job",
                    "job.reject",
                    &[
                        ("reason", "tenant-quota".into()),
                        ("tenant", tenant_name.as_ref().into()),
                        ("pending", tenant_pending.into()),
                    ],
                );
            }
            return Err(ServeError::TenantSaturated {
                tenant: tenant_name.to_string(),
                pending: tenant_pending,
                limit: quota.max_pending,
            });
        }
        if let (Some(deadline), Some(own_nanos)) = (job.deadline, estimate) {
            // Optimistic ETA: this job's own estimated service time plus
            // the queued backlog spread over the worker pool. Reject only
            // when even that optimistic bound blows the budget.
            let workers = shared.config.workers.max(1) as u64;
            let estimated_nanos = own_nanos + state.pending_est_nanos / workers;
            let budget_nanos = u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX);
            if estimated_nanos > budget_nanos {
                shared.meter.rejected_deadline.inc();
                if shared.trace.is_enabled() {
                    shared.trace.instant(
                        "serve.job",
                        "job.reject",
                        &[
                            ("reason", "deadline".into()),
                            ("estimated_nanos", estimated_nanos.into()),
                            ("budget_nanos", budget_nanos.into()),
                        ],
                    );
                }
                return Err(ServeError::DeadlineUnmeetable {
                    estimated_nanos,
                    budget_nanos,
                });
            }
        }

        let id = JobId(state.next_id);
        state.next_id += 1;
        let est_nanos = estimate.unwrap_or(0);
        let cost_tokens = (est_nanos / NANOS_PER_TOKEN).max(1);
        let tenant_queue =
            state
                .tenants
                .entry(tenant_name.clone())
                .or_insert_with(|| TenantQueue {
                    queue: VecDeque::new(),
                    deficit: 0,
                    quantum: quota.quantum.max(1),
                    meter: shared.meter.tenant(&tenant_name),
                });
        let was_empty = tenant_queue.queue.is_empty();
        tenant_queue.queue.push_back(PendingJob {
            id,
            job,
            cost_tokens,
            est_nanos,
            submitted: Instant::now(),
        });
        if was_empty {
            state.ring.push_back(tenant_name);
        }
        state.pending_total += 1;
        state.pending_est_nanos += est_nanos;
        shared.meter.jobs_submitted.inc();
        shared
            .max_in_flight_seen
            .fetch_max(in_flight as u64 + 1, Ordering::Relaxed);
        drop(state);
        shared.work_ready.notify_one();
        Ok(id)
    }

    /// Waits until every submitted job has finished and drains their
    /// outcomes, ordered by [`JobId`] (= submission order). Jobs submitted
    /// concurrently with the wait are waited for too; outcomes are returned
    /// once, so alternating `submit`/`join` rounds each get their own
    /// results.
    #[must_use]
    pub fn join(&self) -> Vec<JobOutcome> {
        let shared = &self.shared;
        let mut state = shared.state.lock().expect("serve queue poisoned");
        while state.running > 0 || state.pending_total > 0 {
            state = shared.job_done.wait(state).expect("serve queue poisoned");
        }
        std::mem::take(&mut state.finished)
            .into_iter()
            .map(|(id, result)| (JobId(id), result))
            .collect()
    }

    /// Snapshots the session's counters: cache hit/miss/in-flight/eviction,
    /// disk-store traffic, job admission and completion, deadline SLO
    /// outcomes, and the in-flight high-water mark.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.stats_snapshot()
    }

    /// The telemetry endpoint's bound address (useful with an ephemeral
    /// `"host:0"` [`ServeConfig::telemetry_addr`]); `None` when no endpoint
    /// was configured.
    #[must_use]
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.telemetry.as_ref().map(TelemetryServer::local_addr)
    }

    /// The session's flight recorder ([`ServeConfig::trace`]) — the same
    /// handle that was installed into the pipeline and store, so exporting
    /// from it yields the whole stack's events. Disabled (and empty) unless
    /// the config supplied an enabled recorder.
    #[must_use]
    pub fn trace(&self) -> &Recorder {
        &self.shared.trace
    }

    /// Stops the session: workers finish their current job and exit, then
    /// the final statistics snapshot is returned. Call
    /// [`join`](ServeHandle::join) first to let queued jobs drain.
    #[must_use]
    pub fn shutdown(mut self) -> ServeStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(telemetry) = self.telemetry.take() {
            telemetry.shutdown();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One worker: pop the fair scheduler's next job, resolve its artifact,
/// execute, publish the result and feed the cost model.
fn worker_loop(shared: &Shared, index: usize) {
    if shared.trace.is_enabled() {
        shared
            .trace
            .set_thread_track(&format!("janus-serve-{index}"));
    }
    loop {
        let (id, job, sequence, submitted) = {
            let mut state = shared.state.lock().expect("serve queue poisoned");
            loop {
                // Stop is checked before popping so shutdown abandons
                // queued-but-unstarted jobs after at most one in-progress
                // job per worker, as the handle documents — `join` first if
                // the queue must drain.
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(next) = state.pop_next() {
                    state.running += 1;
                    break next;
                }
                state = shared.work_ready.wait(state).expect("serve queue poisoned");
            }
        };
        // Queue wait is measured from the submission instant whether or not
        // tracing is on (the histogram backs `ServeStats`); the async span —
        // which may overlap this worker's own job span — only when it is.
        let wait_nanos = u64::try_from(submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.meter.hist_queue_wait.record(wait_nanos);
        if shared.trace.is_enabled() {
            let end = shared.trace.now_nanos();
            shared.trace.async_span(
                "serve.job",
                "queue.wait",
                end.saturating_sub(wait_nanos),
                end,
                &[
                    ("job", id.0.into()),
                    (
                        "tenant",
                        job.tenant.as_deref().unwrap_or(DEFAULT_TENANT).into(),
                    ),
                ],
            );
        }
        let result = run_job(shared, id, &job, sequence);
        if result.is_err() {
            shared.meter.jobs_failed.inc();
        }
        shared.meter.jobs_completed.inc();
        // Deadline SLO attainment, judged on the latency the submitter
        // experienced: submission through completion. Admission promised
        // nothing it could not keep; here is where the promise is audited.
        let deadline_outcome = job.deadline.map(|deadline| submitted.elapsed() <= deadline);
        match deadline_outcome {
            Some(true) => shared.meter.deadline_hit.inc(),
            Some(false) => shared.meter.deadline_missed.inc(),
            None => {}
        }
        {
            let mut state = shared.state.lock().expect("serve queue poisoned");
            state.running -= 1;
            if let Some(hit) = deadline_outcome {
                let tenant = job.tenant.as_deref().unwrap_or(DEFAULT_TENANT);
                if let Some(tq) = state.tenants.get(tenant) {
                    if hit {
                        tq.meter.deadline_hit.inc();
                    } else {
                        tq.meter.deadline_missed.inc();
                    }
                }
            }
            state.finished.insert(id.0, result);
        }
        shared.job_done.notify_all();
    }
}

/// Resolves the job's artifact through the two-tier cache — hydrating a
/// persisted pipeline on a disk hit, running the full pipeline (exactly
/// once per digest) on a disk miss — and executes the job against it with
/// the session configuration plus per-job overrides.
fn run_job(
    shared: &Shared,
    id: JobId,
    job: &JobSpec,
    sequence: u64,
) -> Result<JobReport, ServeError> {
    let digest = job.binary_digest;
    let trace = &shared.trace;
    // The job clock covers artifact resolution too, so first-submission
    // build latency (and gate waits) show up in the wall-time distribution.
    let start = Instant::now();
    let mut job_span = trace
        .span("serve.job", "job")
        .arg("job", id.0)
        .arg("tenant", job.tenant.as_deref().unwrap_or(DEFAULT_TENANT))
        .arg("digest", format!("{digest:#018x}"));
    let build_error = |reason: String| ServeError::Build { digest, reason };
    let artifact_of = |pipeline: PipelineArtifacts| {
        let process = Process::load(&job.binary).map_err(|e| build_error(e.to_string()))?;
        let prepared = PreparedDbm::new(process, &pipeline.schedule, shared.janus.dbm_config());
        Ok(Artifact::new(pipeline, prepared))
    };
    let hydrate = |pipeline| {
        let _span = trace
            .span("serve.job", "disk.hydrate")
            .arg("digest", format!("{digest:#018x}"));
        artifact_of(pipeline)
    };
    let artifact = {
        let _span = trace
            .span("serve.job", "cache.probe")
            .arg("digest", format!("{digest:#018x}"));
        shared.cache.get_or_build(digest, hydrate, || {
            let pipeline = shared
                .janus
                .prepare(&job.binary, &shared.config.train_input)
                .map_err(|e| build_error(e.to_string()))?;
            artifact_of(pipeline)
        })
    }?;

    let mut config = shared.janus.dbm_config();
    if let Some(threads) = job.threads {
        config.threads = threads;
    }
    if let Some(backend) = job.backend {
        config.backend = backend;
    }

    let exec_start = Instant::now();
    let run = {
        let _span = trace
            .span("serve.job", "execute")
            .arg("backend", format!("{:?}", config.backend))
            .arg("threads", config.threads);
        artifact.prepared.execute_traced(&job.input, config, trace)
    }
    .inspect(|run| shared.meter.dbm.record_run(config.backend, &run.stats))
    .inspect_err(|_| shared.meter.dbm.record_failure(config.backend))
    .map_err(ServeError::Execution)?;
    let exec_nanos = u64::try_from(exec_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    shared.meter.hist_execute.record(exec_nanos);
    let wall_nanos = start.elapsed().as_nanos() as u64;
    shared.meter.hist_job_wall.record(wall_nanos);
    job_span.push_arg("cycles", run.cycles);
    shared.cost_model.observe(digest, wall_nanos);
    Ok(JobReport {
        id,
        tenant: job
            .tenant
            .clone()
            .unwrap_or_else(|| DEFAULT_TENANT.to_string()),
        sequence,
        binary_digest: digest,
        schedule_digest: artifact.schedule_digest,
        backend: config.backend,
        threads: config.threads,
        exit_code: run.exit_code,
        cycles: run.cycles,
        output_ints: run.output_ints,
        output_floats: run.output_floats,
        memory_digest: run.memory_digest,
        stats: run.stats,
        wall_nanos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Disk entries are stamped with the fingerprint, so a default session
    /// must compute the one earlier releases stamped their entries with.
    #[test]
    fn the_default_fingerprint_is_unchanged() {
        let fingerprint = config_fingerprint(&Janus::default(), &[]);
        assert_eq!(fingerprint, 0xc6fa_384c_b7f3_86cb);
    }
}
