//! The racing worker pool: Block-STM speculation across real OS threads.
//!
//! Where [`crate::run_speculative`] drives the execution/validation task
//! machine from one coordinator in deterministic virtual time, this engine
//! spawns one worker per lane (`std::thread::scope`) and lets the workers
//! *race*: each pulls the next task from the shared atomic [`Scheduler`],
//! executes incarnations against the shared [`MvMemory`] through a
//! [`SpecView`] over the read-only base image, validates lazily, and
//! converts aborted incarnations' writes to estimates — exactly the
//! `block-stm-revm` shape.
//!
//! Two things differ from the deterministic engine, both deliberate:
//!
//! * **Visibility is real, not virtual-time-gated.** Workers read the store
//!   at `now = u64::MAX`: an incarnation observes everything recorded so
//!   far, so which executions conflict depends on the actual interleaving
//!   the OS produced. The *converged result* does not: Block-STM's
//!   correctness argument (validation against the multi-version store,
//!   lowest-iteration-first task order, estimates for aborted writes) makes
//!   the final image equal the serial execution's image on every schedule.
//! * **Counters are diagnostics, not figures.** Abort/retry/validation
//!   counts describe the race that happened and vary run to run. The
//!   modelled, backend-invariant numbers reported in figures come from the
//!   deterministic engine, which `janus-dbm` runs *instead of* this pool
//!   wherever such numbers are consumed; the pool is the raced-image commit
//!   mode's engine.
//!
//! Faults on speculative state are retried (a failed execution either blocks
//! on the estimate it read or is re-dispatched as the next incarnation); a
//! fault that survives several consecutive retries with every lower
//! iteration observed validated is reported as a genuine guest fault
//! ([`SpecError::Body`]), and pathologically dependent loops exhaust the
//! task budget ([`SpecError::AbortLimit`]) — either way the caller can fall
//! back to the deterministic path, which classifies faults exactly.

use crate::engine::{validate, IterData, IterationRun};
use crate::mv::{MvMemory, ViewBuffers};
use crate::scheduler::{Scheduler, Task};
use crate::{SpecConfig, SpecError, SpecStats, SpecView};
use janus_obs::Recorder;
use janus_vm::PeekMemory;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-iteration slot shared between racing workers: the latest completed
/// incarnation's read set and payload, plus the run of consecutive
/// incarnations that faulted with no identifiable blocking iteration (see
/// the fault-classification comment in [`run_speculative_pooled`]).
struct IterSlot<P> {
    data: IterData<P>,
    fault_streak: u32,
}

impl<P> Default for IterSlot<P> {
    fn default() -> Self {
        IterSlot {
            data: IterData::default(),
            fault_streak: 0,
        }
    }
}

/// Consecutive no-dependency faults of one iteration before the pool calls
/// the fault genuine. Racing interleavings can make a *speculative* fault
/// look consistent (the lower-iteration scan is not an atomic snapshot), but
/// each extra incarnation re-executes over fresher state, so a fault that
/// survives several consecutive retries is a real guest fault — while a
/// conflict-artifact fault converges and resets the streak.
const MAX_FAULT_STREAK: u32 = 3;

/// The result of one successful pooled (racing) speculative invocation.
///
/// Nothing has been written to base memory: the caller applies
/// [`PooledOutcome::image`].
pub struct PooledOutcome<P> {
    /// The race's own counters. **Nondeterministic**: which incarnations
    /// conflicted depends on the OS schedule. Useful as diagnostics; the
    /// figures use the deterministic engine's counters instead.
    pub stats: SpecStats,
    /// The serial-equivalent final memory image, sorted by word address.
    pub image: Vec<(u64, u64)>,
    /// The payload of each iteration's validated incarnation, in iteration
    /// order.
    pub payloads: Vec<P>,
    /// OS worker threads the pool spawned.
    pub threads_used: usize,
    /// Estimate markers still live in the store after convergence. Always 0
    /// on success (every aborted incarnation re-executed and re-recorded);
    /// exposed so tests can assert the invariant.
    pub live_estimates: u64,
}

impl<P> std::fmt::Debug for PooledOutcome<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledOutcome")
            .field("stats", &self.stats)
            .field("image", &self.image.len())
            .field("payloads", &self.payloads.len())
            .field("threads_used", &self.threads_used)
            .field("live_estimates", &self.live_estimates)
            .finish()
    }
}

/// The race's diagnostic counters, shared by reference across workers and
/// folded into a [`SpecStats`] once the pool joins. One struct so the stat
/// surface lives in one place: adding a counter means one field here, one
/// `fetch_add` site and one line in [`RaceCounters::into_stats`].
#[derive(Default)]
struct RaceCounters {
    executions: AtomicU64,
    aborts: AtomicU64,
    validations: AtomicU64,
    estimate_stalls: AtomicU64,
    faults_retried: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    max_incarnation: AtomicU32,
}

impl RaceCounters {
    fn into_stats(self, iterations: u64, versioned_words: u64) -> SpecStats {
        SpecStats {
            iterations,
            executions: self.executions.into_inner(),
            aborts: self.aborts.into_inner(),
            validations: self.validations.into_inner(),
            estimate_stalls: self.estimate_stalls.into_inner(),
            faults_retried: self.faults_retried.into_inner(),
            reads: self.reads.into_inner(),
            writes: self.writes.into_inner(),
            max_incarnation: self.max_incarnation.into_inner(),
            versioned_words,
        }
    }
}

/// Shared abort signal: the first worker to hit an error publishes it and
/// stops the pool.
struct Poison<E> {
    stop: AtomicBool,
    error: Mutex<Option<SpecError<E>>>,
}

impl<E> Poison<E> {
    fn new() -> Self {
        Poison {
            stop: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    fn set(&self, e: SpecError<E>) {
        let mut slot = self.error.lock().expect("poison slot");
        if slot.is_none() {
            *slot = Some(e);
        }
        self.stop.store(true, Ordering::SeqCst);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Runs `iterations` speculative loop iterations over the shared read-only
/// `base` image, racing incarnations across `threads` OS worker threads.
///
/// `body` executes one incarnation of one iteration against the supplied
/// [`SpecView`]; it is called concurrently from many threads and must be
/// `Fn + Sync`. The base is only ever read — apply the returned image to
/// commit.
///
/// With an enabled `recorder` each worker registers a `spec-worker-N` track
/// and every incarnation emits `spec.execute`/`spec.validate` spans plus
/// `spec.abort`/`spec.retry` instants (category `spec.pool`); pass
/// [`Recorder::disabled`] for an untraced run, where every recording call
/// is one branch.
///
/// # Errors
///
/// Returns [`SpecError::Body`] when an iteration faults on consistent state
/// (iteration 0 immediately — it can never read speculative state — and any
/// other iteration after its fault survives several consecutive retries with
/// every lower iteration observed validated), and [`SpecError::AbortLimit`]
/// when the task budget is exhausted — pathologically dependent loops; the
/// caller should fall back to a deterministic path.
pub fn run_speculative_pooled<M, P, E, F>(
    config: &SpecConfig,
    threads: usize,
    base: &M,
    iterations: usize,
    body: F,
    recorder: &Recorder,
) -> Result<PooledOutcome<P>, SpecError<E>>
where
    M: PeekMemory + Sync,
    P: Send,
    E: Send,
    F: Fn(usize, &mut SpecView<'_, M>) -> Result<IterationRun<P>, E> + Sync,
{
    if iterations == 0 {
        return Ok(PooledOutcome {
            stats: SpecStats::default(),
            image: Vec::new(),
            payloads: Vec::new(),
            threads_used: 0,
            live_estimates: 0,
        });
    }
    let workers = threads.clamp(1, iterations);

    let mv = MvMemory::new(iterations);
    let sched = Scheduler::new(iterations);
    let slots: Vec<Mutex<IterSlot<P>>> = (0..iterations).map(|_| Mutex::default()).collect();
    let poison: Poison<E> = Poison::new();

    // The racing pool burns more tasks than the deterministic engine (stale
    // validations, premature wakeups), so its budget scales with the worker
    // count on top of the per-iteration factor.
    let max_tasks = (iterations as u64)
        .saturating_mul(u64::from(config.max_task_factor.max(2)))
        .saturating_mul(workers as u64)
        .saturating_add(64);
    let tasks = AtomicU64::new(0);
    // Wedge detection: a worker that finds no task spin-yields, but only
    // *consecutive* empty polls during which the global task counter also
    // stood still count towards the limit — a long mostly-serial stretch
    // (one worker busy, the rest idle) keeps resetting the count and must
    // not poison a healthy invocation. If the limit is ever hit the pool is
    // making no progress at all; give up rather than hang (the caller's
    // deterministic fallback still produces a result).
    const MAX_STALLED_POLLS: u64 = 10_000_000;

    let counters = RaceCounters::default();

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let mv = &mv;
            let sched = &sched;
            let slots = &slots;
            let poison = &poison;
            let body = &body;
            let tasks = &tasks;
            let c = &counters;
            let rec = recorder;
            scope.spawn(move || {
                if rec.is_enabled() {
                    rec.set_thread_track(&format!("spec-worker-{worker}"));
                }
                let mut stalled_polls = 0u64;
                let mut last_seen_tasks = u64::MAX;
                let mut buffers = ViewBuffers::default();
                while !poison.stopped() && !sched.done() {
                    let Some(task) = sched.next_task() else {
                        let seen = tasks.load(Ordering::Relaxed);
                        if seen != last_seen_tasks {
                            last_seen_tasks = seen;
                            stalled_polls = 0;
                        } else {
                            stalled_polls += 1;
                            if stalled_polls > MAX_STALLED_POLLS {
                                poison.set(SpecError::AbortLimit {
                                    iterations,
                                    tasks: seen,
                                });
                            }
                        }
                        std::thread::yield_now();
                        continue;
                    };
                    stalled_polls = 0;
                    if tasks.fetch_add(1, Ordering::Relaxed) >= max_tasks {
                        poison.set(SpecError::AbortLimit {
                            iterations,
                            tasks: max_tasks,
                        });
                        break;
                    }
                    match task {
                        Task::Execution {
                            iteration,
                            incarnation,
                        } => {
                            // Real Block-STM visibility: see everything
                            // recorded so far.
                            let mut span = rec
                                .span("spec.pool", "spec.execute")
                                .arg("iteration", iteration)
                                .arg("incarnation", incarnation);
                            let mut view =
                                SpecView::new(base, mv, iteration, u64::MAX, &mut buffers);
                            match body(iteration, &mut view) {
                                Ok(run) => {
                                    let (blocked, vs) = (view.blocked_on(), view.stats());
                                    c.reads.fetch_add(vs.reads, Ordering::Relaxed);
                                    c.writes.fetch_add(vs.writes, Ordering::Relaxed);
                                    let _ = run.cycles; // wall-clock substrate: no virtual charge
                                    if let Some(on) = blocked {
                                        c.estimate_stalls.fetch_add(1, Ordering::Relaxed);
                                        c.aborts.fetch_add(1, Ordering::Relaxed);
                                        span.push_arg("outcome", "estimate-stall");
                                        rec.instant(
                                            "spec.pool",
                                            "spec.abort",
                                            &[
                                                ("iteration", iteration.into()),
                                                ("blocked_on", on.into()),
                                                ("reason", "estimate-stall".into()),
                                            ],
                                        );
                                        sched.abort_on_dependency(iteration, on);
                                    } else {
                                        c.executions.fetch_add(1, Ordering::Relaxed);
                                        c.max_incarnation.fetch_max(incarnation, Ordering::Relaxed);
                                        span.push_arg("outcome", "ok");
                                        let changed = mv.record(
                                            iteration,
                                            incarnation,
                                            buffers.writes.iter().map(|(w, v)| (w, v)),
                                            0,
                                        );
                                        {
                                            let mut slot = slots[iteration]
                                                .lock()
                                                .expect("iteration slot poisoned");
                                            slot.data.store(&buffers, run.payload);
                                            slot.fault_streak = 0;
                                        }
                                        sched.finish_execution(iteration, changed);
                                    }
                                }
                                Err(e) => {
                                    span.push_arg("outcome", "fault");
                                    // Fault classification under racing. A
                                    // fault on inconsistent speculative state
                                    // is a conflict artifact and must be
                                    // retried; a fault on consistent state is
                                    // a genuine guest fault. Iteration 0
                                    // never reads speculative state (no lower
                                    // versions exist and the base is
                                    // immutable), so its faults are genuine
                                    // immediately. For higher iterations no
                                    // scan of the lower statuses is an atomic
                                    // snapshot — "all below validated" can be
                                    // observed without ever holding
                                    // simultaneously — so instead of trusting
                                    // one racy observation, the iteration is
                                    // retried and only a fault that survives
                                    // MAX_FAULT_STREAK consecutive
                                    // incarnations (each over fresher state,
                                    // with every lower iteration observed
                                    // validated) is reported as the body's.
                                    match sched.highest_unvalidated_below(iteration) {
                                        Some(dep) => {
                                            c.aborts.fetch_add(1, Ordering::Relaxed);
                                            c.faults_retried.fetch_add(1, Ordering::Relaxed);
                                            rec.instant(
                                                "spec.pool",
                                                "spec.retry",
                                                &[
                                                    ("iteration", iteration.into()),
                                                    ("blocked_on", dep.into()),
                                                    ("reason", "speculative-fault".into()),
                                                ],
                                            );
                                            sched.abort_on_dependency(iteration, dep);
                                        }
                                        None => {
                                            let streak = {
                                                let mut slot = slots[iteration]
                                                    .lock()
                                                    .expect("iteration slot poisoned");
                                                slot.fault_streak += 1;
                                                slot.fault_streak
                                            };
                                            if iteration == 0 || streak >= MAX_FAULT_STREAK {
                                                rec.instant(
                                                    "spec.pool",
                                                    "spec.abort",
                                                    &[
                                                        ("iteration", iteration.into()),
                                                        ("reason", "genuine-fault".into()),
                                                    ],
                                                );
                                                poison.set(SpecError::Body(e));
                                            } else {
                                                c.aborts.fetch_add(1, Ordering::Relaxed);
                                                c.faults_retried.fetch_add(1, Ordering::Relaxed);
                                                rec.instant(
                                                    "spec.pool",
                                                    "spec.retry",
                                                    &[
                                                        ("iteration", iteration.into()),
                                                        ("streak", streak.into()),
                                                        ("reason", "consistent-fault".into()),
                                                    ],
                                                );
                                                sched.abort_and_retry(iteration);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        Task::Validation {
                            iteration,
                            incarnation,
                        } => {
                            c.validations.fetch_add(1, Ordering::Relaxed);
                            let mut span = rec
                                .span("spec.pool", "spec.validate")
                                .arg("iteration", iteration)
                                .arg("incarnation", incarnation);
                            // Epoch first, then the reads: if a lower
                            // iteration re-records between the snapshot and
                            // the verdict, `finish_validation_ok` rejects
                            // the stale pass and the lowered validation
                            // frontier re-delivers the task.
                            let epoch = sched.validation_epoch(iteration);
                            let ok = {
                                let slot =
                                    slots[iteration].lock().expect("iteration slot poisoned");
                                validate(mv, base, iteration, &slot.data.reads)
                            };
                            span.push_arg("ok", ok);
                            if ok {
                                let _ = sched.finish_validation_ok(iteration, incarnation, epoch);
                            } else if sched.try_validation_abort(iteration, incarnation) {
                                c.aborts.fetch_add(1, Ordering::Relaxed);
                                rec.instant(
                                    "spec.pool",
                                    "spec.abort",
                                    &[
                                        ("iteration", iteration.into()),
                                        ("reason", "validation-fail".into()),
                                    ],
                                );
                                // Estimates must be in place before the next
                                // incarnation can be claimed.
                                mv.convert_writes_to_estimates(iteration, 0);
                                sched.finish_abort(iteration);
                            }
                            // A stale task (the iteration re-executed since
                            // the pop) is simply dropped: the re-execution
                            // lowered the validation frontier, so a fresh
                            // task exists.
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = poison.error.lock().expect("poison slot").take() {
        return Err(e);
    }
    debug_assert!(sched.done());

    let image = mv.final_image();
    let live_estimates = mv.live_estimates();
    let stats = counters.into_stats(iterations as u64, image.len() as u64);
    let payloads: Vec<P> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("iteration slot poisoned")
                .data
                .payload
                .expect("validated iteration has a payload")
        })
        .collect();
    Ok(PooledOutcome {
        stats,
        image,
        payloads,
        threads_used: workers,
        live_estimates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_vm::{FlatMemory, GuestMemory};

    fn cfg() -> SpecConfig {
        SpecConfig::default()
    }

    /// Disjoint iterations over 4 real threads: full parallelism, serial
    /// image.
    #[test]
    fn disjoint_iterations_converge_without_aborts() {
        let mut base = FlatMemory::new();
        for i in 0..64u64 {
            base.write_u64(0x1000 + i * 8, i);
        }
        let out = run_speculative_pooled(
            &cfg(),
            4,
            &base,
            64,
            |i, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
                let addr = 0x1000 + i as u64 * 8;
                let v = view.read_u64(addr);
                view.write_u64(addr, v + 1);
                Ok(IterationRun {
                    cycles: 100,
                    payload: i,
                })
            },
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(out.threads_used, 4);
        assert_eq!(out.live_estimates, 0);
        assert_eq!(out.payloads, (0..64).collect::<Vec<_>>());
        let mut committed = base.clone();
        for &(w, v) in &out.image {
            committed.write_u64(w, v);
        }
        for i in 0..64u64 {
            assert_eq!(committed.read_u64(0x1000 + i * 8), i + 1);
        }
    }

    /// Regression test for the lost-`fetch_min` wedge: a bounded validation
    /// scan that *stores* the frontier forward after checking it overwrites
    /// a concurrent `finish_execution`'s `fetch_min`, the last iteration's
    /// validation task is never re-delivered, and every worker spins until
    /// the stall limit poisons the pool with `AbortLimit` (seconds per
    /// invocation). Conflict-free work across four workers must converge
    /// every time.
    #[test]
    fn conflict_free_pool_never_wedges_on_the_validation_frontier() {
        let base = FlatMemory::new();
        for round in 0..50 {
            let out = run_speculative_pooled(
                &cfg(),
                4,
                &base,
                4096,
                |i, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
                    view.write_u64(0x1000 + i as u64 * 8, i as u64);
                    Ok(IterationRun {
                        cycles: 1,
                        payload: (),
                    })
                },
                &Recorder::disabled(),
            );
            let out = out.unwrap_or_else(|e| panic!("round {round}: the pool gave up: {e:?}"));
            assert_eq!(out.stats.aborts, 0, "round {round}");
            assert_eq!(out.image.len(), 4096, "round {round}");
        }
    }

    /// A fully dependent chain raced across threads still converges to the
    /// serial result — the core Block-STM guarantee under real
    /// nondeterminism.
    #[test]
    fn dependent_chain_converges_to_serial_under_racing() {
        for _ in 0..4 {
            let mut base = FlatMemory::new();
            base.write_u64(0x2000, 0);
            let out = run_speculative_pooled(
                &cfg(),
                4,
                &base,
                32,
                |_i, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
                    let v = view.read_u64(0x2000);
                    view.write_u64(0x2000, v + 1);
                    Ok(IterationRun {
                        cycles: 10,
                        payload: (),
                    })
                },
                &Recorder::disabled(),
            )
            .unwrap();
            assert_eq!(out.live_estimates, 0);
            assert_eq!(
                out.image
                    .iter()
                    .find(|(w, _)| *w == 0x2000)
                    .map(|(_, v)| *v),
                Some(32),
                "serial-equivalent result"
            );
        }
    }

    /// A body that faults on iteration 0 — consistent state by definition —
    /// surfaces as a genuine error (or, in an unlucky racing interleaving,
    /// as a budget abort; never as a wrong answer).
    #[test]
    fn fault_on_first_iteration_is_an_error() {
        let base = FlatMemory::new();
        let result = run_speculative_pooled(
            &cfg(),
            2,
            &base,
            4,
            |i, _view: &mut SpecView<'_, FlatMemory>| -> Result<IterationRun<()>, &'static str> {
                if i == 0 {
                    Err("boom")
                } else {
                    Ok(IterationRun {
                        cycles: 1,
                        payload: (),
                    })
                }
            },
            &Recorder::disabled(),
        );
        match result {
            Err(SpecError::Body("boom")) | Err(SpecError::AbortLimit { .. }) => {}
            other => panic!("expected an error, got {other:?}"),
        }
    }

    /// Zero iterations are a no-op.
    #[test]
    fn empty_invocation_is_trivial() {
        let base = FlatMemory::new();
        let out = run_speculative_pooled(
            &cfg(),
            4,
            &base,
            0,
            |_, _: &mut SpecView<'_, FlatMemory>| -> Result<IterationRun<()>, ()> {
                unreachable!()
            },
            &Recorder::disabled(),
        )
        .unwrap();
        assert!(out.image.is_empty());
        assert_eq!(out.threads_used, 0);
    }
}
