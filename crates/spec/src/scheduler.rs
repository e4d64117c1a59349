//! The collaborative scheduler: Block-STM's execution/validation task state
//! machine, shareable across OS worker threads, plus the virtual worker
//! lanes that account every task in virtual time.
//!
//! ## Thread safety
//!
//! Every method takes `&self`: the two task frontiers are atomics
//! (lowered with `fetch_min` when aborts invalidate downstream work) and
//! each iteration's `(incarnation, status, dependents)` sits behind its own
//! [`Mutex`] — the shape of `block-stm-revm`'s atomic scheduler. Driven from
//! a single thread the task sequence is bit-identical to the original
//! sequential scheduler (kept as the test-only `reference` model and
//! compared task for task), which keeps the deterministic virtual-time
//! engine reproducible; driven from many threads, transitions are
//! serialised per iteration and stale tasks are rejected by incarnation
//! checks.
//!
//! ## The lost-wakeup window
//!
//! The racing pool resurfaces a classic Block-STM hazard the sequential
//! driver never hit: iteration *i* reads *j*'s estimate and goes to sleep on
//! *j* while, concurrently, *j* finishes re-executing and drains its
//! dependents — if *i* enqueues itself after the drain, nobody ever wakes it.
//! [`Scheduler::abort_on_dependency`] therefore (a) marks *i* `Aborting`
//! *before* inspecting *j*, and (b) inspects *j*'s status and appends to
//! *j*'s dependency list while holding *j*'s status lock, the same lock
//! under which [`Scheduler::finish_execution`] publishes `Executed` and
//! drains. Either the enqueue happens before the status flip (the drain sees
//! it) or after (the enqueue sees `Executed` and resumes *i* immediately);
//! there is no in-between. The regression test
//! `dependency_resuming_between_finish_and_repop_is_not_lost` pins the
//! interleaving.

use crate::mv::{Incarnation, Iteration};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

#[cfg(test)]
mod reference;

/// Lifecycle of one iteration's current incarnation.
///
/// ```text
/// ReadyToExecute(i) -> Executing(i) -> Executed(i) -> Validated(i)
///        ^                  |               |
///        |   (estimate read)|    (validation failure)
///        +--- Aborting <----+---------------+
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The next incarnation may be dispatched.
    ReadyToExecute,
    /// An incarnation is executing.
    Executing,
    /// The latest incarnation finished and recorded its writes.
    Executed,
    /// The latest incarnation passed (lazy) validation.
    Validated,
    /// The incarnation was aborted and waits for a blocking iteration to
    /// re-execute before it is re-dispatched.
    Aborting,
}

/// A unit of work dispatched to a (virtual or OS-thread) worker lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Execute the named incarnation.
    Execution {
        /// Iteration to execute.
        iteration: Iteration,
        /// Incarnation number being dispatched.
        incarnation: Incarnation,
    },
    /// Validate the read set of the named iteration's latest incarnation.
    Validation {
        /// Iteration to validate.
        iteration: Iteration,
        /// Incarnation that was current when the task was popped; racing
        /// validators use it to reject the task if the iteration has been
        /// aborted and re-executed in the meantime.
        incarnation: Incarnation,
    },
}

#[derive(Debug)]
struct IterState {
    incarnation: Incarnation,
    status: Status,
    /// Bumped every time a *lower* iteration re-records or aborts (the
    /// demote sweep passes over this iteration): a racing validator that
    /// began before the bump validated against superseded multi-version
    /// state, and its verdict must not be allowed to stick. See
    /// [`Scheduler::finish_validation_ok`].
    revalidation_epoch: u64,
    /// Iterations blocked on an estimate this iteration wrote. Guarded by
    /// the status lock, which is what closes the lost-wakeup window (see the
    /// module docs).
    dependents: Vec<Iteration>,
}

/// The collaborative scheduler (see the module docs for the concurrency
/// story).
///
/// Mirrors Block-STM's two shared counters: `execution_idx` is the next
/// iteration to consider for execution, `validation_idx` the next to consider
/// for validation; both are lowered when aborts invalidate downstream work.
/// Lower-indexed tasks are always preferred, and validation is preferred over
/// execution at equal depth, exactly like the reference scheduler.
///
/// ## Cost
///
/// An iteration that was never dispatched is `ReadyToExecute` at incarnation
/// 0, so nothing at or above the dispatch high-water mark can be `Executed`
/// or `Validated`. Both frontier operations stop there — the validation
/// scan returns before claiming an index, the demote sweep never walks the
/// untouched tail — which makes one invocation O(iterations + aborts x
/// in-flight window) instead of O(iterations^2).
#[derive(Debug)]
pub struct Scheduler {
    states: Vec<Mutex<IterState>>,
    execution_idx: AtomicUsize,
    /// Only ever raised by the `fetch_add` that claims an index to examine
    /// and lowered by `fetch_min`. Never stored to after a check: a racing
    /// `finish_execution`'s `fetch_min` between the check and the store
    /// would be overwritten, and its validation task lost for good.
    validation_idx: AtomicUsize,
    /// One past the highest iteration ever dispatched.
    dispatched: AtomicUsize,
    validated: AtomicUsize,
    /// Iteration-state visits (locks taken), for the complexity test.
    #[cfg(test)]
    visits: AtomicUsize,
}

impl Scheduler {
    /// A scheduler over `n` iterations, all ready for their first incarnation.
    #[must_use]
    pub fn new(n: usize) -> Scheduler {
        Scheduler {
            states: (0..n)
                .map(|_| {
                    Mutex::new(IterState {
                        incarnation: 0,
                        status: Status::ReadyToExecute,
                        revalidation_epoch: 0,
                        dependents: Vec::new(),
                    })
                })
                .collect(),
            execution_idx: AtomicUsize::new(0),
            validation_idx: AtomicUsize::new(0),
            dispatched: AtomicUsize::new(0),
            validated: AtomicUsize::new(0),
            #[cfg(test)]
            visits: AtomicUsize::new(0),
        }
    }

    fn state(&self, iteration: Iteration) -> std::sync::MutexGuard<'_, IterState> {
        #[cfg(test)]
        self.visits.fetch_add(1, Ordering::Relaxed);
        self.states[iteration]
            .lock()
            .expect("iteration state poisoned")
    }

    /// `true` once every iteration has validated. Stable under concurrency:
    /// all-validated means no incarnation is in flight, so no transition can
    /// demote anything again.
    #[must_use]
    pub fn done(&self) -> bool {
        self.validated.load(Ordering::SeqCst) == self.states.len()
    }

    /// Current status of an iteration.
    #[must_use]
    pub fn status(&self, iteration: Iteration) -> (Incarnation, bool) {
        let s = self.state(iteration);
        (s.incarnation, s.status == Status::Validated)
    }

    /// Picks the next task, preferring the lower-indexed frontier and
    /// validation over execution at equal index (Block-STM's task order).
    pub fn next_task(&self) -> Option<Task> {
        if self.validation_idx.load(Ordering::SeqCst) <= self.execution_idx.load(Ordering::SeqCst) {
            self.next_validation().or_else(|| self.next_execution())
        } else {
            self.next_execution().or_else(|| self.next_validation())
        }
    }

    fn next_execution(&self) -> Option<Task> {
        loop {
            let i = self.execution_idx.fetch_add(1, Ordering::SeqCst);
            if i >= self.states.len() {
                return None;
            }
            let mut s = self.state(i);
            if s.status == Status::ReadyToExecute {
                s.status = Status::Executing;
                self.dispatched.fetch_max(i + 1, Ordering::SeqCst);
                return Some(Task::Execution {
                    iteration: i,
                    incarnation: s.incarnation,
                });
            }
        }
    }

    fn next_validation(&self) -> Option<Task> {
        loop {
            // Stop *before* claiming an index at the high-water mark, so the
            // frontier never passes an iteration nobody examined.
            if self.validation_idx.load(Ordering::SeqCst) >= self.dispatched.load(Ordering::SeqCst)
            {
                return None;
            }
            // Racing scanners can still overshoot by one index each; those
            // are examined like any other, as the unbounded scan did.
            let i = self.validation_idx.fetch_add(1, Ordering::SeqCst);
            if i >= self.states.len() {
                return None;
            }
            let s = self.state(i);
            if s.status == Status::Executed {
                return Some(Task::Validation {
                    iteration: i,
                    incarnation: s.incarnation,
                });
            }
        }
    }

    /// The executed incarnation finished and recorded its writes.
    /// `changed_locations` is `true` when the write set differs from the
    /// previous incarnation's (new or removed words): everything above must
    /// then be revalidated. Iterations blocked on this one are resumed.
    pub fn finish_execution(&self, iteration: Iteration, changed_locations: bool) {
        // Flip and drain under one hold of the status lock: a racing
        // `abort_on_dependency` either enqueued before the flip (drained
        // here) or observes `Executed` and resumes its iteration itself.
        let (incarnation, deps) = {
            let mut s = self.state(iteration);
            debug_assert_eq!(s.status, Status::Executing);
            s.status = Status::Executed;
            (s.incarnation, std::mem::take(&mut s.dependents))
        };
        if changed_locations || incarnation > 0 {
            self.demote_validated_above(iteration);
        }
        self.validation_idx.fetch_min(iteration, Ordering::SeqCst);
        for d in deps {
            self.resume(d);
        }
    }

    /// Records the validation verdict. On failure the iteration is scheduled
    /// for its next incarnation and every validated iteration above it is
    /// demoted (its reads may have observed the aborted writes).
    ///
    /// This is the single-coordinator entry point; racing validators use
    /// [`Scheduler::try_validation_abort`] / [`Scheduler::finish_abort`] /
    /// [`Scheduler::finish_validation_ok`] instead, which tolerate stale
    /// tasks.
    pub fn finish_validation(&self, iteration: Iteration, aborted: bool) {
        if aborted {
            // The same transition the racing handshake performs in two
            // steps; sharing `finish_abort` keeps the subtle
            // frontier-lowering/demote sequence in one place.
            {
                let mut s = self.state(iteration);
                debug_assert_eq!(s.status, Status::Executed);
                s.status = Status::Aborting;
            }
            self.finish_abort(iteration);
        } else {
            {
                let mut s = self.state(iteration);
                debug_assert_eq!(s.status, Status::Executed);
                s.status = Status::Validated;
            }
            self.validated.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Claims the right to abort `iteration`'s `incarnation` after a failed
    /// validation. Only one racing validator can win (the status moves to
    /// [`Status::Aborting`]); a validator holding a stale task — the
    /// iteration re-executed since the task was popped — loses and must drop
    /// the task. The winner converts the incarnation's writes to estimates
    /// and then calls [`Scheduler::finish_abort`].
    pub fn try_validation_abort(&self, iteration: Iteration, incarnation: Incarnation) -> bool {
        let mut s = self.state(iteration);
        if s.status == Status::Executed && s.incarnation == incarnation {
            s.status = Status::Aborting;
            true
        } else {
            false
        }
    }

    /// Completes a validation abort claimed via
    /// [`Scheduler::try_validation_abort`]: schedules the next incarnation
    /// and demotes/revalidates everything above.
    pub fn finish_abort(&self, iteration: Iteration) {
        {
            let mut s = self.state(iteration);
            debug_assert_eq!(s.status, Status::Aborting);
            s.status = Status::ReadyToExecute;
            s.incarnation += 1;
        }
        self.execution_idx.fetch_min(iteration, Ordering::SeqCst);
        self.demote_validated_above(iteration);
        self.validation_idx
            .fetch_min(iteration + 1, Ordering::SeqCst);
    }

    /// The iteration's current revalidation epoch. A racing validator must
    /// snapshot this *before* reading the multi-version store and hand it
    /// back to [`Scheduler::finish_validation_ok`]: if a lower iteration
    /// re-records or aborts in between, the demote sweep bumps the epoch and
    /// the stale pass-verdict is rejected (the lowered validation frontier
    /// guarantees a fresh task re-pops the iteration).
    #[must_use]
    pub fn validation_epoch(&self, iteration: Iteration) -> u64 {
        self.state(iteration).revalidation_epoch
    }

    /// Marks `iteration`'s `incarnation` validated. Returns `false` (and
    /// changes nothing) when the task is stale — the iteration was aborted
    /// and re-executed after the validation task was popped, or a lower
    /// iteration's re-record/abort bumped the revalidation epoch since the
    /// validator snapshotted `epoch` (its verdict was computed against
    /// superseded multi-version state). Without the epoch check a stale
    /// pass could stick permanently: the demote sweep only downgrades
    /// iterations already `Validated`, so a verdict landing *after* the
    /// sweep would never be revisited.
    pub fn finish_validation_ok(
        &self,
        iteration: Iteration,
        incarnation: Incarnation,
        epoch: u64,
    ) -> bool {
        {
            let mut s = self.state(iteration);
            if s.status != Status::Executed
                || s.incarnation != incarnation
                || s.revalidation_epoch != epoch
            {
                return false;
            }
            s.status = Status::Validated;
        }
        self.validated.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// The executing incarnation read an estimate written by `blocking` (or
    /// faulted on speculative state): abort it and wake it when `blocking`
    /// re-executes. If `blocking` has already re-executed, the iteration is
    /// resumed immediately. See the module docs for why the enqueue happens
    /// under `blocking`'s status lock.
    pub fn abort_on_dependency(&self, iteration: Iteration, blocking: Iteration) {
        debug_assert!(blocking < iteration);
        {
            let mut s = self.state(iteration);
            debug_assert_eq!(s.status, Status::Executing);
            s.status = Status::Aborting;
        }
        let resume_now = {
            let mut b = self.state(blocking);
            match b.status {
                Status::Executed | Status::Validated => true,
                _ => {
                    b.dependents.push(iteration);
                    false
                }
            }
        };
        if resume_now {
            self.resume(iteration);
        }
    }

    /// The executing incarnation faulted on speculative state with no
    /// identifiable blocking iteration (racing pool only): re-dispatch it
    /// immediately as the next incarnation.
    pub fn abort_and_retry(&self, iteration: Iteration) {
        {
            let mut s = self.state(iteration);
            debug_assert_eq!(s.status, Status::Executing);
            s.status = Status::ReadyToExecute;
            s.incarnation += 1;
        }
        self.execution_idx.fetch_min(iteration, Ordering::SeqCst);
    }

    /// The highest iteration below `iteration` that has not validated yet —
    /// the conservative dependency for an execution fault on speculative
    /// state. Never looks at or above the dispatch high-water mark (an
    /// executing caller's own index is always below it).
    #[must_use]
    pub fn highest_unvalidated_below(&self, iteration: Iteration) -> Option<Iteration> {
        let top = iteration.min(self.dispatched.load(Ordering::SeqCst));
        (0..top)
            .rev()
            .find(|&j| self.state(j).status != Status::Validated)
    }

    fn resume(&self, iteration: Iteration) {
        {
            let mut s = self.state(iteration);
            // A dependent can be woken twice in pathological racing
            // interleavings (premature wake, re-enqueue, real wake); resuming
            // is a no-op unless the iteration is still parked. The sequential
            // driver never takes the lenient branch.
            if s.status != Status::Aborting {
                return;
            }
            s.status = Status::ReadyToExecute;
            s.incarnation += 1;
        }
        self.execution_idx.fetch_min(iteration, Ordering::SeqCst);
    }

    fn demote_validated_above(&self, iteration: Iteration) {
        // An iteration dispatched after this load began executing after the
        // caller's re-record/estimates were in place: it needs no epoch bump.
        for j in iteration + 1..self.dispatched.load(Ordering::SeqCst) {
            let demoted = {
                let mut s = self.state(j);
                // Invalidate in-flight validators of `j` whatever its
                // status: an `Executed` iteration mid-validation cannot be
                // demoted here (it is not `Validated` yet), so the epoch is
                // how its validator learns its verdict is stale.
                s.revalidation_epoch += 1;
                if s.status == Status::Validated {
                    s.status = Status::Executed;
                    true
                } else {
                    false
                }
            };
            if demoted {
                self.validated.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// The virtual worker lanes: `lanes[k]` is the virtual time up to which lane
/// `k` is busy. Tasks are charged greedily to the least-loaded lane, which
/// keeps the schedule deterministic while modelling `lanes.len()`-way
/// parallel progress.
///
/// Both execution substrates account parallelism through this one type: the
/// speculation engine charges every execution/validation task to it, and
/// `janus-dbm`'s backends charge each loop chunk the same way — whether the
/// chunk then runs inline (virtual time) or on an OS worker thread (native
/// threads). Sharing the *modelled* clock is what makes their reported cycle
/// counts comparable.
#[derive(Debug)]
pub struct Lanes {
    clocks: Vec<u64>,
}

impl Lanes {
    /// `count` idle lanes.
    #[must_use]
    pub fn new(count: u32) -> Lanes {
        Lanes {
            clocks: vec![0; count.max(1) as usize],
        }
    }

    /// The virtual time at which the next task would start (the least-loaded
    /// lane's clock).
    #[must_use]
    pub fn next_start(&self) -> u64 {
        self.clocks.iter().copied().min().unwrap_or(0)
    }

    /// Charges `cost` virtual cycles to the least-loaded lane and returns the
    /// task's completion time. Every task advances time by at least one cycle
    /// so repeated retries always observe strictly later state.
    pub fn charge(&mut self, cost: u64) -> u64 {
        let lane = self
            .clocks
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.clocks[lane] += cost.max(1);
        self.clocks[lane]
    }

    /// The virtual makespan: the busiest lane's clock.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_free_iterations_execute_then_validate_in_order() {
        let s = Scheduler::new(3);
        let mut log = Vec::new();
        while !s.done() {
            match s.next_task().expect("work remains") {
                Task::Execution { iteration, .. } => {
                    log.push(format!("E{iteration}"));
                    s.finish_execution(iteration, true);
                }
                Task::Validation { iteration, .. } => {
                    log.push(format!("V{iteration}"));
                    s.finish_validation(iteration, false);
                }
            }
        }
        assert_eq!(log, ["E0", "V0", "E1", "V1", "E2", "V2"]);
    }

    #[test]
    fn aborted_validation_re_executes_with_a_higher_incarnation() {
        let s = Scheduler::new(2);
        let Some(Task::Execution { iteration: 0, .. }) = s.next_task() else {
            panic!("expected execution of 0");
        };
        s.finish_execution(0, true);
        let Some(Task::Validation { iteration: 0, .. }) = s.next_task() else {
            panic!("expected validation of 0");
        };
        s.finish_validation(0, true);
        match s.next_task() {
            Some(Task::Execution {
                iteration: 0,
                incarnation: 1,
            }) => {}
            other => panic!("expected re-execution of 0, got {other:?}"),
        }
    }

    #[test]
    fn dependency_wakes_when_blocking_iteration_finishes() {
        let s = Scheduler::new(2);
        // Execute 0, abort its validation so 0 becomes ReadyToExecute(1).
        assert!(matches!(
            s.next_task(),
            Some(Task::Execution { iteration: 0, .. })
        ));
        s.finish_execution(0, true);
        assert!(matches!(
            s.next_task(),
            Some(Task::Validation { iteration: 0, .. })
        ));
        s.finish_validation(0, true);
        // 1 executes, reads 0's estimate, blocks on 0.
        // (Simulate: dispatch 0 first per order, then force the scenario.)
        let t = s.next_task().expect("task");
        let Task::Execution { iteration: 0, .. } = t else {
            panic!("0 re-executes first, got {t:?}");
        };
        // While 0 is executing, 1 is dispatched... single-threaded driver
        // processes one at a time, so instead finish 0 and verify 1 runs.
        s.finish_execution(0, true);
        assert!(matches!(
            s.next_task(),
            Some(Task::Validation { iteration: 0, .. })
        ));
        s.finish_validation(0, false);
        assert!(matches!(
            s.next_task(),
            Some(Task::Execution { iteration: 1, .. })
        ));
        s.finish_execution(1, true);
        assert!(matches!(
            s.next_task(),
            Some(Task::Validation { iteration: 1, .. })
        ));
        s.finish_validation(1, false);
        assert!(s.done());
    }

    #[test]
    fn abort_demotes_validated_iterations_above() {
        let s = Scheduler::new(2);
        // Run both iterations to Validated.
        for _ in 0..2 {
            match s.next_task().unwrap() {
                Task::Execution { iteration, .. } => s.finish_execution(iteration, true),
                Task::Validation { iteration, .. } => s.finish_validation(iteration, false),
            }
        }
        for _ in 0..2 {
            match s.next_task().unwrap() {
                Task::Execution { iteration, .. } => s.finish_execution(iteration, true),
                Task::Validation { iteration, .. } => s.finish_validation(iteration, false),
            }
        }
        assert!(s.done());
    }

    /// Regression test for the lost-wakeup window (ISSUE 4, satellite 4):
    /// with racing workers, iteration 1 can decide to block on iteration 0
    /// *after* 0 has already finished its re-execution and drained its
    /// dependents — under the old single-threaded decrement ordering the
    /// enqueue would never be seen and 1 would sleep forever. The scheduler
    /// must instead observe 0's `Executed` status and resume 1 immediately.
    #[test]
    fn dependency_resuming_between_finish_and_repop_is_not_lost() {
        let s = Scheduler::new(2);
        // Both iterations claimed concurrently (only possible with the
        // thread-safe `&self` API — the sequential driver never holds two
        // execution tasks at once).
        let Some(Task::Execution { iteration: 0, .. }) = s.next_task() else {
            panic!("expected execution of 0");
        };
        let Some(Task::Execution { iteration: 1, .. }) = s.next_task() else {
            panic!("expected execution of 1");
        };
        // Worker A finishes 0 and drains its (empty) dependency list.
        s.finish_execution(0, true);
        // Worker B, which read 0's estimate earlier in its execution, only
        // now reports the dependency — after the drain already happened.
        s.abort_on_dependency(1, 0);
        // 1 must not be parked: it is immediately re-dispatchable with a
        // bumped incarnation.
        let (incarnation, validated) = s.status(1);
        assert_eq!(incarnation, 1, "1 must have been resumed, not parked");
        assert!(!validated);
        let mut tasks = Vec::new();
        while !s.done() {
            match s.next_task().expect("no task may be lost") {
                Task::Execution { iteration, .. } => {
                    tasks.push(format!("E{iteration}"));
                    s.finish_execution(iteration, false);
                }
                Task::Validation { iteration, .. } => {
                    tasks.push(format!("V{iteration}"));
                    s.finish_validation(iteration, false);
                }
            }
        }
        assert!(
            tasks.contains(&"E1".to_string()),
            "1's next incarnation must be dispatched ({tasks:?})"
        );
    }

    /// The racing-validator handshake: only one validator may win the abort
    /// of a given incarnation, stale winners are rejected by the incarnation
    /// check, and `finish_validation_ok` refuses tasks for re-executed
    /// iterations.
    #[test]
    fn stale_validation_tasks_are_rejected() {
        let s = Scheduler::new(1);
        let Some(Task::Execution { iteration: 0, .. }) = s.next_task() else {
            panic!("expected execution of 0");
        };
        s.finish_execution(0, true);
        let Some(Task::Validation {
            iteration: 0,
            incarnation: 0,
        }) = s.next_task()
        else {
            panic!("expected validation of (0, 0)");
        };
        // Two racing validators popped the same task; the first wins.
        assert!(s.try_validation_abort(0, 0));
        assert!(!s.try_validation_abort(0, 0), "second aborter must lose");
        s.finish_abort(0);
        // The stale validator's success path must also be rejected now.
        let epoch = s.validation_epoch(0);
        assert!(
            !s.finish_validation_ok(0, 0, epoch),
            "stale ok must be rejected"
        );
        // Re-execute and validate for real.
        let Some(Task::Execution {
            iteration: 0,
            incarnation: 1,
        }) = s.next_task()
        else {
            panic!("expected re-execution of 0");
        };
        s.finish_execution(0, false);
        let Some(Task::Validation {
            iteration: 0,
            incarnation: 1,
        }) = s.next_task()
        else {
            panic!("expected validation of (0, 1)");
        };
        let epoch = s.validation_epoch(0);
        assert!(s.finish_validation_ok(0, 1, epoch));
        assert!(s.done());
    }

    /// Regression test for the lost-revalidation race: iteration 1's
    /// validator snapshots its epoch and verdict *before* iteration 0
    /// re-records writes; 0's demote sweep runs while 1 is merely `Executed`
    /// (mid-validation), so nothing is demoted — the epoch bump is the only
    /// thing standing between the stale pass and a permanently-validated
    /// iteration whose reads were never checked against 0's new writes.
    #[test]
    fn stale_pass_verdict_after_lower_rerecord_is_rejected() {
        let s = Scheduler::new(2);
        // Claim both iterations; finish both executions.
        let Some(Task::Execution { iteration: 0, .. }) = s.next_task() else {
            panic!("expected execution of 0");
        };
        let Some(Task::Execution { iteration: 1, .. }) = s.next_task() else {
            panic!("expected execution of 1");
        };
        s.finish_execution(0, true);
        s.finish_execution(1, true);
        // A validator pops (1, 0) and snapshots the epoch...
        let epoch = s.validation_epoch(1);
        // ...then 0 fails its own validation, re-executes and re-records —
        // the demote sweep passes over 1 (still Executed: no demote) and
        // bumps its epoch.
        assert!(s.try_validation_abort(0, 0));
        s.finish_abort(0);
        // Drive until 0 has re-recorded. Validation tasks for 1 popped along
        // the way model racing validators whose verdicts are still in
        // flight: dropping them is exactly what a stalled validator looks
        // like, and the re-record below must re-deliver the work.
        loop {
            match s.next_task().expect("work remains") {
                Task::Execution { iteration: 0, .. } => {
                    s.finish_execution(0, true);
                    break;
                }
                Task::Validation { iteration: 1, .. } => {}
                other => panic!("unexpected task {other:?}"),
            }
        }
        // The validator's stale pass must not stick.
        assert!(
            !s.finish_validation_ok(1, 0, epoch),
            "a pass computed against pre-re-record state must be rejected"
        );
        let (_, validated) = s.status(1);
        assert!(!validated, "1 must await a fresh validation task");
        // And a fresh task for 1 is re-delivered by the lowered frontier.
        let mut saw_revalidation = false;
        while !s.done() {
            match s.next_task().expect("no task may be lost") {
                Task::Execution { iteration, .. } => s.finish_execution(iteration, false),
                Task::Validation {
                    iteration,
                    incarnation,
                } => {
                    saw_revalidation |= iteration == 1;
                    let epoch = s.validation_epoch(iteration);
                    assert!(s.finish_validation_ok(iteration, incarnation, epoch));
                }
            }
        }
        assert!(
            saw_revalidation,
            "1 must be revalidated against fresh state"
        );
    }

    /// Hammer the scheduler from real threads: every iteration must end up
    /// validated exactly once, with no lost or duplicated work, for any
    /// interleaving the OS produces.
    #[test]
    fn concurrent_drive_terminates_with_all_validated() {
        for _ in 0..8 {
            let n = 24;
            let s = Scheduler::new(n);
            let executed = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| loop {
                        if s.done() {
                            break;
                        }
                        match s.next_task() {
                            Some(Task::Execution { iteration, .. }) => {
                                executed.fetch_add(1, Ordering::SeqCst);
                                s.finish_execution(iteration, true);
                            }
                            Some(Task::Validation {
                                iteration,
                                incarnation,
                            }) => {
                                let epoch = s.validation_epoch(iteration);
                                let _ = s.finish_validation_ok(iteration, incarnation, epoch);
                            }
                            None => std::thread::yield_now(),
                        }
                    });
                }
            });
            assert!(s.done());
            assert!(executed.load(Ordering::SeqCst) >= n);
            for i in 0..n {
                assert!(s.status(i).1, "iteration {i} must be validated");
            }
        }
    }

    /// What the coordinator does with one popped task, drawn from the
    /// proptest's random stream.
    #[derive(Debug, Clone, Copy)]
    struct Step {
        /// `changed_locations` for an execution; `aborted` for a validation.
        flag: bool,
        /// An execution stalls on this lower iteration instead of finishing
        /// (taken modulo the iteration, ignored for iteration 0).
        stall_on: Option<usize>,
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The bounded-frontier scheduler hands the single coordinator the
        /// very task sequence the scan-to-`n` reference model does, for any
        /// stream of write-set changes, validation verdicts and estimate
        /// stalls — which is what keeps modelled cycles and the table-3
        /// counters bit-identical.
        #[test]
        fn matches_the_reference_model(
            n in 1usize..40,
            steps in proptest::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    proptest::option::of(0usize..40),
                    0u8..4,
                ),
                0..400,
            ),
        ) {
            let new = Scheduler::new(n);
            let old = reference::Scheduler::new(n);
            // Past the random stream every task succeeds, so both converge.
            let quiet = Step { flag: false, stall_on: None };
            let mut stream = steps.iter().map(|&(flag, stall_on, dice)| Step {
                flag,
                // One execution in four stalls, when the stream says so.
                stall_on: stall_on.filter(|_| dice == 0),
            });
            for _ in 0..steps.len() + 4 * n + 8 {
                proptest::prop_assert_eq!(new.done(), old.done());
                if new.done() {
                    break;
                }
                let task = new.next_task();
                proptest::prop_assert_eq!(task, old.next_task());
                let step = stream.next().unwrap_or(quiet);
                match task {
                    None => break,
                    Some(Task::Execution { iteration, .. }) => match step.stall_on {
                        Some(on) if iteration > 0 => {
                            new.abort_on_dependency(iteration, on % iteration);
                            old.abort_on_dependency(iteration, on % iteration);
                        }
                        _ => {
                            new.finish_execution(iteration, step.flag);
                            old.finish_execution(iteration, step.flag);
                        }
                    },
                    Some(Task::Validation { iteration, .. }) => {
                        new.finish_validation(iteration, step.flag);
                        old.finish_validation(iteration, step.flag);
                    }
                }
            }
            proptest::prop_assert_eq!(new.done(), old.done());
        }
    }

    /// A conflict-free invocation touches each iteration's state a constant
    /// number of times: the validation scan and the demote sweep stop at the
    /// dispatch high-water mark instead of walking to `n` after every task.
    #[test]
    fn conflict_free_run_visits_states_linearly() {
        let n = 16_384;
        let s = Scheduler::new(n);
        while let Some(task) = s.next_task() {
            match task {
                // `true`: every first incarnation writes new locations,
                // which is what sent the old demote sweep over the tail.
                Task::Execution { iteration, .. } => s.finish_execution(iteration, true),
                Task::Validation { iteration, .. } => s.finish_validation(iteration, false),
            }
        }
        assert!(s.done());
        let visits = s.visits.load(Ordering::Relaxed);
        assert!(visits <= 16 * n, "{visits} state visits for {n} iterations");
    }

    #[test]
    fn lanes_spread_cost_and_report_the_makespan() {
        let mut lanes = Lanes::new(2);
        assert_eq!(lanes.next_start(), 0);
        lanes.charge(10);
        assert_eq!(lanes.next_start(), 0, "second lane is still idle");
        lanes.charge(4);
        lanes.charge(4); // goes to the lane at 4
        assert_eq!(lanes.makespan(), 10);
        assert_eq!(lanes.next_start(), 8);
        let mut one = Lanes::new(0);
        assert_eq!(one.charge(0), 1, "cost is at least one cycle");
    }
}
