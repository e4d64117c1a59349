//! The speculative execution engine: drives execution and validation tasks
//! over the iterations of one loop invocation, re-executing only the
//! dependents of failed iterations, and accounts everything in deterministic
//! virtual time.

use crate::mv::{Arena, MvStore, ReadEntry, ReadOrigin, ReadResult, ViewBuffers};
use crate::scheduler::{Lanes, Scheduler, Task};
use crate::{SpecError, SpecStats};
use janus_vm::{GuestMemory, PeekMemory};
use std::fmt;

/// Extra virtual cycles per tracked speculative read.
const READ_COST: u64 = 6;
/// Extra virtual cycles per buffered speculative write.
const WRITE_COST: u64 = 10;
/// Fixed virtual cycles per validation task.
const VALIDATE_BASE_COST: u64 = 12;
/// Virtual cycles per read-set entry re-resolved during validation.
const VALIDATE_READ_COST: u64 = 4;
/// Virtual cycles charged per abort (estimate conversion, task churn).
const ABORT_COST: u64 = 60;
/// Virtual cycles per word written during the final commit.
const COMMIT_COST_PER_WORD: u64 = 5;
/// Task budget per iteration: the engine gives up (and the caller falls back
/// to sequential execution) after `iterations * MAX_TASK_FACTOR + 64` tasks,
/// a livelock guard for pathologically dependent loops.
const MAX_TASK_FACTOR: u64 = 64;

/// What one incarnation of the loop body reports back to the engine.
#[derive(Debug)]
pub struct IterationRun<P> {
    /// Guest cycles the incarnation consumed.
    pub cycles: u64,
    /// Caller-defined result (e.g. the final CPU context) kept for the
    /// incarnation that ultimately validates.
    pub payload: P,
}

/// The result of one successful speculative invocation.
pub struct SpecOutcome<P> {
    /// Aggregate speculation counters.
    pub stats: SpecStats,
    /// Virtual parallel time of the invocation: the busiest lane's clock,
    /// including validation, commit and abort overheads.
    pub parallel_cycles: u64,
    /// The payload of each iteration's validated incarnation, in iteration
    /// order.
    pub payloads: Vec<P>,
}

impl<P> fmt::Debug for SpecOutcome<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecOutcome")
            .field("stats", &self.stats)
            .field("parallel_cycles", &self.parallel_cycles)
            .field("payloads", &self.payloads.len())
            .finish()
    }
}

/// Runs `iterations` speculative loop iterations over `base` memory, charging
/// tasks to `lanes` virtual workers.
///
/// `body` executes one incarnation of one iteration against the supplied
/// [`crate::SpecView`] and reports its cycle cost plus an arbitrary payload.
/// On success the final (serial-equivalent) memory image has been committed
/// into `base` and the outcome carries per-iteration payloads plus abort and
/// retry statistics.
///
/// # Errors
///
/// Returns [`SpecError::Body`] when the body fails on *consistent* state
/// (every lower iteration validated — a genuine guest fault), and
/// [`SpecError::AbortLimit`] when the task budget is exhausted (the caller
/// should fall back to sequential execution).
pub fn run_speculative<M, P, E, F>(
    lanes: u32,
    base: &mut M,
    iterations: usize,
    mut body: F,
) -> Result<SpecOutcome<P>, SpecError<E>>
where
    M: GuestMemory + PeekMemory,
    F: FnMut(usize, &mut crate::SpecView<'_, M>) -> Result<IterationRun<P>, E>,
{
    let mut lanes = Lanes::new(lanes);
    let mut stats = SpecStats {
        iterations: iterations as u64,
        ..SpecStats::default()
    };
    if iterations == 0 {
        return Ok(SpecOutcome {
            stats,
            parallel_cycles: 0,
            payloads: Vec::new(),
        });
    }

    let mut mv = MvStore::new(iterations);
    let sched = Scheduler::new(iterations);
    // Each iteration's latest completed incarnation: its read set, sorted by
    // word, and its payload.
    let mut reads: Arena<ReadEntry> = Arena::new(iterations);
    let mut payloads: Vec<Option<P>> = (0..iterations).map(|_| None).collect();
    let mut buffers = ViewBuffers::default();

    let max_tasks = (iterations as u64)
        .saturating_mul(MAX_TASK_FACTOR)
        .saturating_add(64);
    let mut tasks = 0u64;

    while !sched.done() {
        tasks += 1;
        if tasks > max_tasks {
            return Err(SpecError::AbortLimit { iterations, tasks });
        }
        let Some(task) = sched.next_task() else {
            // Defensive: with the counters lowered on every state regression
            // this cannot happen; bail out rather than spin.
            return Err(SpecError::AbortLimit { iterations, tasks });
        };
        match task {
            Task::Execution {
                iteration,
                incarnation,
            } => {
                let now = lanes.next_start();
                let mut view = crate::SpecView::new(&*base, &mv, iteration, now, &mut buffers);
                match body(iteration, &mut view) {
                    Ok(run) => {
                        let (blocked, vs) = (view.blocked_on(), view.stats());
                        stats.reads += vs.reads;
                        stats.writes += vs.writes;
                        let cost = run.cycles + vs.reads * READ_COST + vs.writes * WRITE_COST;
                        let done_at = lanes.charge(cost);
                        if let Some(on) = blocked {
                            // The incarnation read an estimate: the work is
                            // wasted, re-dispatch once `on` re-executes.
                            stats.estimate_stalls += 1;
                            stats.aborts += 1;
                            sched.abort_on_dependency(iteration, on);
                        } else {
                            stats.executions += 1;
                            stats.max_incarnation = stats.max_incarnation.max(incarnation);
                            let changed = mv.record(
                                iteration,
                                incarnation,
                                buffers.writes.iter().map(|(w, v)| (w, v)),
                                done_at,
                            );
                            reads.store(iteration, &buffers.reads);
                            payloads[iteration] = Some(run.payload);
                            sched.finish_execution(iteration, changed);
                        }
                    }
                    Err(e) => {
                        // A fault on speculative state is indistinguishable
                        // from a conflict: retry once the state below has
                        // settled. A fault on consistent state is real.
                        match sched.highest_unvalidated_below(iteration) {
                            Some(dep) => {
                                stats.aborts += 1;
                                stats.faults_retried += 1;
                                lanes.charge(ABORT_COST);
                                sched.abort_on_dependency(iteration, dep);
                            }
                            None => return Err(SpecError::Body(e)),
                        }
                    }
                }
            }
            Task::Validation { iteration, .. } => {
                stats.validations += 1;
                let read_set = reads.get(iteration);
                let ok = validate(&mv, &*base, iteration, read_set);
                let mut cost = VALIDATE_BASE_COST + read_set.len() as u64 * VALIDATE_READ_COST;
                if !ok {
                    stats.aborts += 1;
                    cost += ABORT_COST;
                }
                let done_at = lanes.charge(cost);
                if !ok {
                    mv.convert_writes_to_estimates(iteration, done_at);
                }
                sched.finish_validation(iteration, !ok);
            }
        }
    }

    // Commit: every iteration validated, the highest version of each word is
    // the serial-equivalent final value.
    let image = mv.final_image();
    lanes.charge(COMMIT_COST_PER_WORD * image.len() as u64);
    for &(word, value) in &image {
        base.write_u64(word, value);
    }
    stats.versioned_words = image.len() as u64;

    let payloads: Vec<P> = payloads
        .into_iter()
        .map(|p| p.expect("validated iteration has a payload"))
        .collect();
    Ok(SpecOutcome {
        stats,
        parallel_cycles: lanes.makespan(),
        payloads,
    })
}

/// Lazy validation of one iteration's read set against the *current*
/// multi-version state: a read is still good when it would re-resolve to the
/// same version (read-from check) or, failing that, to the same value (value
/// check — the JudoSTM trick that forgives silent re-writes).
fn validate<M: PeekMemory>(mv: &MvStore, base: &M, iteration: usize, reads: &[ReadEntry]) -> bool {
    reads.iter().all(
        |&(word, (origin, value))| match mv.read(word, iteration, u64::MAX) {
            ReadResult::Blocked(_) => false,
            ReadResult::Versioned(now_origin, now_value) => {
                now_origin == origin || now_value == value
            }
            ReadResult::Base => origin == ReadOrigin::Base || base.peek_u64(word) == value,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpecView;
    use janus_vm::FlatMemory;

    /// `a[i] = a[i] + 1` over disjoint words: embarrassingly parallel.
    #[test]
    fn disjoint_iterations_never_abort_and_scale() {
        let mut base = FlatMemory::new();
        for i in 0..64u64 {
            base.write_u64(0x1000 + i * 8, i);
        }
        let body = |i: usize, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
            let addr = 0x1000 + i as u64 * 8;
            let v = view.read_u64(addr);
            view.write_u64(addr, v + 1);
            Ok(IterationRun {
                cycles: 100,
                payload: (),
            })
        };
        let out = run_speculative(8, &mut base, 64, body).unwrap();
        assert_eq!(out.stats.executions, 64);
        assert_eq!(out.stats.aborts, 0);
        for i in 0..64u64 {
            assert_eq!(base.read_u64(0x1000 + i * 8), i + 1);
        }
        // 64 iterations of 100 cycles over 8 lanes: roughly 800 cycles of
        // execution plus validation overheads; far below the serial 6400.
        assert!(
            out.parallel_cycles < 3200,
            "expected parallel scaling, got {}",
            out.parallel_cycles
        );
    }

    /// The charge, term by term: two disjoint iterations of one read and one
    /// write each, on one lane, whose clock is then the sum of every charge.
    #[test]
    fn one_lane_is_charged_every_named_cost() {
        let mut base = FlatMemory::new();
        let body = |i: usize, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
            let addr = 0x1000 + i as u64 * 8;
            let v = view.read_u64(addr);
            view.write_u64(addr, v + 1);
            Ok(IterationRun {
                cycles: 100,
                payload: (),
            })
        };
        let out = run_speculative(1, &mut base, 2, body).unwrap();
        let s = out.stats;
        assert_eq!(
            (s.executions, s.reads, s.writes, s.validations, s.aborts),
            (2, 2, 2, 2, 0)
        );
        let execute = 100 + READ_COST + WRITE_COST;
        let validate = VALIDATE_BASE_COST + VALIDATE_READ_COST;
        let commit = 2 * COMMIT_COST_PER_WORD;
        assert_eq!(out.parallel_cycles, 2 * execute + 2 * validate + commit);
        // The figures the DBM has always charged: 2 × 116 + 2 × 16 + 2 × 5.
        assert_eq!(out.parallel_cycles, 274);
    }

    /// A dense chain `a[0] += 1` in every iteration: everything conflicts,
    /// the engine must still converge to the serial result.
    #[test]
    fn fully_dependent_chain_converges_to_serial() {
        let mut base = FlatMemory::new();
        base.write_u64(0x2000, 0);
        let body = |_i: usize, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
            let v = view.read_u64(0x2000);
            view.write_u64(0x2000, v + 1);
            Ok(IterationRun {
                cycles: 10,
                payload: (),
            })
        };
        let out = run_speculative(4, &mut base, 32, body).unwrap();
        assert_eq!(base.read_u64(0x2000), 32, "serial-equivalent result");
        assert!(
            out.stats.aborts > 0,
            "a dense chain must produce aborts under 4 lanes"
        );
        assert!(out.stats.executions >= 32);
    }

    /// Sparse conflicts: iteration i touches word i % 4 — distance-4
    /// collisions inside an 8-lane window abort and retry.
    #[test]
    fn sparse_conflicts_abort_only_dependents() {
        let mut base = FlatMemory::new();
        let body = |i: usize, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
            let addr = 0x3000 + (i as u64 % 4) * 8;
            let v = view.read_u64(addr);
            view.write_u64(addr, v + i as u64);
            Ok(IterationRun {
                cycles: 50,
                payload: i,
            })
        };
        let out = run_speculative(8, &mut base, 40, body).unwrap();
        // Serial result: word k holds sum of i with i % 4 == k.
        for k in 0..4u64 {
            let expect: u64 = (0..40u64).filter(|i| i % 4 == k).sum();
            assert_eq!(base.read_u64(0x3000 + k * 8), expect);
        }
        assert_eq!(out.payloads, (0..40).collect::<Vec<_>>());
        assert!(
            out.stats.executions > out.stats.iterations,
            "conflicts must cause re-executions"
        );
    }

    /// Body faults on consistent state are reported, not retried forever.
    #[test]
    fn fault_on_consistent_state_is_an_error() {
        let mut base = FlatMemory::new();
        let body = |i: usize,
                    _view: &mut SpecView<'_, FlatMemory>|
         -> Result<IterationRun<()>, &'static str> {
            if i == 0 {
                Err("boom")
            } else {
                Ok(IterationRun {
                    cycles: 1,
                    payload: (),
                })
            }
        };
        match run_speculative(2, &mut base, 4, body) {
            Err(SpecError::Body("boom")) => {}
            other => panic!("expected body error, got {other:?}"),
        }
    }

    /// Zero iterations are a no-op.
    #[test]
    fn empty_invocation_is_trivial() {
        let mut base = FlatMemory::new();
        let out = run_speculative(
            4,
            &mut base,
            0,
            |_, _: &mut SpecView<'_, FlatMemory>| -> Result<IterationRun<()>, ()> {
                unreachable!()
            },
        )
        .unwrap();
        assert_eq!(out.parallel_cycles, 0);
        assert!(out.payloads.is_empty());
    }
}
