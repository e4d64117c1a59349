//! The scheduler as it stood before the frontiers were bounded by the
//! dispatch high-water mark, kept as the test-only reference model: both
//! frontier operations walk to `n`. `tests::matches_the_reference_model`
//! drives it in lockstep with [`super::Scheduler`].

use super::{Status, Task};
use crate::mv::{Incarnation, Iteration};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

#[derive(Debug, Clone, Copy)]
struct IterState {
    incarnation: Incarnation,
    status: Status,
}

#[derive(Debug)]
pub(super) struct Scheduler {
    states: Vec<Mutex<IterState>>,
    execution_idx: AtomicUsize,
    validation_idx: AtomicUsize,
    dependents: Vec<Mutex<Vec<Iteration>>>,
    validated: AtomicUsize,
}

impl Scheduler {
    pub(super) fn new(n: usize) -> Scheduler {
        Scheduler {
            states: (0..n)
                .map(|_| {
                    Mutex::new(IterState {
                        incarnation: 0,
                        status: Status::ReadyToExecute,
                    })
                })
                .collect(),
            execution_idx: AtomicUsize::new(0),
            validation_idx: AtomicUsize::new(0),
            dependents: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            validated: AtomicUsize::new(0),
        }
    }

    fn state(&self, iteration: Iteration) -> std::sync::MutexGuard<'_, IterState> {
        self.states[iteration]
            .lock()
            .expect("iteration state poisoned")
    }

    pub(super) fn done(&self) -> bool {
        self.validated.load(Ordering::SeqCst) == self.states.len()
    }

    pub(super) fn next_task(&self) -> Option<Task> {
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
                return Some(Task::Execution {
                    iteration: i,
                    incarnation: s.incarnation,
                });
            }
        }
    }

    fn next_validation(&self) -> Option<Task> {
        loop {
            let i = self.validation_idx.fetch_add(1, Ordering::SeqCst);
            if i >= self.states.len() {
                return None;
            }
            let s = self.state(i);
            if s.status == Status::Executed {
                return Some(Task::Validation { iteration: i });
            }
        }
    }

    pub(super) fn finish_execution(&self, iteration: Iteration, changed_locations: bool) {
        let incarnation = {
            let mut s = self.state(iteration);
            assert_eq!(s.status, Status::Executing);
            s.status = Status::Executed;
            s.incarnation
        };
        if changed_locations || incarnation > 0 {
            self.demote_validated_above(iteration);
        }
        self.validation_idx.fetch_min(iteration, Ordering::SeqCst);
        let deps = std::mem::take(
            &mut *self.dependents[iteration]
                .lock()
                .expect("dependency list poisoned"),
        );
        for d in deps {
            self.resume(d);
        }
    }

    pub(super) fn finish_validation(&self, iteration: Iteration, aborted: bool) {
        let mut s = self.state(iteration);
        assert_eq!(s.status, Status::Executed);
        if aborted {
            s.status = Status::ReadyToExecute;
            s.incarnation += 1;
            drop(s);
            self.execution_idx.fetch_min(iteration, Ordering::SeqCst);
            self.demote_validated_above(iteration);
            self.validation_idx
                .fetch_min(iteration + 1, Ordering::SeqCst);
        } else {
            s.status = Status::Validated;
            drop(s);
            self.validated.fetch_add(1, Ordering::SeqCst);
        }
    }

    pub(super) fn abort_on_dependency(&self, iteration: Iteration, blocking: Iteration) {
        {
            let mut s = self.state(iteration);
            assert_eq!(s.status, Status::Executing);
            s.status = Status::Aborting;
        }
        let resume_now = {
            let b = self.state(blocking);
            match b.status {
                Status::Executed | Status::Validated => true,
                _ => {
                    self.dependents[blocking]
                        .lock()
                        .expect("dependency list poisoned")
                        .push(iteration);
                    false
                }
            }
        };
        if resume_now {
            self.resume(iteration);
        }
    }

    fn resume(&self, iteration: Iteration) {
        {
            let mut s = self.state(iteration);
            if s.status != Status::Aborting {
                return;
            }
            s.status = Status::ReadyToExecute;
            s.incarnation += 1;
        }
        self.execution_idx.fetch_min(iteration, Ordering::SeqCst);
    }

    fn demote_validated_above(&self, iteration: Iteration) {
        for j in iteration + 1..self.states.len() {
            let demoted = {
                let mut s = self.state(j);
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
