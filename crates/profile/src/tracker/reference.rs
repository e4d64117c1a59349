//! The address-set tracker the stamps replaced, kept as the test-only
//! reference model: four sets per loop (this iteration's and all earlier
//! iterations' reads and writes), cleared at loop entry, intersected and
//! folded at every latch, and one instruction count per retired instruction.
//! `tests::matches_the_reference_model` drives it in lockstep with
//! [`super::Tracker`].

use crate::LoopProfile;
use std::collections::BTreeSet;

#[derive(Debug, Default)]
struct LoopState {
    profile: LoopProfile,
    iter_writes: BTreeSet<u64>,
    iter_reads: BTreeSet<u64>,
    prev_writes: BTreeSet<u64>,
    prev_reads: BTreeSet<u64>,
}

#[derive(Debug)]
pub(super) struct Tracker {
    loops: Vec<LoopState>,
    stack: Vec<usize>,
}

impl Tracker {
    pub(super) fn new(loops: usize) -> Tracker {
        Tracker {
            loops: (0..loops).map(|_| LoopState::default()).collect(),
            stack: Vec::new(),
        }
    }

    /// The loop on top of the stack.
    pub(super) fn top(&self) -> Option<usize> {
        self.stack.last().copied()
    }

    pub(super) fn start(&mut self, id: usize) {
        if self.stack.last() == Some(&id) {
            return;
        }
        self.stack.push(id);
        let l = &mut self.loops[id];
        l.profile.invocations += 1;
        l.iter_writes.clear();
        l.iter_reads.clear();
        l.prev_writes.clear();
        l.prev_reads.clear();
    }

    pub(super) fn finish(&mut self, id: usize) {
        if let Some(pos) = self.stack.iter().rposition(|l| *l == id) {
            self.stack.truncate(pos);
        }
    }

    pub(super) fn latch(&mut self, id: usize) {
        if self.stack.last() != Some(&id) {
            return;
        }
        let l = &mut self.loops[id];
        l.profile.iterations += 1;
        // Cross-iteration dependence: this iteration touched an address
        // written by an earlier iteration, or wrote one previously read.
        let conflict = l
            .iter_writes
            .iter()
            .any(|a| l.prev_writes.contains(a) || l.prev_reads.contains(a))
            || l.iter_reads.iter().any(|a| l.prev_writes.contains(a));
        if conflict {
            l.profile.observed_dependence = true;
        }
        l.prev_writes.append(&mut l.iter_writes);
        l.prev_reads.append(&mut l.iter_reads);
    }

    pub(super) fn access(&mut self, addr: u64, is_write: bool) {
        let Some(&top) = self.stack.last() else {
            return;
        };
        let l = &mut self.loops[top];
        if is_write {
            l.iter_writes.insert(addr);
        } else {
            l.iter_reads.insert(addr);
        }
    }

    /// One retired instruction.
    pub(super) fn retire(&mut self) {
        if let Some(&top) = self.stack.last() {
            self.loops[top].profile.dyn_instructions += 1;
        }
    }

    pub(super) fn into_profiles(self) -> impl Iterator<Item = LoopProfile> {
        self.loops.into_iter().map(|l| l.profile)
    }
}
