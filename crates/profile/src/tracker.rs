//! Per-loop profiling state: the loop stack, instruction accounting at stack
//! switches and the stamp-based cross-iteration dependence check.
//!
//! Dependence profiling asks one question per loop: did an iteration touch a
//! word an *earlier* iteration of the same invocation wrote, or write one an
//! earlier iteration read? Instead of collecting address sets, every loop
//! keeps a shadow over guest memory holding, per address, the stamp of the
//! iteration that *first* wrote and *first* read it in the current
//! invocation. Stamps come from one counter per loop that only grows — a
//! latch bumps it, a loop entry bumps it and remembers the new value as the
//! invocation's `base` — so nothing is ever cleared: a stamp below `base` is
//! stale by comparison. An access conflicts when the other kind's (or, for a
//! write, either kind's) stamp lies in `base..iter`.
//!
//! It has to be the first stamp, not the last: read in iteration *j*, then
//! read-and-write in *k* > *j* is a conflict, and a last-read stamp would
//! have moved to *k* by the time the write looks.

use crate::LoopProfile;
use janus_vm::PageTable;
use std::collections::HashMap;

const WORDS_PER_PAGE: usize = 512;

/// The stamps of the iterations that first wrote and first read one address
/// in an invocation; 0 is never.
#[derive(Debug, Default, Clone, Copy)]
struct Cell {
    write: u64,
    read: u64,
}

/// The stamps of one loop. Aligned words index the repository's page table;
/// anything else is keyed by its exact byte address, as the reference does,
/// so `a` and `a + 4` stay distinct.
#[derive(Debug, Default)]
struct Shadow {
    words: PageTable<Box<[Cell; WORDS_PER_PAGE]>>,
    unaligned: HashMap<u64, Cell>,
}

impl Shadow {
    #[inline]
    fn cell(&mut self, addr: u64) -> &mut Cell {
        if addr % 8 == 0 {
            let page = self
                .words
                .get_or_insert_with(addr >> 12, || Box::new([Cell::default(); WORDS_PER_PAGE]));
            &mut page[(addr >> 3) as usize % WORDS_PER_PAGE]
        } else {
            self.unaligned.entry(addr).or_default()
        }
    }
}

/// One instrumented loop.
#[derive(Debug, Default)]
pub(crate) struct LoopState {
    pub(crate) profile: LoopProfile,
    /// Stamp of the iteration in progress.
    iter: u64,
    /// Stamp of the first iteration of the invocation in progress.
    base: u64,
    /// The iteration in progress conflicts with an earlier one. Committed
    /// into `observed_dependence` by the latch only, so an iteration that
    /// leaves through an exit edge is never checked.
    pending: bool,
    /// Empty until the first instrumented access, and again once the
    /// (sticky) dependence is set and the stamps have no reader left.
    shadow: Shadow,
}

impl LoopState {
    /// Records an instrumented access of the iteration in progress.
    #[inline]
    pub(crate) fn touch(&mut self, addr: u64, is_write: bool) {
        let (base, iter) = (self.base, self.iter);
        let cell = self.shadow.cell(addr);
        let earlier = |stamp: u64| (base..iter).contains(&stamp);
        self.pending |= earlier(cell.write) || (is_write && earlier(cell.read));
        let own = if is_write {
            &mut cell.write
        } else {
            &mut cell.read
        };
        if *own < base {
            *own = iter;
        }
    }
}

/// Every instrumented loop (by dense index) plus the stack of active ones.
#[derive(Debug)]
pub(crate) struct Tracker {
    loops: Vec<LoopState>,
    stack: Vec<usize>,
    /// `cpu.retired` when the top of the stack last changed: instructions
    /// retired since belong to the loop on top.
    mark: u64,
}

impl Tracker {
    pub(crate) fn new(loops: usize) -> Tracker {
        Tracker {
            loops: (0..loops).map(|_| LoopState::default()).collect(),
            stack: Vec::new(),
            mark: 0,
        }
    }

    /// Charges the instructions retired since the last switch to the loop on
    /// top of the stack; call before the top changes.
    fn switch(&mut self, retired: u64) {
        if let Some(&top) = self.stack.last() {
            self.loops[top].profile.dyn_instructions += retired - self.mark;
        }
        self.mark = retired;
    }

    /// `PROF_LOOP_START`: a new invocation, unless `id` is already on top.
    pub(crate) fn start(&mut self, id: usize, retired: u64) {
        if self.stack.last() == Some(&id) {
            return;
        }
        self.switch(retired);
        self.stack.push(id);
        let l = &mut self.loops[id];
        l.profile.invocations += 1;
        l.iter += 1;
        l.base = l.iter;
        l.pending = false;
    }

    /// `PROF_LOOP_FINISH`: pops `id` and everything entered inside it.
    pub(crate) fn finish(&mut self, id: usize, retired: u64) {
        if let Some(pos) = self.stack.iter().rposition(|l| *l == id) {
            self.switch(retired);
            self.stack.truncate(pos);
        }
    }

    /// `PROF_LOOP_ITER`: the latch of `id`, if `id` is the loop on top.
    pub(crate) fn latch(&mut self, id: usize) {
        if self.stack.last() != Some(&id) {
            return;
        }
        let l = &mut self.loops[id];
        l.profile.iterations += 1;
        l.iter += 1;
        if l.pending {
            l.pending = false;
            l.profile.observed_dependence = true;
            l.shadow = Shadow::default();
        }
    }

    /// The loop instrumented accesses are charged to — the one on top of the
    /// stack, whichever loop the rule was emitted for — while its dependence
    /// question is still open.
    #[inline]
    pub(crate) fn tracked(&mut self) -> Option<&mut LoopState> {
        let l = &mut self.loops[*self.stack.last()?];
        (!l.profile.observed_dependence).then_some(l)
    }

    /// Closes the accounting at `retired` and returns the profiles by dense
    /// index (`loop_id` and `coverage` are the caller's to fill).
    pub(crate) fn into_profiles(mut self, retired: u64) -> impl Iterator<Item = LoopProfile> {
        self.switch(retired);
        self.loops.into_iter().map(|l| l.profile)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    /// What the profiler's dispatch loop feeds a tracker.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        Start(usize),
        Finish(usize),
        Latch(usize),
        /// The latch of whichever loop is on top (streams of random ids alone
        /// rarely get two iterations into one invocation).
        LatchTop,
        Access {
            addr: u64,
            is_write: bool,
        },
        /// One retired instruction.
        Retire,
    }
    use Event::{Access, Finish, Latch, LatchTop, Retire, Start};

    const LOOPS: usize = 4;

    /// Both trackers over one stream, driven the way `profile` drives them.
    fn run_both(events: &[Event]) -> (Vec<LoopProfile>, Vec<LoopProfile>) {
        let mut new = Tracker::new(LOOPS);
        let mut old = reference::Tracker::new(LOOPS);
        let mut retired = 0;
        for &event in events {
            match event {
                Start(id) => {
                    new.start(id, retired);
                    old.start(id);
                }
                Finish(id) => {
                    new.finish(id, retired);
                    old.finish(id);
                }
                Latch(id) => {
                    new.latch(id);
                    old.latch(id);
                }
                LatchTop => {
                    if let Some(id) = old.top() {
                        new.latch(id);
                        old.latch(id);
                    }
                }
                Access { addr, is_write } => {
                    if let Some(l) = new.tracked() {
                        l.touch(addr, is_write);
                    }
                    old.access(addr, is_write);
                }
                Retire => {
                    retired += 1;
                    old.retire();
                }
            }
        }
        (
            new.into_profiles(retired).collect(),
            old.into_profiles().collect(),
        )
    }

    /// Runs the stream through both trackers, checks they agree, and returns
    /// whether loop 0 observed a dependence.
    fn dependence(events: &[Event]) -> bool {
        let (new, old) = run_both(events);
        assert_eq!(new, old);
        new[0].observed_dependence
    }

    fn read(addr: u64) -> Event {
        Access {
            addr,
            is_write: false,
        }
    }

    fn write(addr: u64) -> Event {
        Access {
            addr,
            is_write: true,
        }
    }

    #[test]
    fn the_first_stamp_is_kept_not_the_last() {
        // Read in iteration 1, read then written in iteration 2: the write
        // must still see iteration 1's read.
        assert!(dependence(&[
            Start(0),
            read(64),
            Latch(0),
            read(64),
            write(64),
            Latch(0),
        ]));
        // Same for writes: written in 1 and again in 2, then read in 2.
        assert!(dependence(&[
            Start(0),
            write(64),
            Latch(0),
            write(64),
            read(64),
            Latch(0),
        ]));
    }

    #[test]
    fn a_conflict_is_committed_by_the_latch_only() {
        // The conflicting iteration leaves through an exit edge.
        let conflict = [Start(0), write(8), Latch(0), read(8)];
        assert!(!dependence(&[&conflict[..], &[Finish(0)]].concat()));
        assert!(dependence(&[&conflict[..], &[Latch(0)]].concat()));
        // Neither is it carried into the next invocation.
        assert!(!dependence(
            &[&conflict[..], &[Finish(0), Start(0), Latch(0)]].concat()
        ));
    }

    #[test]
    fn a_repushed_loop_starts_a_new_invocation() {
        // Stamps of the first invocation are stale in the second, on the
        // stack twice or not.
        for reenter in [&[Finish(0), Start(0)][..], &[Start(1), Start(0)][..]] {
            let events = [
                &[Start(0), write(8), Latch(0)],
                reenter,
                &[read(8), Latch(0)],
            ]
            .concat();
            let (new, old) = run_both(&events);
            assert_eq!(new, old);
            assert_eq!(new[0].invocations, 2);
            assert!(!new[0].observed_dependence);
        }
    }

    #[test]
    fn accesses_are_charged_to_the_loop_on_top() {
        // Loop 1 runs inside an iteration of loop 0: its accesses are its
        // own, and loop 0 only sees what it touched while on top.
        let (new, old) = run_both(&[
            Start(0),
            write(8),
            Latch(0),
            Start(1),
            read(8),
            Latch(1),
            write(8),
            Latch(1),
            Finish(1),
            Latch(0),
        ]);
        assert_eq!(new, old);
        assert!(!new[0].observed_dependence);
        assert!(new[1].observed_dependence);
    }

    #[test]
    fn a_write_after_an_earlier_read_and_distinct_unaligned_bytes() {
        assert!(dependence(&[
            Start(0),
            read(8),
            Latch(0),
            write(8),
            Latch(0)
        ]));
        assert!(!dependence(&[
            Start(0),
            read(8),
            Latch(0),
            read(8),
            Latch(0)
        ]));
        // Exact byte addresses are the key: 8 and 12 overlap as words but
        // are different addresses, 12 and 12 are not.
        assert!(!dependence(&[
            Start(0),
            write(8),
            Latch(0),
            read(12),
            Latch(0)
        ]));
        assert!(dependence(&[
            Start(0),
            write(12),
            Latch(0),
            read(12),
            Latch(0)
        ]));
    }

    #[test]
    fn instructions_are_charged_between_stack_switches() {
        let (new, old) = run_both(&[
            Retire,
            Start(0),
            Retire,
            Retire,
            Start(1),
            Retire,
            Finish(1),
            Retire,
            Finish(0),
            Retire,
            Start(2),
            Retire,
        ]);
        assert_eq!(new, old);
        let charged: Vec<u64> = new.iter().map(|p| p.dyn_instructions).collect();
        assert_eq!(charged, [3, 1, 1, 0]);
    }

    /// Addresses that collide often: aligned words, bytes inside them, two
    /// pages, the first page above the radix range and the top of the space.
    const ADDRS: [u64; 12] = [
        0x1000,
        0x1004,
        0x1008,
        0x1009,
        0x100c,
        0x1ff8,
        0x1ffc,
        0x2000,
        1 << 31,
        (1 << 31) + 4,
        u64::MAX - 7,
        u64::MAX,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Stamps and sets report the same `LoopProfile`s for any stream of
        /// loop events: nested loops, re-invocation with and without a pop,
        /// exits without a latch, latches and finishes of loops that are not
        /// on top, unaligned and spilled addresses.
        #[test]
        fn matches_the_reference_model(
            steps in proptest::collection::vec(
                (0u8..16, 0usize..LOOPS, 0usize..ADDRS.len(), proptest::arbitrary::any::<bool>()),
                0..400,
            ),
        ) {
            let events: Vec<Event> = steps
                .iter()
                .map(|&(kind, id, addr, is_write)| match kind {
                    0 => Start(id),
                    1 => Finish(id),
                    2 => Latch(id),
                    3..=4 => LatchTop,
                    5..=7 => Retire,
                    _ => Access { addr: ADDRS[addr], is_write },
                })
                .collect();
            let (new, old) = run_both(&events);
            proptest::prop_assert_eq!(new, old);
        }
    }
}
