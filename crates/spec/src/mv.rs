//! The multi-version guest-memory store and the per-iteration speculative
//! view.
//!
//! [`MvMemory`] keeps, for every 64-bit-aligned guest word, the latest value
//! each iteration's most recent incarnation wrote there, ordered by
//! iteration. A speculative read by iteration `i` observes the
//! value written by the *highest iteration below `i`* — exactly the Block-STM
//! visibility rule — with one refinement that keeps the whole engine
//! deterministic when driven from a single coordinator thread: every entry is
//! stamped with the virtual time at which its incarnation finished executing,
//! and an execution that starts at virtual time `t` only sees entries
//! recorded at or before `t`. Two iterations that would race on real hardware
//! therefore conflict in exactly the same (reproducible) way on every run.
//!
//! When an incarnation is aborted its entries are replaced by *estimate*
//! markers: a later iteration that reads an estimate knows a lower iteration
//! is about to rewrite that word and blocks on it instead of wasting a full
//! execution that is doomed to fail validation.
//!
//! ## Layout
//!
//! Index, don't hash. The store is one [`janus_vm::PageTable`], the radix
//! under every guest-memory view: a touched 4 KiB guest page maps to one
//! block holding a version vector per word, ascending by iteration. A read
//! is a radix lookup, an index and a binary search; most vectors hold a
//! handful of versions and those of never-written words stay unallocated.
//! The table iterates pages in ascending order, so the final image comes out
//! sorted by address. Each iteration's latest write set is kept as a sorted
//! word list, and recording the next incarnation finds the stale entries by
//! diffing two sorted lists.
//!
//! A [`SpecView`] keeps its read and write sets in sorted vectors in the
//! [`ViewBuffers`] its engine reuses: a lookup is a binary search, a warm
//! engine allocates nothing per access, and a read set is already in the
//! order the iteration's saved copy and validation want. The only hash over
//! guest addresses left is the page table's keyed spill for pages above its
//! radix.
//!
//! ## Locks without threads
//!
//! The speculation engine drives the store from one thread, yet it is
//! `Sync` and every operation takes `&self`: the page table sits behind one
//! [`RwLock`] (a `record` or an estimate conversion takes it for writing
//! once, for its whole write set) and per-iteration write-set bookkeeping
//! behind per-iteration [`Mutex`]es. The reason is the ledger's
//! micro-benchmarks, which share one `&MvMemory` across reader threads to
//! price the read path. Uncontended, the behaviour is bit-identical to an
//! unshared store.

use janus_vm::{BasePages, GuestMemory, PageTable, PeekMemory};
use std::sync::{Mutex, RwLock};

/// Index of a loop iteration inside one speculative invocation.
pub type Iteration = usize;

/// The i-th re-execution of an iteration, counting from 0.
pub type Incarnation = u32;

/// A store page covers one 4 KiB guest page.
const PAGE_SHIFT: u64 = 12;
const PAGE_WORDS: usize = 1 << (PAGE_SHIFT - 3);

/// Where a speculative read obtained its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOrigin {
    /// The value came from shared memory (no lower iteration had written the
    /// word when the read executed).
    Base,
    /// The value was written by a lower iteration's incarnation.
    Version {
        /// The iteration that wrote the value.
        iteration: Iteration,
        /// The incarnation of that iteration.
        incarnation: Incarnation,
    },
}

/// One multi-version entry for a word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// A committed speculative write.
    Data {
        incarnation: Incarnation,
        value: u64,
        /// Virtual time at which the writing incarnation finished.
        at: u64,
    },
    /// The previous incarnation of this iteration wrote here and was
    /// aborted; the next incarnation is estimated to write here again.
    Estimate {
        /// Virtual time at which the abort was processed.
        at: u64,
    },
}

/// The versions of one word, ascending by iteration.
type Versions = Vec<(Iteration, Entry)>;

/// One store page: the version vector of every word of a guest page.
type Page = [Versions; PAGE_WORDS];

/// The page number and in-page index of an aligned word.
fn split(word: u64) -> (u64, usize) {
    (word >> PAGE_SHIFT, (word >> 3) as usize % PAGE_WORDS)
}

/// The version vector of `word`, mapping its page first if needed.
fn versions_mut(pages: &mut PageTable<Box<Page>>, word: u64) -> &mut Versions {
    let (page, index) = split(word);
    &mut pages.get_or_insert_with(page, || Box::new(std::array::from_fn(|_| Versions::new())))
        [index]
}

/// `iteration`'s slot in a version vector: `Ok(pos)` when the iteration has
/// a version there, `Err(pos)` with the insertion point when it does not.
fn slot(versions: &Versions, iteration: Iteration) -> Result<usize, usize> {
    versions.binary_search_by_key(&iteration, |&(it, _)| it)
}

/// The outcome of resolving a speculative read in the multi-version store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadResult {
    /// No visible lower-iteration write: read shared memory.
    Base,
    /// A visible lower-iteration write supplies the value.
    Versioned(ReadOrigin, u64),
    /// The highest visible lower-iteration entry is an estimate: the reader
    /// should block on the named iteration instead of executing further.
    Blocked(Iteration),
}

/// The multi-version memory: `(word address, iteration) -> value`, layered
/// over a base memory that is only read, never written, until the final
/// commit. `Sync`, for the reason the module docs give.
#[derive(Debug)]
pub struct MvMemory {
    pages: RwLock<PageTable<Box<Page>>>,
    /// The words written by the latest incarnation of each iteration, sorted,
    /// used to remove stale entries when the next incarnation writes less.
    last_writes: Vec<Mutex<Vec<u64>>>,
}

impl MvMemory {
    /// An empty store for an invocation of `iterations` iterations.
    #[must_use]
    pub fn new(iterations: usize) -> MvMemory {
        MvMemory {
            pages: RwLock::default(),
            last_writes: (0..iterations).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Calls `f(word, versions)` for every word holding at least one
    /// version, in ascending address order.
    fn for_each_word(&self, mut f: impl FnMut(u64, &Versions)) {
        for (page, words) in self.pages.read().expect("mv pages poisoned").iter() {
            for (index, versions) in words.iter().enumerate() {
                if !versions.is_empty() {
                    f((page << PAGE_SHIFT) | (index as u64) << 3, versions);
                }
            }
        }
    }

    /// Resolves a read of `word` by `iteration` whose execution started at
    /// virtual time `now`. Pass [`u64::MAX`] to see every entry (validation
    /// and commit are "late" and observe the full store).
    #[must_use]
    pub fn read(&self, word: u64, iteration: Iteration, now: u64) -> ReadResult {
        let (page, index) = split(word);
        let pages = self.pages.read().expect("mv pages poisoned");
        let Some(words) = pages.get(page) else {
            return ReadResult::Base;
        };
        let versions = &words[index];
        let below = versions.partition_point(|&(it, _)| it < iteration);
        for &(it, entry) in versions[..below].iter().rev() {
            match entry {
                Entry::Data {
                    incarnation,
                    value,
                    at,
                } if at <= now => {
                    return ReadResult::Versioned(
                        ReadOrigin::Version {
                            iteration: it,
                            incarnation,
                        },
                        value,
                    );
                }
                Entry::Estimate { at } if at <= now => return ReadResult::Blocked(it),
                // Recorded after this execution started: not visible yet.
                _ => {}
            }
        }
        ReadResult::Base
    }

    /// Records the write set of one finished incarnation, stamped with the
    /// virtual time `at` at which it completed. `writes` yields each written
    /// word once, in any order (a view's sorted buffer, or a map). Entries
    /// written by the previous incarnation but absent from the new write set
    /// are removed. Returns `true` when the incarnation wrote to a word its
    /// predecessor did not touch (Block-STM's `wrote_new_location`).
    pub fn record<'w>(
        &self,
        iteration: Iteration,
        incarnation: Incarnation,
        writes: impl IntoIterator<Item = (&'w u64, &'w u64)>,
        at: u64,
    ) -> bool {
        let mut last = self.last_writes[iteration]
            .lock()
            .expect("mv write set poisoned");
        let mut pages = self.pages.write().expect("mv pages poisoned");
        let mut wrote_new = false;
        let previous = last.len();
        for (&word, &value) in writes {
            let entry = Entry::Data {
                incarnation,
                value,
                at,
            };
            let versions = versions_mut(&mut pages, word);
            match slot(versions, iteration) {
                Ok(pos) => versions[pos].1 = entry,
                Err(pos) => {
                    versions.insert(pos, (iteration, entry));
                    wrote_new = true;
                }
            }
            last.push(word);
        }
        // The previous write set is `last[..previous]`, the new one follows
        // it; sorting an already sorted buffer is a linear pass.
        last[previous..].sort_unstable();
        let (old, new) = last.split_at(previous);
        let mut new = new.iter().peekable();
        for &word in old {
            while new.next_if(|&&w| w < word).is_some() {}
            if new.peek() != Some(&&word) {
                let versions = versions_mut(&mut pages, word);
                if let Ok(pos) = slot(versions, iteration) {
                    versions.remove(pos);
                }
            }
        }
        last.drain(..previous);
        wrote_new
    }

    /// Replaces every entry of `iteration`'s latest incarnation with an
    /// estimate marker (called when the incarnation is aborted).
    pub fn convert_writes_to_estimates(&self, iteration: Iteration, at: u64) {
        let last = self.last_writes[iteration]
            .lock()
            .expect("mv write set poisoned");
        let mut pages = self.pages.write().expect("mv pages poisoned");
        for &word in last.iter() {
            let versions = versions_mut(&mut pages, word);
            if let Ok(pos) = slot(versions, iteration) {
                versions[pos].1 = Entry::Estimate { at };
            }
        }
    }

    /// The final memory image: for every word, the value written by the
    /// highest iteration, sorted by address. Must only be called once every
    /// iteration has validated (no estimates remain).
    #[must_use]
    pub fn final_image(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.for_each_word(|word, versions| {
            if let Some((_, Entry::Data { value, .. })) = versions.last() {
                out.push((word, *value));
            }
        });
        out
    }
}

/// One read of an incarnation's read set: the word, where its value came
/// from and what it was (the latter enables lazy *value* validation on top
/// of read-from tracking).
pub type ReadEntry = (u64, (ReadOrigin, u64));

/// Counters of one incarnation's execution through a [`SpecView`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// 64-bit word reads that consulted shared state (own-buffer hits are
    /// not counted; repeated reads of a word are).
    pub reads: u64,
    /// 64-bit word writes buffered.
    pub writes: u64,
}

/// The read and write sets a [`SpecView`] fills. One per engine, reused by
/// every incarnation it runs: the vectors keep
/// their capacity, so a warm engine allocates nothing for them.
#[derive(Debug, Default)]
pub struct ViewBuffers {
    /// Origin and value of the first read of every shared word, sorted by
    /// word.
    pub reads: Vec<ReadEntry>,
    /// Buffered writes, `(aligned word, value)` sorted by word.
    pub writes: Vec<(u64, u64)>,
}

/// A per-incarnation speculative view over `MvMemory` + base memory.
///
/// Reads consult the incarnation's own write buffer first, then the
/// multi-version store (restricted to entries visible at the incarnation's
/// virtual start time), then shared memory — recording the origin and value
/// of every shared read. Writes are buffered until the engine records them.
///
/// The base is borrowed *immutably* (through [`PeekMemory`]): nothing
/// touches the base until the final commit. Base
/// words are read through the view's own [`BasePages`] cache, so a read of a
/// page the incarnation has already read skips the base's page table.
#[derive(Debug)]
pub struct SpecView<'a, M: PeekMemory> {
    base: &'a M,
    base_pages: BasePages<'a>,
    mv: &'a MvMemory,
    iteration: Iteration,
    /// Virtual time at which this incarnation started executing.
    now: u64,
    buffers: &'a mut ViewBuffers,
    blocked_on: Option<Iteration>,
    stats: ViewStats,
}

impl<'a, M: PeekMemory> SpecView<'a, M> {
    /// A view for one incarnation of `iteration` starting at virtual time
    /// `now`, over emptied `buffers`.
    pub fn new(
        base: &'a M,
        mv: &'a MvMemory,
        iteration: Iteration,
        now: u64,
        buffers: &'a mut ViewBuffers,
    ) -> Self {
        buffers.reads.clear();
        buffers.writes.clear();
        SpecView {
            base,
            base_pages: BasePages::default(),
            mv,
            iteration,
            now,
            buffers,
            blocked_on: None,
            stats: ViewStats::default(),
        }
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ViewStats {
        self.stats
    }

    /// The lowest iteration whose estimate the incarnation read, if any (the
    /// engine abandons such an incarnation). The read and write sets stay in
    /// the buffers the view was built over.
    #[must_use]
    pub fn blocked_on(&self) -> Option<Iteration> {
        self.blocked_on
    }

    /// Where `word` is, or would be inserted, in the write buffer.
    fn buffered(&self, word: u64) -> Result<usize, usize> {
        self.buffers.writes.binary_search_by_key(&word, |&(w, _)| w)
    }

    fn aligned(addr: u64) -> u64 {
        addr & !7
    }
}

impl<M: PeekMemory> GuestMemory for SpecView<'_, M> {
    fn read_u8(&mut self, addr: u64) -> u8 {
        let word = Self::aligned(addr);
        let v = self.read_u64(word);
        v.to_le_bytes()[(addr - word) as usize]
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        let word = Self::aligned(addr);
        let mut bytes = self.read_u64(word).to_le_bytes();
        bytes[(addr - word) as usize] = value;
        self.write_u64(word, u64::from_le_bytes(bytes));
    }

    fn read_u64(&mut self, addr: u64) -> u64 {
        let word = Self::aligned(addr);
        if word == addr {
            if let Ok(pos) = self.buffered(word) {
                return self.buffers.writes[pos].1;
            }
            self.stats.reads += 1;
            // First read wins: the incarnation's view of a word must be the
            // value it first observed.
            let slot = match self.buffers.reads.binary_search_by_key(&word, |&(w, _)| w) {
                Ok(seen) => return self.buffers.reads[seen].1 .1,
                Err(slot) => slot,
            };
            let (origin, value) = match self.mv.read(word, self.iteration, self.now) {
                ReadResult::Versioned(origin, value) => (origin, value),
                ReadResult::Base => (ReadOrigin::Base, self.base_pages.peek_u64(self.base, word)),
                ReadResult::Blocked(on) => {
                    // Remember the *lowest* blocking iteration; execution is
                    // abandoned by the engine, the value is a placeholder.
                    let lowest = self.blocked_on.map_or(on, |prev| prev.min(on));
                    self.blocked_on = Some(lowest);
                    (ReadOrigin::Base, self.base_pages.peek_u64(self.base, word))
                }
            };
            self.buffers.reads.insert(slot, (word, (origin, value)));
            value
        } else {
            // Unaligned: compose from the two covering words.
            let lo = self.read_u64(word);
            let hi = self.read_u64(word.wrapping_add(8));
            let shift = (addr - word) * 8;
            (lo >> shift) | (hi << (64 - shift))
        }
    }

    fn write_u64(&mut self, addr: u64, value: u64) {
        let word = Self::aligned(addr);
        if word == addr {
            match self.buffered(word) {
                Ok(pos) => self.buffers.writes[pos].1 = value,
                Err(pos) => self.buffers.writes.insert(pos, (word, value)),
            }
            self.stats.writes += 1;
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), *b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_vm::FlatMemory;
    use std::collections::HashMap;

    /// Records a write set given as `(word, value)` pairs.
    fn record(
        mv: &MvMemory,
        iteration: Iteration,
        incarnation: Incarnation,
        writes: &[(u64, u64)],
        at: u64,
    ) -> bool {
        mv.record(
            iteration,
            incarnation,
            writes.iter().map(|(w, v)| (w, v)),
            at,
        )
    }

    /// Every version of every word, in address then iteration order.
    fn versions(mv: &MvMemory) -> Vec<(u64, Versions)> {
        let mut out = Vec::new();
        mv.for_each_word(|word, versions| out.push((word, versions.clone())));
        out
    }

    /// Estimate markers live in the store.
    fn estimates(mv: &MvMemory) -> usize {
        let versions = versions(mv);
        let entries = versions.iter().flat_map(|(_, v)| v);
        entries
            .filter(|(_, e)| matches!(e, Entry::Estimate { .. }))
            .count()
    }

    #[test]
    fn reads_observe_highest_visible_lower_iteration() {
        let mv = MvMemory::new(8);
        assert!(record(&mv, 2, 0, &[(0x1000, 22)], 10));
        assert!(record(&mv, 5, 0, &[(0x1000, 55)], 30));
        // Iteration 7, started at t=40: sees iteration 5.
        assert_eq!(
            mv.read(0x1000, 7, 40),
            ReadResult::Versioned(
                ReadOrigin::Version {
                    iteration: 5,
                    incarnation: 0
                },
                55
            )
        );
        // Iteration 7, started at t=20: iteration 5's write is in its future,
        // so it sees iteration 2 — the deterministic model of a real race.
        assert_eq!(
            mv.read(0x1000, 7, 20),
            ReadResult::Versioned(
                ReadOrigin::Version {
                    iteration: 2,
                    incarnation: 0
                },
                22
            )
        );
        // Iteration 1 never sees higher iterations.
        assert_eq!(mv.read(0x1000, 1, u64::MAX), ReadResult::Base);
    }

    #[test]
    fn estimates_block_readers_and_rerecording_clears_them() {
        let mv = MvMemory::new(8);
        record(&mv, 3, 0, &[(0x2000, 7)], 5);
        mv.convert_writes_to_estimates(3, 6);
        assert_eq!(mv.read(0x2000, 4, 10), ReadResult::Blocked(3));
        assert_eq!(estimates(&mv), 1);
        // The next incarnation writes elsewhere: the estimate is removed.
        record(&mv, 3, 1, &[(0x2008, 8)], 12);
        assert_eq!(mv.read(0x2000, 4, 20), ReadResult::Base);
        assert_eq!(estimates(&mv), 0);
        assert_eq!(
            mv.read(0x2008, 4, 20),
            ReadResult::Versioned(
                ReadOrigin::Version {
                    iteration: 3,
                    incarnation: 1
                },
                8
            )
        );
    }

    #[test]
    fn rerecording_a_smaller_write_set_removes_the_stale_versions() {
        let mv = MvMemory::new(4);
        // Three pages, out of address order, under two iterations.
        let wide = [(0x5010, 1), (0x3000, 2), (0x7ff8, 3), (0x3008, 4)];
        record(&mv, 1, 0, &wide, 1);
        record(&mv, 2, 0, &[(0x3000, 9)], 2);
        // Iteration 1 re-executes writing two of its four words, one of them
        // a word it did not write before.
        record(&mv, 1, 1, &[(0x7ff8, 30), (0x4000, 40)], 3);
        assert_eq!(
            mv.final_image(),
            [(0x3000, 9), (0x4000, 40), (0x7ff8, 30)],
            "the stale 0x3008 and 0x5010 are gone, iteration 2 keeps 0x3000"
        );
        assert_eq!(mv.read(0x3000, 2, u64::MAX), ReadResult::Base);
        assert_eq!(mv.read(0x5010, 3, u64::MAX), ReadResult::Base);
        // An empty write set removes everything the iteration wrote.
        record(&mv, 1, 2, &[], 4);
        assert_eq!(mv.final_image(), [(0x3000, 9)]);
        assert_eq!(*mv.last_writes[1].lock().unwrap(), Vec::<u64>::new());
        assert_eq!(*mv.last_writes[2].lock().unwrap(), [0x3000]);
    }

    #[test]
    fn wrote_new_is_true_only_for_new_words() {
        let mv = MvMemory::new(4);
        assert!(record(&mv, 1, 0, &[(0x10, 1), (0x18, 2)], 1), "first write");
        assert!(!record(&mv, 1, 1, &[(0x18, 3), (0x10, 4)], 2), "same words");
        assert!(!record(&mv, 1, 2, &[(0x10, 5)], 3), "a subset");
        assert!(record(&mv, 1, 3, &[(0x10, 6), (0x18, 7)], 4), "0x18 again");
        assert!(!record(&mv, 1, 4, &[], 5), "nothing");
        // Another iteration's versions of the same words do not count.
        record(&mv, 1, 5, &[(0x10, 8)], 6);
        assert!(record(&mv, 2, 0, &[(0x10, 9)], 7));
        assert!(!record(&mv, 2, 1, &[(0x10, 9)], 8));
    }

    #[test]
    fn map_and_sorted_inputs_leave_identical_stores() {
        // The same incarnations recorded once from maps, once from sorted
        // buffers: every version, estimate and write-set list must agree.
        let sets = [
            (0, 0, vec![(0x9008, 1), (0x1000, 2), (0x5000, 3)]),
            (3, 0, vec![(0x1000, 4), (0x1ff8, 5)]),
            (1, 0, vec![(0x5000, 6)]),
            (0, 1, vec![(0x5000, 7), (0x2000, 8)]),
            (3, 1, vec![(0x1ff8, 9), (0x1000, 10), (0x0, 11)]),
        ];
        let from_maps = MvMemory::new(4);
        let from_sorted = MvMemory::new(4);
        for (at, (iteration, incarnation, mut sorted)) in sets.into_iter().enumerate() {
            let map: HashMap<u64, u64> = sorted.iter().copied().collect();
            sorted.sort_unstable();
            assert_eq!(
                from_maps.record(iteration, incarnation, &map, at as u64),
                record(&from_sorted, iteration, incarnation, &sorted, at as u64),
                "wrote_new of set {at}"
            );
        }
        from_maps.convert_writes_to_estimates(1, 9);
        from_sorted.convert_writes_to_estimates(1, 9);
        assert_eq!(versions(&from_maps), versions(&from_sorted));
        for (a, b) in from_maps.last_writes.iter().zip(&from_sorted.last_writes) {
            assert_eq!(*a.lock().unwrap(), *b.lock().unwrap());
        }
    }

    #[test]
    fn view_buffers_writes_and_records_first_read() {
        let mut base = FlatMemory::new();
        base.write_u64(0x3000, 9);
        let mv = MvMemory::new(1);
        let mut buffers = ViewBuffers::default();
        let mut view = SpecView::new(&base, &mv, 0, 0, &mut buffers);
        assert_eq!(view.read_u64(0x3000), 9);
        view.write_u64(0x3000, 11);
        assert_eq!(view.read_u64(0x3000), 11, "reads observe own writes");
        assert!(view.blocked_on().is_none());
        let stats = view.stats();
        assert_eq!(buffers.reads, [(0x3000, (ReadOrigin::Base, 9))]);
        assert_eq!(buffers.writes, [(0x3000, 11)]);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(base.peek_u64(0x3000), 9, "base untouched until commit");
    }

    #[test]
    fn view_sets_stay_sorted_and_the_first_read_wins() {
        let mut base = FlatMemory::new();
        for word in [0x1000, 0x2000, 0x3000] {
            base.write_u64(word, word);
        }
        let mv = MvMemory::new(2);
        let mut buffers = ViewBuffers::default();
        let mut view = SpecView::new(&base, &mv, 1, 0, &mut buffers);
        for word in [0x3000, 0x1000, 0x2000, 0x1000] {
            assert_eq!(view.read_u64(word), word);
        }
        // A lower iteration writes 0x1000 meanwhile: the view keeps the value
        // it first observed.
        record(&mv, 0, 0, &[(0x1000, 7)], 0);
        assert_eq!(view.read_u64(0x1000), 0x1000);
        for word in [0x2008, 0x0ff8, 0x2008] {
            view.write_u64(word, 1);
        }
        assert_eq!(
            view.stats(),
            ViewStats {
                reads: 5,
                writes: 3
            }
        );
        let words: Vec<u64> = buffers.reads.iter().map(|&(w, _)| w).collect();
        assert_eq!(words, [0x1000, 0x2000, 0x3000]);
        assert_eq!(buffers.writes, [(0x0ff8, 1), (0x2008, 1)]);
    }

    #[test]
    fn byte_accesses_compose_through_words() {
        let mut base = FlatMemory::new();
        base.write_u64(0x1000, 0x1122_3344_5566_7788);
        let mv = MvMemory::new(1);
        let mut buffers = ViewBuffers::default();
        let mut view = SpecView::new(&base, &mv, 0, 0, &mut buffers);
        assert_eq!(view.read_u8(0x1001), 0x77);
        view.write_u8(0x1001, 0xaa);
        assert_eq!(view.read_u8(0x1001), 0xaa);
        assert_eq!(buffers.writes, [(0x1000, 0x1122_3344_5566_aa88)]);
    }

    #[test]
    fn final_image_takes_the_highest_iteration_per_word() {
        let mv = MvMemory::new(8);
        record(&mv, 0, 0, &[(0x10, 1)], 1);
        record(&mv, 4, 0, &[(0x10, 5), (0x18, 6)], 2);
        record(&mv, 2, 0, &[(0x10, 3)], 3);
        assert_eq!(mv.final_image(), vec![(0x10, 5), (0x18, 6)]);
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_lose_entries() {
        // A smoke test of the shared store itself: 8 threads record and
        // re-read disjoint iterations' writes over a shared word pool.
        let mv = MvMemory::new(64);
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let mv = &mv;
                scope.spawn(move || {
                    for k in 0..8usize {
                        let iteration = t * 8 + k;
                        let word = 0x9000 + (iteration as u64 % 16) * 8;
                        record(mv, iteration, 0, &[(word, iteration as u64)], 1);
                        // The write is immediately visible to higher readers.
                        match mv.read(word, iteration + 1, u64::MAX) {
                            ReadResult::Versioned(_, _) => {}
                            other => panic!("expected a versioned read, got {other:?}"),
                        }
                    }
                });
            }
        });
        let image = mv.final_image();
        assert_eq!(image.len(), 16);
        // Each word keeps the highest of the four iterations that wrote it.
        assert!(image.iter().all(|&(_, v)| v >= 48), "{image:?}");
    }
}
