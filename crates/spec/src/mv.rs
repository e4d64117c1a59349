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
//! The racing worker pool ([`crate::run_speculative_pooled`]) opts out of the
//! gate by reading at `t = u64::MAX`: workers observe everything recorded so
//! far, which is classic Block-STM visibility.
//!
//! When an incarnation is aborted its entries are replaced by *estimate*
//! markers: a later iteration that reads an estimate knows a lower iteration
//! is about to rewrite that word and blocks on it instead of wasting a full
//! execution that is doomed to fail validation.
//!
//! ## Layout
//!
//! The store is page-indexed, in the shape `janus-vm`'s copy-on-write
//! overlay proved: a touched 4 KiB guest page maps to one block holding a
//! small version vector per word, ascending by iteration. A read is a page
//! lookup, an index and a binary search; most vectors hold a handful of
//! versions and those of never-written words stay unallocated.
//!
//! ## Thread safety
//!
//! The store is safe to share across OS worker threads: the page table is
//! sharded over [`RwLock`]s (readers proceed in parallel, writers only
//! contend within a shard) and per-iteration write-set bookkeeping sits
//! behind per-iteration [`Mutex`]es (the scheduler guarantees at most one
//! live incarnation per iteration, so these never contend). All operations
//! take `&self`; driven from a single thread the behaviour is bit-identical
//! to the pre-concurrency store, which is what keeps the deterministic
//! virtual-time engine reproducible.

use janus_vm::{GuestMemory, PeekMemory};
use std::collections::{hash_map, HashMap};
use std::sync::{Mutex, RwLock};

/// Index of a loop iteration inside one speculative invocation.
pub type Iteration = usize;

/// The i-th re-execution of an iteration, counting from 0.
pub type Incarnation = u32;

/// Number of page-table shards. A small power of two: enough to keep eight
/// workers from serialising on one lock, small enough that collecting the
/// final image stays cheap.
const SHARDS: usize = 16;
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
#[derive(Debug, Clone, Copy)]
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

/// One shard of the page table: page number -> one version vector per word
/// of the page.
type Shard = RwLock<HashMap<u64, Box<[Versions]>>>;

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
/// commit. Shareable across worker threads; see the module docs.
#[derive(Debug)]
pub struct MvMemory {
    shards: Vec<Shard>,
    /// The word set written by the latest incarnation of each iteration, used
    /// to remove stale entries when the next incarnation writes less.
    last_writes: Vec<Mutex<Vec<u64>>>,
}

impl MvMemory {
    /// An empty store for an invocation of `iterations` iterations.
    #[must_use]
    pub fn new(iterations: usize) -> MvMemory {
        MvMemory {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            last_writes: (0..iterations).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The shard, page number and in-page index of an aligned word.
    fn locate(&self, word: u64) -> (&Shard, u64, usize) {
        let page = word >> PAGE_SHIFT;
        let index = (word >> 3) as usize % PAGE_WORDS;
        (&self.shards[page as usize % SHARDS], page, index)
    }

    /// Runs `f` on `iteration`'s slot in `word`'s version vector: `Ok(pos)`
    /// when the iteration has a version there, `Err(pos)` with the insertion
    /// point when it does not.
    fn with_version<R>(
        &self,
        word: u64,
        iteration: Iteration,
        f: impl FnOnce(&mut Versions, Result<usize, usize>) -> R,
    ) -> R {
        let (shard, page, index) = self.locate(word);
        let mut shard = shard.write().expect("mv shard poisoned");
        let versions = &mut shard
            .entry(page)
            .or_insert_with(|| (0..PAGE_WORDS).map(|_| Versions::new()).collect())[index];
        let pos = versions.binary_search_by_key(&iteration, |&(it, _)| it);
        f(versions, pos)
    }

    /// Calls `f(word, versions)` for every word holding at least one
    /// version, in no particular order.
    fn for_each_word(&self, mut f: impl FnMut(u64, &Versions)) {
        for shard in &self.shards {
            for (&page, words) in shard.read().expect("mv shard poisoned").iter() {
                for (index, versions) in words.iter().enumerate() {
                    if !versions.is_empty() {
                        f((page << PAGE_SHIFT) | (index as u64) << 3, versions);
                    }
                }
            }
        }
    }

    /// Number of estimate markers currently live in the store. Zero once
    /// every iteration has (re-)executed and validated — the invariant the
    /// convergence tests assert.
    #[must_use]
    pub fn live_estimates(&self) -> u64 {
        let mut estimates = 0;
        self.for_each_word(|_, versions| {
            estimates += versions
                .iter()
                .filter(|(_, e)| matches!(e, Entry::Estimate { .. }))
                .count() as u64;
        });
        estimates
    }

    /// Resolves a read of `word` by `iteration` whose execution started at
    /// virtual time `now`. Pass [`u64::MAX`] to see every entry (validation
    /// and commit are "late" and observe the full store; racing workers use
    /// the same to get real Block-STM visibility).
    #[must_use]
    pub fn read(&self, word: u64, iteration: Iteration, now: u64) -> ReadResult {
        let (shard, page, index) = self.locate(word);
        let shard = shard.read().expect("mv shard poisoned");
        let Some(versions) = shard.get(&page).map(|words| &words[index]) else {
            return ReadResult::Base;
        };
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
    /// virtual time `at` at which it completed. Entries written by the
    /// previous incarnation but absent from the new write set are removed.
    /// Returns `true` when the incarnation wrote to a word its predecessor
    /// did not touch (Block-STM's `wrote_new_location`).
    ///
    /// The scheduler dispatches at most one live incarnation per iteration,
    /// so concurrent `record` calls always target different iterations.
    pub fn record(
        &self,
        iteration: Iteration,
        incarnation: Incarnation,
        writes: &HashMap<u64, u64>,
        at: u64,
    ) -> bool {
        let mut wrote_new = false;
        for (&word, &value) in writes {
            let entry = Entry::Data {
                incarnation,
                value,
                at,
            };
            wrote_new |= self.with_version(word, iteration, |versions, pos| match pos {
                Ok(pos) => {
                    versions[pos].1 = entry;
                    false
                }
                Err(pos) => {
                    versions.insert(pos, (iteration, entry));
                    true
                }
            });
        }
        let mut last = self.last_writes[iteration]
            .lock()
            .expect("mv write set poisoned");
        for &word in last.iter().filter(|word| !writes.contains_key(word)) {
            self.with_version(word, iteration, |versions, pos| {
                if let Ok(pos) = pos {
                    versions.remove(pos);
                }
            });
        }
        last.clear();
        last.extend(writes.keys());
        wrote_new
    }

    /// Replaces every entry of `iteration`'s latest incarnation with an
    /// estimate marker (called when the incarnation is aborted).
    pub fn convert_writes_to_estimates(&self, iteration: Iteration, at: u64) {
        let last = self.last_writes[iteration]
            .lock()
            .expect("mv write set poisoned");
        for &word in last.iter() {
            self.with_version(word, iteration, |versions, pos| {
                if let Ok(pos) = pos {
                    versions[pos].1 = Entry::Estimate { at };
                }
            });
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
        out.sort_unstable();
        out
    }

    /// Applies the final image to `base` (the commit at the end of a
    /// successful speculative invocation).
    pub fn commit_into<M: GuestMemory>(&self, base: &mut M) {
        for (word, value) in self.final_image() {
            base.write_u64(word, value);
        }
    }
}

/// A read recorded by one incarnation: where the value came from and what it
/// was (the latter enables lazy *value* validation on top of read-from
/// tracking).
pub type ReadSet = HashMap<u64, (ReadOrigin, u64)>;

/// Counters of one incarnation's execution through a [`SpecView`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// 64-bit word reads that consulted shared state (own-buffer hits are
    /// not counted).
    pub reads: u64,
    /// 64-bit word writes buffered.
    pub writes: u64,
}

/// The read and write sets a [`SpecView`] fills. One per engine (or per
/// racing worker), reused by every incarnation it runs: the maps keep their
/// tables, so an incarnation allocates nothing for them.
#[derive(Debug, Default)]
pub struct ViewBuffers {
    /// Origin and value of the first read of every shared word.
    pub reads: ReadSet,
    /// Buffered writes, by aligned word.
    pub writes: HashMap<u64, u64>,
}

/// A per-incarnation speculative view over `MvMemory` + base memory.
///
/// Reads consult the incarnation's own write buffer first, then the
/// multi-version store (restricted to entries visible at the incarnation's
/// virtual start time), then shared memory — recording the origin and value
/// of every shared read. Writes are buffered until the engine records them.
///
/// The base is borrowed *immutably* (through [`PeekMemory`]): any number of
/// views — one per racing worker thread — can execute over the same shared
/// image at once, and nothing touches the base until the final commit.
#[derive(Debug)]
pub struct SpecView<'a, M: PeekMemory> {
    base: &'a M,
    mv: &'a MvMemory,
    iteration: Iteration,
    /// Virtual time at which this incarnation started executing
    /// ([`u64::MAX`] for racing workers: see everything recorded so far).
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
            mv,
            iteration,
            now,
            buffers,
            blocked_on: None,
            stats: ViewStats::default(),
        }
    }

    /// The iteration this view belongs to.
    #[must_use]
    pub fn iteration(&self) -> Iteration {
        self.iteration
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
            if let Some(v) = self.buffers.writes.get(&word) {
                return *v;
            }
            self.stats.reads += 1;
            // First read wins: the incarnation's view of a word must be the
            // value it first observed.
            let slot = match self.buffers.reads.entry(word) {
                hash_map::Entry::Occupied(seen) => return seen.get().1,
                hash_map::Entry::Vacant(slot) => slot,
            };
            let (origin, value) = match self.mv.read(word, self.iteration, self.now) {
                ReadResult::Versioned(origin, value) => (origin, value),
                ReadResult::Base => (ReadOrigin::Base, self.base.peek_u64(word)),
                ReadResult::Blocked(on) => {
                    // Remember the *lowest* blocking iteration; execution is
                    // abandoned by the engine, the value is a placeholder.
                    let lowest = self.blocked_on.map_or(on, |prev| prev.min(on));
                    self.blocked_on = Some(lowest);
                    (ReadOrigin::Base, self.base.peek_u64(word))
                }
            };
            slot.insert((origin, value)).1
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
            self.buffers.writes.insert(word, value);
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

    #[test]
    fn reads_observe_highest_visible_lower_iteration() {
        let mut base = FlatMemory::new();
        base.write_u64(0x1000, 1);
        let mv = MvMemory::new(8);
        let w2: HashMap<u64, u64> = [(0x1000u64, 22u64)].into_iter().collect();
        let w5: HashMap<u64, u64> = [(0x1000u64, 55u64)].into_iter().collect();
        assert!(mv.record(2, 0, &w2, 10));
        assert!(mv.record(5, 0, &w5, 30));
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
        let w: HashMap<u64, u64> = [(0x2000u64, 7u64)].into_iter().collect();
        mv.record(3, 0, &w, 5);
        mv.convert_writes_to_estimates(3, 6);
        assert_eq!(mv.read(0x2000, 4, 10), ReadResult::Blocked(3));
        assert_eq!(mv.live_estimates(), 1);
        // The next incarnation writes elsewhere: the estimate is removed.
        let w2: HashMap<u64, u64> = [(0x2008u64, 8u64)].into_iter().collect();
        mv.record(3, 1, &w2, 12);
        assert_eq!(mv.read(0x2000, 4, 20), ReadResult::Base);
        assert_eq!(mv.live_estimates(), 0);
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
        assert_eq!(buffers.reads.get(&0x3000), Some(&(ReadOrigin::Base, 9)));
        assert_eq!(buffers.writes.get(&0x3000), Some(&11));
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(base.peek_u64(0x3000), 9, "base untouched until commit");
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
        assert_eq!(buffers.writes.get(&0x1000), Some(&0x1122_3344_5566_aa88));
    }

    #[test]
    fn final_image_takes_the_highest_iteration_per_word() {
        let mv = MvMemory::new(8);
        mv.record(0, 0, &[(0x10u64, 1u64)].into_iter().collect(), 1);
        mv.record(4, 0, &[(0x10u64, 5u64), (0x18, 6)].into_iter().collect(), 2);
        mv.record(2, 0, &[(0x10u64, 3u64)].into_iter().collect(), 3);
        assert_eq!(mv.final_image(), vec![(0x10, 5), (0x18, 6)]);
        let mut base = FlatMemory::new();
        mv.commit_into(&mut base);
        assert_eq!(base.read_u64(0x10), 5);
        assert_eq!(base.read_u64(0x18), 6);
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_lose_entries() {
        // A smoke test of the sharded store itself: 8 threads record and
        // re-read disjoint iterations' writes over a shared word pool.
        let mv = MvMemory::new(64);
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let mv = &mv;
                scope.spawn(move || {
                    for k in 0..8usize {
                        let iteration = t * 8 + k;
                        let word = 0x9000 + (iteration as u64 % 16) * 8;
                        let writes: HashMap<u64, u64> =
                            [(word, iteration as u64)].into_iter().collect();
                        mv.record(iteration, 0, &writes, 1);
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
