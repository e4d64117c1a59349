//! The hashed code-cache model the slot-addressed [`CodeCache`] replaced,
//! kept as the reference the dense counts are property-tested against.
//!
//! It keys everything by guest address — a `HashSet` of translated blocks, a
//! `HashMap` of execution counts, a `HashMap` of deferred per-chunk counts
//! replayed in address order — and charges every execution as it happens,
//! exactly as the runtime did before it charged the run once, from the final
//! counts.

use super::{CodeCache, DISPATCH_COST, LINK_THRESHOLD, TRANSLATION_COST};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Default)]
struct HashedCodeCache {
    translated: HashSet<u64>,
    exec_counts: HashMap<u64, u64>,
}

impl HashedCodeCache {
    fn account_block(&mut self, pc: u64) -> (u64, bool) {
        let count = self.exec_counts.entry(pc).or_insert(0);
        *count += 1;
        let count = *count;
        let mut overhead = 0;
        let newly_translated = self.translated.insert(pc);
        if newly_translated {
            overhead += TRANSLATION_COST;
        }
        if count <= LINK_THRESHOLD {
            overhead += DISPATCH_COST;
        }
        (overhead, newly_translated)
    }

    fn charge_executions(&mut self, pc: u64, executions: u64) -> (u64, bool) {
        let count = self.exec_counts.entry(pc).or_insert(0);
        let before = *count;
        *count += executions;
        let mut overhead = 0;
        let newly_translated = executions > 0 && self.translated.insert(pc);
        if newly_translated {
            overhead += TRANSLATION_COST;
        }
        let dispatched = LINK_THRESHOLD.saturating_sub(before).min(executions);
        overhead += DISPATCH_COST * dispatched;
        (overhead, newly_translated)
    }

    /// The old `DeferredAccounting::replay` over a `HashMap` of counts.
    fn replay(&mut self, counts: HashMap<u64, u64>) -> (u64, u64, u64) {
        let mut counts: Vec<(u64, u64)> = counts.into_iter().collect();
        counts.sort_unstable();
        let (mut translated, mut executed, mut cycles) = (0, 0, 0);
        for (pc, executions) in counts {
            let (overhead, newly_translated) = self.charge_executions(pc, executions);
            translated += u64::from(newly_translated);
            executed += executions;
            cycles += overhead;
        }
        (translated, executed, cycles)
    }
}

/// Few enough slots that most drawn sequences run some slot past
/// [`LINK_THRESHOLD`] executions.
const SLOTS: usize = 8;
/// The address the reference sees for a slot: the text-section shape.
fn pc_of(slot: usize) -> u64 {
    0x40_0000 + 32 * slot as u64
}

/// `(blocks translated, block executions, cycles)` summed as the hashed
/// model charged them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Totals(u64, u64, u64);

impl Totals {
    fn add(&mut self, (overhead, newly_translated): (u64, bool), executions: u64) {
        self.0 += u64::from(newly_translated);
        self.1 += executions;
        self.2 += overhead;
    }
}

fn settled(cache: &CodeCache) -> Totals {
    let (translated, executions, cycles) = cache.charges();
    Totals(translated, executions, cycles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Counting only and charging from the counts: after every execution of
    /// any sequence the settled charge is what the hashed cache had charged
    /// execution by execution.
    #[test]
    fn dense_cache_charges_what_the_hashed_cache_charged(
        sequence in prop::collection::vec(0usize..SLOTS, 0..400),
    ) {
        let mut dense = CodeCache::new(SLOTS);
        let mut hashed = HashedCodeCache::default();
        let mut charged = Totals::default();
        for &slot in &sequence {
            dense.counts[slot] += 1;
            charged.add(hashed.account_block(pc_of(slot)), 1);
            prop_assert_eq!(settled(&dense), charged);
        }
    }

    /// Chunks count privately and are absorbed in chunk order over a cache
    /// the main thread has already warmed, and the main thread counts on
    /// afterwards; the settled totals match the hashed model's live charges
    /// plus its replay of every chunk's counts, after each step.
    #[test]
    fn deferred_replay_matches_the_hashed_replay(
        warmup in prop::collection::vec(0usize..SLOTS, 0..64),
        chunks in prop::collection::vec(prop::collection::vec(0usize..SLOTS, 0..200), 1..5),
        tail in prop::collection::vec(0usize..SLOTS, 0..64),
    ) {
        let mut dense = CodeCache::new(SLOTS);
        let mut hashed = HashedCodeCache::default();
        let mut charged = Totals::default();
        for &slot in &warmup {
            dense.counts[slot] += 1;
            charged.add(hashed.account_block(pc_of(slot)), 1);
        }
        for chunk in &chunks {
            let mut private = vec![0; SLOTS];
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for &slot in chunk {
                private[slot] += 1;
                *counts.entry(pc_of(slot)).or_insert(0) += 1;
            }
            dense.absorb(&private);
            let (translated, executed, cycles) = hashed.replay(counts);
            charged = Totals(charged.0 + translated, charged.1 + executed, charged.2 + cycles);
            prop_assert_eq!(settled(&dense), charged);
        }
        for &slot in &tail {
            dense.counts[slot] += 1;
            charged.add(hashed.account_block(pc_of(slot)), 1);
        }
        prop_assert_eq!(settled(&dense), charged);
    }
}
