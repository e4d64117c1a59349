//! The hashed code-cache model the slot-addressed [`CodeCache`] replaced,
//! kept as the reference the dense tables are property-tested against.
//!
//! It keys everything by guest address — a `HashSet` of translated blocks, a
//! `HashMap` of execution counts, a `HashMap` of deferred per-chunk counts
//! replayed in address order — exactly as the runtime did when every
//! executed instruction paid those probes.

use super::{BlockAccounting, ChunkSideEffects, CodeCache, DeferredAccounting, LiveAccounting};
use crate::DbmConfig;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Default)]
struct HashedCodeCache {
    translated: HashSet<u64>,
    exec_counts: HashMap<u64, u64>,
}

impl HashedCodeCache {
    fn account_block(&mut self, pc: u64, config: &DbmConfig) -> (u64, bool) {
        let count = self.exec_counts.entry(pc).or_insert(0);
        *count += 1;
        let count = *count;
        let mut overhead = 0;
        let newly_translated = self.translated.insert(pc);
        if newly_translated {
            overhead += config.translation_cost;
        }
        if count <= config.link_threshold {
            overhead += config.dispatch_cost;
        }
        (overhead, newly_translated)
    }

    fn charge_executions(&mut self, pc: u64, executions: u64, config: &DbmConfig) -> (u64, bool) {
        let count = self.exec_counts.entry(pc).or_insert(0);
        let before = *count;
        *count += executions;
        let mut overhead = 0;
        let newly_translated = executions > 0 && self.translated.insert(pc);
        if newly_translated {
            overhead += config.translation_cost;
        }
        let dispatched = config.link_threshold.saturating_sub(before).min(executions);
        overhead += config.dispatch_cost * dispatched;
        (overhead, newly_translated)
    }

    /// The old `DeferredAccounting::replay` over a `HashMap` of counts.
    fn replay(&mut self, counts: HashMap<u64, u64>, config: &DbmConfig) -> (u64, u64, u64) {
        let mut counts: Vec<(u64, u64)> = counts.into_iter().collect();
        counts.sort_unstable();
        let (mut translated, mut executed, mut cycles) = (0, 0, 0);
        for (pc, executions) in counts {
            let (overhead, newly_translated) = self.charge_executions(pc, executions, config);
            translated += u64::from(newly_translated);
            executed += executions;
            cycles += overhead;
        }
        (translated, executed, cycles)
    }
}

const SLOTS: usize = 48;
/// The address the reference sees for a slot: the text-section shape.
fn pc_of(slot: usize) -> u64 {
    0x40_0000 + 32 * slot as u64
}

fn totals(fx: &ChunkSideEffects) -> (u64, u64, u64) {
    (
        fx.blocks_translated,
        fx.block_executions,
        fx.translation_cycles,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Live accounting: the same `(overhead, newly_translated)` stream for
    /// any execution sequence, at any link threshold.
    #[test]
    fn dense_cache_charges_what_the_hashed_cache_charged(
        sequence in prop::collection::vec(0usize..SLOTS, 0..400),
        link_threshold in 0u64..24,
    ) {
        let config = DbmConfig { link_threshold, ..DbmConfig::default() };
        let mut dense = CodeCache::new(SLOTS);
        let mut hashed = HashedCodeCache::default();
        for &slot in &sequence {
            prop_assert_eq!(
                dense.charge_executions(slot, 1, &config),
                hashed.account_block(pc_of(slot), &config)
            );
        }
    }

    /// Deferred accounting: chunks record privately and replay in chunk
    /// order over a cache the main thread has already warmed; every chunk's
    /// replay totals match, and so does a live tail afterwards (the caches
    /// ended in the same state).
    #[test]
    fn deferred_replay_matches_the_hashed_replay(
        warmup in prop::collection::vec(0usize..SLOTS, 0..64),
        chunks in prop::collection::vec(prop::collection::vec(0usize..SLOTS, 0..200), 1..5),
        tail in prop::collection::vec(0usize..SLOTS, 0..64),
        link_threshold in 0u64..24,
    ) {
        let config = DbmConfig { link_threshold, ..DbmConfig::default() };
        let mut dense = CodeCache::new(SLOTS);
        let mut hashed = HashedCodeCache::default();
        for &slot in &warmup {
            let _ = dense.charge_executions(slot, 1, &config);
            let _ = hashed.account_block(pc_of(slot), &config);
        }
        for chunk in &chunks {
            let mut deferred = DeferredAccounting(vec![0; SLOTS]);
            let mut counts: HashMap<u64, u64> = HashMap::new();
            let mut fx = ChunkSideEffects::default();
            for &slot in chunk {
                deferred.record(slot, &config, &mut fx);
                *counts.entry(pc_of(slot)).or_insert(0) += 1;
            }
            prop_assert_eq!(totals(&fx), (0, 0, 0), "recording charges nothing");
            deferred.replay(&mut dense, &config, &mut fx);
            prop_assert_eq!(totals(&fx), hashed.replay(counts, &config));
        }
        let mut fx = ChunkSideEffects::default();
        let mut expected = (0, 0, 0);
        for &slot in &tail {
            LiveAccounting(&mut dense).record(slot, &config, &mut fx);
            let (overhead, newly_translated) = hashed.account_block(pc_of(slot), &config);
            expected.0 += u64::from(newly_translated);
            expected.1 += 1;
            expected.2 += overhead;
        }
        prop_assert_eq!(totals(&fx), expected);
    }
}
