//! Property-based equivalence of the page-aware overlay merge: for any
//! multi-chunk write pattern — word and byte writes, aligned and unaligned,
//! overlapping across chunks — [`merge_chunk_overlays`] must produce a
//! memory image bit-identical to replaying each chunk's sorted word writes
//! through [`apply_writes`] in chunk order.

use janus_vm::{merge_chunk_overlays, CowMemory, FlatMemory, GuestMemory, OverlayWrite};
use proptest::prelude::*;

/// One generated guest write: an address inside the exercised window, a
/// value, and whether it is a byte store (`true`) or a possibly-unaligned
/// 64-bit store (`false`).
type GenWrite = (u64, u64, bool);

/// Splices `(word, value, mask)` writes into `target`: only the masked
/// bytes of each word land.
fn apply_writes(target: &mut FlatMemory, writes: &[OverlayWrite]) {
    for &(addr, value, dirty) in writes {
        let mut bytes = target.peek_u64(addr).to_le_bytes();
        let new = value.to_le_bytes();
        for (i, b) in bytes.iter_mut().enumerate() {
            if dirty & (1 << i) != 0 {
                *b = new[i];
            }
        }
        target.write_u64(addr, u64::from_le_bytes(bytes));
    }
}

fn apply(view: &mut CowMemory<'_>, writes: &[GenWrite]) {
    for &(addr, value, is_byte) in writes {
        if is_byte {
            view.write_u8(addr, value as u8);
        } else {
            view.write_u64(addr, value);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn page_merge_is_bit_identical_to_sequential_word_merge(
        // Pre-populated base words across the first few pages (some of which
        // no chunk will touch — those pages must be skipped, not disturbed).
        base_words in prop::collection::vec((0u64..4096, any::<u64>()), 0..24),
        // 1–4 chunks of mixed byte/word writes over a 6-page window.
        // Overlaps across chunks are likely and intended: chunk order wins.
        chunks in prop::collection::vec(
            prop::collection::vec((0u64..(6 * 4096 - 8), any::<u64>(), any::<bool>()), 0..48),
            1..4,
        ),
    ) {
        let mut base = FlatMemory::new();
        for &(slot, value) in &base_words {
            base.write_u64(slot * 8, value);
        }

        let overlays: Vec<_> = chunks
            .iter()
            .map(|writes| {
                let mut view = CowMemory::new(&base);
                apply(&mut view, writes);
                view.into_pages()
            })
            .collect();

        // Reference: the pre-PR merge semantics — each chunk's sorted
        // (word, value, dirty-mask) triples spliced in chunk order.
        let mut word_merged = base.clone();
        for overlay in &overlays {
            apply_writes(&mut word_merged, &overlay.to_writes());
        }

        let mut page_merged = base.clone();
        let stats = merge_chunk_overlays(&mut page_merged, &overlays, 1);
        prop_assert_eq!(
            page_merged.image_digest(),
            word_merged.image_digest(),
            "stats={:?}",
            stats
        );
    }

    #[test]
    fn into_writes_and_into_pages_describe_the_same_overlay(
        writes in prop::collection::vec((0u64..(3 * 4096 - 8), any::<u64>(), any::<bool>()), 0..48),
    ) {
        let base = FlatMemory::new();
        let mut a = CowMemory::new(&base);
        apply(&mut a, &writes);
        let mut b = CowMemory::new(&base);
        apply(&mut b, &writes);
        // Two views given the same stores carry the same overlay, and the
        // written-word counter is the number of words the overlay lists.
        let from_pages = b.into_pages().to_writes();
        prop_assert_eq!(a.written_words(), from_pages.len());
        prop_assert_eq!(a.into_pages().to_writes(), from_pages);
    }
}
