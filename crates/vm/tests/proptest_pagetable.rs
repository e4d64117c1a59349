//! The radix-page-table-backed guest memories against the model they
//! replaced: a `HashMap` from page number to page bytes.
//!
//! [`FlatMemory`] and [`CowMemory`] index pages through a two-level radix
//! table with a hashed spill above 2³¹, behind an eight-entry direct-mapped
//! page cache; the model below is the plain `HashMap<u64, [u8; 4096]>` both
//! used to be built on, driven byte by byte with wrapping address
//! arithmetic. For any mix of byte, word and (for `FlatMemory`) bulk
//! accesses — page-crossing ones, addresses on both sides of the radix/spill
//! boundary and up against `u64::MAX` included — both must return the same
//! reads and end with the same `mapped_pages`, `image_digest` and overlay
//! contents.
//!
//! The cache gets streams aimed at it: more pages than entries, with page
//! numbers that collide in the index bits, accesses that alternate between
//! colliding pages, clones of a warm memory that then diverge, and views
//! over a base written through the cache.

use janus_ir::digest::{fnv1a_update, FNV1A_OFFSET};
use janus_vm::{merge_chunk_overlays, CowMemory, FlatMemory, GuestMemory, OverlayWrite};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

const PAGE: u64 = 4096;

#[derive(Clone, Default)]
struct Model {
    pages: HashMap<u64, [u8; PAGE as usize]>,
}

impl Model {
    fn read_u8(&self, addr: u64) -> u8 {
        self.pages
            .get(&(addr / PAGE))
            .map_or(0, |p| p[(addr % PAGE) as usize])
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        self.pages.entry(addr / PAGE).or_insert([0; PAGE as usize])[(addr % PAGE) as usize] = value;
    }

    fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(std::array::from_fn(|i| {
            self.read_u8(addr.wrapping_add(i as u64))
        }))
    }

    fn write_u64(&mut self, addr: u64, value: u64) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    /// `FlatMemory::image_digest` as specified: FNV-1a over the non-zero
    /// pages in ascending page order.
    fn image_digest(&self) -> u64 {
        let mut pages: Vec<_> = self
            .pages
            .iter()
            .filter(|(_, p)| p.iter().any(|b| *b != 0))
            .collect();
        pages.sort_unstable_by_key(|(n, _)| **n);
        pages.iter().fold(FNV1A_OFFSET, |h, (n, p)| {
            fnv1a_update(fnv1a_update(h, &n.to_le_bytes()), &p[..])
        })
    }
}

/// The copy-on-write view as a model: per written word, its current bytes
/// (seeded from the base) and the mask of bytes actually written.
struct CowModel<'a> {
    base: &'a Model,
    words: BTreeMap<u64, ([u8; 8], u8)>,
}

impl CowModel<'_> {
    fn read_u8(&self, addr: u64) -> u8 {
        match self.words.get(&(addr & !7)) {
            Some((bytes, _)) => bytes[(addr & 7) as usize],
            None => self.base.read_u8(addr),
        }
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        let word = addr & !7;
        let base = self.base;
        let (bytes, mask) = self
            .words
            .entry(word)
            .or_insert_with(|| (base.read_u64(word).to_le_bytes(), 0));
        bytes[(addr & 7) as usize] = value;
        *mask |= 1 << (addr & 7);
    }

    fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(std::array::from_fn(|i| {
            self.read_u8(addr.wrapping_add(i as u64))
        }))
    }

    fn write_u64(&mut self, addr: u64, value: u64) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }
}

/// Addresses where the page table has something to get wrong: a dense low
/// window, page edges, the last radix page and the first spilled one, deep
/// in the spill, and the top of the address space (which wraps to page 0).
fn arb_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..(3 * PAGE),
        (1u64..4, 0u64..16).prop_map(|(page, d)| page * PAGE - 8 + d),
        ((1u64 << 31) - PAGE - 16)..((1u64 << 31) + PAGE + 16),
        (0u64..16).prop_map(|d| (1u64 << 31) - 8 + d),
        (1u64 << 40)..((1u64 << 40) + 2 * PAGE),
        (u64::MAX - PAGE - 16)..=u64::MAX,
        (0u64..16).prop_map(|d| u64::MAX - 15 + d),
    ]
}

/// First pages of windows of 24 consecutive pages — three per page-cache
/// entry: low memory, and one straddling the radix/spill boundary (page 2¹⁹).
const WINDOWS: [u64; 2] = [0, (1 << 19) - 12];

/// Byte offsets into a page: aligned words, unaligned ones, and the last
/// bytes, where a word access crosses into the next page.
fn arb_offset() -> impl Strategy<Value = u64> {
    prop_oneof![(0u64..8).prop_map(|w| w * 8), 0u64..PAGE, (PAGE - 12)..PAGE]
}

/// Addresses on 48 pages whose page numbers collide in the cache's index
/// bits, so a stream of them keeps evicting and refilling entries.
fn arb_colliding_addr() -> impl Strategy<Value = u64> {
    (0usize..2, 0u64..24, arb_offset())
        .prop_map(|(window, page, off)| (WINDOWS[window] + page) * PAGE + off)
}

/// `(kind, address, value)`: kinds 0/1 read a byte/word, 2/3 write one;
/// with `kinds == 6`, 4/5 read/write [`bulk`] bytes. Half the addresses
/// are [`arb_addr`]'s, half [`arb_colliding_addr`]'s.
fn arb_ops(kinds: u8, max: usize) -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    let addr = prop_oneof![arb_addr(), arb_colliding_addr()];
    prop::collection::vec((0u8..kinds, addr, any::<u64>()), 0..max)
}

/// Applies one op to `flat` and `model` and checks every read; returns the
/// loads and stores it should have counted.
fn step(
    flat: &mut FlatMemory,
    model: &mut Model,
    (kind, addr, value): (u8, u64, u64),
) -> (u64, u64) {
    match kind {
        0 => {
            assert_eq!(flat.read_u8(addr), model.read_u8(addr), "u8 @ {addr:#x}");
            assert_eq!(flat.peek_u8(addr), model.read_u8(addr));
            (1, 0)
        }
        1 => {
            assert_eq!(flat.read_u64(addr), model.read_u64(addr), "u64 @ {addr:#x}");
            assert_eq!(flat.peek_u64(addr), model.read_u64(addr));
            (1, 0)
        }
        2 => {
            flat.write_u8(addr, value as u8);
            model.write_u8(addr, value as u8);
            (0, 1)
        }
        3 => {
            flat.write_u64(addr, value);
            model.write_u64(addr, value);
            (0, 1)
        }
        4 => {
            let len = bulk(value).len();
            let expected: Vec<u8> = (0..len)
                .map(|i| model.read_u8(addr.wrapping_add(i as u64)))
                .collect();
            assert_eq!(
                flat.read_bytes(addr, len),
                expected,
                "{len} bytes @ {addr:#x}"
            );
            (len as u64, 0)
        }
        _ => {
            let data = bulk(value);
            flat.write_bytes(addr, &data);
            for (i, b) in data.iter().enumerate() {
                model.write_u8(addr.wrapping_add(i as u64), *b);
            }
            (0, data.len() as u64)
        }
    }
}

/// The bytes of a bulk access drawn from `value`: 0..=3 pages of them, all
/// zero when the low bit is clear.
fn bulk(value: u64) -> Vec<u8> {
    let len = (value >> 8) as usize % (3 * PAGE as usize + 1);
    if value & 1 == 0 {
        vec![0; len]
    } else {
        (0..len)
            .map(|i| (value as u8).wrapping_add(i as u8))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_memory_matches_the_hashmap_model(ops in arb_ops(6, 96)) {
        let mut flat = FlatMemory::new();
        let mut model = Model::default();
        let (mut loads, mut stores) = (0, 0);
        for &op in &ops {
            let (l, s) = step(&mut flat, &mut model, op);
            loads += l;
            stores += s;
            // Reads do not allocate; writes map exactly the pages they touch.
            prop_assert_eq!(flat.mapped_pages(), model.pages.len());
        }
        prop_assert_eq!((flat.loads, flat.stores), (loads, stores));
        prop_assert_eq!(flat.image_digest(), model.image_digest());
        let copy = flat.clone();
        prop_assert_eq!(copy.image_digest(), model.image_digest());
        prop_assert_eq!(copy.mapped_pages(), model.pages.len());
    }

    #[test]
    fn accesses_alternating_between_colliding_pages_match_the_model(
        window in 0usize..2,
        first in 0u64..8,
        ops in prop::collection::vec((0u8..6, 0u64..3, arb_offset(), any::<u64>()), 0..96),
    ) {
        // Three pages that share one cache entry; op `i` goes to page `i % 3`
        // unless the stream says otherwise, so most steps evict the last.
        let page = |i: usize, pick: u64| WINDOWS[window] + first + 8 * ((i as u64 + pick % 2) % 3);
        let mut flat = FlatMemory::new();
        let mut model = Model::default();
        for (i, &(kind, pick, off, value)) in ops.iter().enumerate() {
            step(&mut flat, &mut model, (kind, page(i, pick) * PAGE + off, value));
        }
        prop_assert_eq!(flat.mapped_pages(), model.pages.len());
        prop_assert_eq!(flat.image_digest(), model.image_digest());
    }

    #[test]
    fn a_clone_of_a_warm_memory_diverges_from_it_like_the_model(
        warm in arb_ops(6, 48),
        ops in prop::collection::vec((any::<bool>(), 0u8..6, arb_colliding_addr(), any::<u64>()), 0..96),
    ) {
        let mut flat = FlatMemory::new();
        let mut model = Model::default();
        for &op in &warm {
            step(&mut flat, &mut model, op);
        }
        // The clone inherits the original's cached translations.
        let mut copy = flat.clone();
        let mut copy_model = model.clone();
        for &(to_copy, kind, addr, value) in &ops {
            if to_copy {
                step(&mut copy, &mut copy_model, (kind, addr, value));
            } else {
                step(&mut flat, &mut model, (kind, addr, value));
            }
        }
        prop_assert_eq!(flat.image_digest(), model.image_digest());
        prop_assert_eq!(copy.image_digest(), copy_model.image_digest());
        prop_assert_eq!(flat.mapped_pages(), model.pages.len());
        prop_assert_eq!(copy.mapped_pages(), copy_model.pages.len());
    }

    #[test]
    fn cow_memory_matches_the_hashmap_model(
        base_writes in prop::collection::vec(
            (prop_oneof![arb_addr(), arb_colliding_addr()], any::<u64>()),
            0..32,
        ),
        ops in arb_ops(4, 96),
    ) {
        // The base is written (and read) through its own cache first.
        let mut base = FlatMemory::new();
        let mut base_model = Model::default();
        for &(addr, value) in &base_writes {
            base.write_u64(addr, value);
            base_model.write_u64(addr, value);
            prop_assert_eq!(base.read_u64(addr ^ 0x18), base_model.read_u64(addr ^ 0x18));
        }
        let mut view = CowMemory::new(&base);
        let mut model = CowModel { base: &base_model, words: BTreeMap::new() };
        for &(kind, addr, value) in &ops {
            match kind {
                0 => prop_assert_eq!(view.read_u8(addr), model.read_u8(addr), "u8 @ {:#x}", addr),
                1 => prop_assert_eq!(view.read_u64(addr), model.read_u64(addr), "u64 @ {:#x}", addr),
                2 => {
                    view.write_u8(addr, value as u8);
                    model.write_u8(addr, value as u8);
                }
                _ => {
                    view.write_u64(addr, value);
                    model.write_u64(addr, value);
                }
            }
        }
        prop_assert_eq!(base.mapped_pages(), base_model.pages.len(), "the base is never written");
        prop_assert_eq!(view.written_words(), model.words.len());
        let mut dirty_pages: Vec<u64> = model.words.keys().map(|w| w / PAGE).collect();
        dirty_pages.dedup();
        prop_assert_eq!(view.touched_pages(), dirty_pages.len());

        // `into_pages`: ascending page order, ascending words within a page —
        // radix pages first, spilled ones after — with exact dirty masks.
        let overlay = view.into_pages();
        let expected: Vec<OverlayWrite> = model
            .words
            .iter()
            .map(|(&word, &(bytes, mask))| (word, u64::from_le_bytes(bytes), mask))
            .collect();
        let writes = overlay.to_writes();
        let mut overlay_pages: Vec<u64> = writes.iter().map(|w| w.0 / PAGE).collect();
        overlay_pages.dedup();
        prop_assert_eq!(overlay_pages.len(), dirty_pages.len());
        prop_assert_eq!(writes, expected);

        // Merged back, only the dirty bytes land.
        let mut merged_model = base_model.clone();
        for (&word, &(bytes, mask)) in &model.words {
            for (i, b) in bytes.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    merged_model.write_u8(word + i as u64, *b);
                }
            }
        }
        let mut merged = base.clone();
        let stats = merge_chunk_overlays(&mut merged, &[overlay], 1);
        prop_assert_eq!(stats.pages_merged, dirty_pages.len() as u64);
        prop_assert_eq!(merged.mapped_pages(), merged_model.pages.len());
        prop_assert_eq!(merged.image_digest(), merged_model.image_digest());
    }
}

/// Worker threads share a `&FlatMemory` and each own a `CowMemory`.
const _: () = {
    const fn shared<T: Send + Sync>() {}
    const fn sent<T: Send>() {}
    shared::<FlatMemory>();
    sent::<CowMemory<'static>>();
};
