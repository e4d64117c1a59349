//! Copy-on-write guest-memory views for OS-thread execution backends.
//!
//! A parallelised loop chunk running on a real worker thread cannot share a
//! `&mut FlatMemory` with its siblings. [`CowMemory`] gives each chunk a
//! `Send`-able view instead: reads fall through to a shared read-only base
//! image, writes land in a private page-structured overlay. Once the
//! workers finish, the coordinating thread merges each overlay back into the
//! base in chunk order, which reproduces the memory image a sequential
//! chunk-by-chunk execution would have produced.
//!
//! The overlay is organised as pages mirroring [`FlatMemory`]'s own layout:
//! on first touch of a page the base bytes are copied in, so subsequent
//! reads and writes are plain array indexing, and each page carries a
//! per-word dirty bitmap plus per-byte dirty masks. The bitmaps are what
//! make the merge page-aware — [`merge_chunk_overlays`] visits only touched
//! pages (untouched base pages are skipped entirely, never re-hashed or
//! re-scanned) and splices only their dirty words.
//!
//! Like [`FlatMemory`], a view keeps its overlay pages in a slab of boxed
//! frames, maps page numbers to frames in a [`PageTable`], and puts a
//! [`PageCache`] in front. One cache serves both halves of a lookup: an
//! entry is either the page's overlay frame or, for a page the view has not
//! written, a reference to the base's page. The base is borrowed for the
//! view's lifetime, so such a reference cannot go stale, and the first write
//! to a page replaces its entry with the overlay frame. The cache belongs to
//! the view, not to the shared base: a base cache would need interior
//! mutability, and every worker thread would contend on it.

use crate::memory::{
    word_at, FlatMemory, GuestMemory, PeekMemory, PAGE_SHIFT, PAGE_SIZE, ZERO_PAGE,
};
use crate::pagetable::{PageCache, PageTable};

/// 64-bit words per page.
const WORDS_PER_PAGE: usize = PAGE_SIZE / 8;
/// `u64` bitmap words needed to give each page word one dirty bit.
const BITMAP_WORDS: usize = WORDS_PER_PAGE / 64;

/// A pending overlay write: the aligned word address, the value, and the
/// mask of bytes (bit *i* ⇒ byte *i*) that were actually written.
pub type OverlayWrite = (u64, u64, u8);

/// One page of overlay state: a full copy of the base page's words (so
/// reads are array lookups), a per-word dirty-byte mask, and a one-bit-per-
/// word dirty bitmap for fast iteration over written words.
///
/// The byte masks are what make the merge byte-exact: two sibling chunks
/// may legally write *disjoint bytes* of the same 8-byte word (an unaligned
/// store straddling a chunk boundary, byte-granular stores), and merging
/// whole words would let the later chunk clobber the earlier one's bytes
/// with stale base data. Only dirty bytes are applied.
#[derive(Debug, Clone)]
struct PageOverlay {
    values: [u64; WORDS_PER_PAGE],
    masks: [u8; WORDS_PER_PAGE],
    dirty: [u64; BITMAP_WORDS],
}

impl PageOverlay {
    /// A fresh overlay page seeded from the base image (zero-filled when the
    /// base page is unmapped).
    fn from_base(base: &FlatMemory, page: u64) -> Box<PageOverlay> {
        let mut overlay = Box::new(PageOverlay {
            values: [0u64; WORDS_PER_PAGE],
            masks: [0u8; WORDS_PER_PAGE],
            dirty: [0u64; BITMAP_WORDS],
        });
        if let Some(bytes) = base.page_ref(page) {
            for (i, chunk) in bytes.chunks_exact(8).enumerate() {
                overlay.values[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
        }
        overlay
    }

    /// Number of dirty (written) words on this page.
    fn dirty_words(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Calls `f(word index, value, dirty-byte mask)` for every dirty word in
    /// ascending order.
    fn for_each_dirty(&self, mut f: impl FnMut(usize, u64, u8)) {
        for (bm, &bits) in self.dirty.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let idx = bm * 64 + bits.trailing_zeros() as usize;
                f(idx, self.values[idx], self.masks[idx]);
                bits &= bits - 1;
            }
        }
    }
}

/// Splices one overlay word's dirty bytes over the current bytes of a page
/// image. A fully dirty word is stored whole.
fn splice_word(bytes: &mut [u8; PAGE_SIZE], idx: usize, value: u64, mask: u8) {
    let off = idx * 8;
    let new = value.to_le_bytes();
    if mask == 0xff {
        bytes[off..off + 8].copy_from_slice(&new);
    } else {
        for i in 0..8 {
            if mask & (1 << i) != 0 {
                bytes[off + i] = new[i];
            }
        }
    }
}

/// Where a [`CowMemory`] finds one page: its own overlay frame, or the base
/// image's bytes (the shared zero page for an unmapped base page).
#[derive(Debug, Clone, Copy)]
enum CowPage<'a> {
    Overlay(u32),
    Base(&'a [u8; PAGE_SIZE]),
}

/// A private, writable view over a shared read-only [`FlatMemory`] image.
///
/// Writes are buffered at aligned-64-bit-word granularity with a per-byte
/// dirty mask, inside page-sized overlay blocks mirroring the base layout;
/// byte and unaligned accesses are composed through the covering words. The
/// view borrows the base immutably, so any number of views can coexist —
/// one per worker thread.
#[derive(Debug)]
pub struct CowMemory<'a> {
    base: &'a FlatMemory,
    /// Page number → overlay frame.
    table: PageTable<u32>,
    /// The overlay pages, in first-touch order.
    frames: Vec<Box<PageOverlay>>,
    /// The last pages this view reached, overlay or base.
    cache: PageCache<CowPage<'a>>,
    written: usize,
}

impl<'a> CowMemory<'a> {
    /// A fresh view with an empty overlay.
    #[must_use]
    pub fn new(base: &'a FlatMemory) -> CowMemory<'a> {
        CowMemory {
            base,
            table: PageTable::default(),
            frames: Vec::new(),
            cache: PageCache::new(CowPage::Base(&ZERO_PAGE)),
            written: 0,
        }
    }

    /// Number of distinct words the view has written (fully or partially).
    #[must_use]
    pub fn written_words(&self) -> usize {
        self.written
    }

    /// Number of distinct pages the view has touched with at least one write.
    #[must_use]
    pub fn touched_pages(&self) -> usize {
        self.frames.len()
    }

    /// Consumes the view and returns its dirty pages as a [`ChunkOverlay`],
    /// the unit [`merge_chunk_overlays`] consumes. Only pages with at least
    /// one dirty word are retained.
    #[must_use]
    pub fn into_pages(self) -> ChunkOverlay {
        let mut frames: Vec<Option<Box<PageOverlay>>> = self.frames.into_iter().map(Some).collect();
        let pages = self
            .table
            .iter()
            .filter_map(|(page, &frame)| {
                let overlay = frames[frame as usize].take().expect("one page per frame");
                overlay
                    .dirty
                    .iter()
                    .any(|&w| w != 0)
                    .then_some((page, overlay))
            })
            .collect();
        ChunkOverlay { pages }
    }

    /// Merges overlay writes into `target`, honouring each write's dirty
    /// mask: fully-written words are stored directly, partially-written
    /// words splice only their dirty bytes over the target's current value.
    #[cfg(test)]
    fn apply_writes(target: &mut FlatMemory, writes: &[OverlayWrite]) {
        for &(addr, value, dirty) in writes {
            if dirty == 0xff {
                target.write_u64(addr, value);
            } else {
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
    }

    fn aligned(addr: u64) -> u64 {
        addr & !7
    }

    /// Splits an aligned word address into (page index, word-in-page index).
    #[inline(always)]
    fn split(word: u64) -> (u64, usize) {
        (
            word >> PAGE_SHIFT,
            ((word & (PAGE_SIZE as u64 - 1)) >> 3) as usize,
        )
    }

    /// Where `page` is, from the table and the base (no cache).
    fn locate(&self, page: u64) -> CowPage<'a> {
        match self.table.get(page) {
            Some(&frame) => CowPage::Overlay(frame),
            None => CowPage::Base(self.base.page_ref(page).unwrap_or(&ZERO_PAGE)),
        }
    }

    /// A cache miss on the read path: locates `page` and caches it.
    #[cold]
    #[inline(never)]
    fn locate_and_cache(&mut self, page: u64) -> CowPage<'a> {
        let found = self.locate(page);
        self.cache.insert(page, found);
        found
    }

    /// Word `idx` of a located page.
    #[inline(always)]
    fn word_in(&self, page: CowPage<'a>, idx: usize) -> u64 {
        match page {
            CowPage::Overlay(frame) => self.frames[frame as usize].values[idx],
            CowPage::Base(bytes) => word_at(bytes, idx * 8),
        }
    }

    /// The current value of an aligned word, through the cache.
    #[inline(always)]
    fn word(&mut self, word: u64) -> u64 {
        let (page, idx) = Self::split(word);
        let found = match self.cache.get(page) {
            Some(found) => found,
            None => self.locate_and_cache(page),
        };
        self.word_in(found, idx)
    }

    /// [`CowMemory::word`] for `&self`, past the cache.
    fn peek_word(&self, word: u64) -> u64 {
        let (page, idx) = Self::split(word);
        self.word_in(self.locate(page), idx)
    }

    /// The overlay frame of `page`, seeding it from the base on first touch;
    /// the cache entry becomes the frame either way.
    #[cold]
    #[inline(never)]
    fn touch(&mut self, page: u64) -> u32 {
        let (base, frames) = (self.base, &mut self.frames);
        let frame = *self.table.get_or_insert_with(page, || {
            frames.push(PageOverlay::from_base(base, page));
            u32::try_from(frames.len() - 1).expect("fewer than 2^32 frames")
        });
        self.cache.insert(page, CowPage::Overlay(frame));
        frame
    }

    /// Mutates one overlay word in place, seeding the covering page from the
    /// base on first touch, and keeps the written-word counter exact.
    #[inline(always)]
    fn mutate_word(&mut self, word: u64, f: impl FnOnce(&mut u64, &mut u8)) {
        let (page, idx) = Self::split(word);
        let frame = match self.cache.get(page) {
            Some(CowPage::Overlay(frame)) => frame,
            _ => self.touch(page),
        };
        let overlay = &mut self.frames[frame as usize];
        let newly_dirty = overlay.masks[idx] == 0;
        f(&mut overlay.values[idx], &mut overlay.masks[idx]);
        if newly_dirty && overlay.masks[idx] != 0 {
            overlay.dirty[idx / 64] |= 1 << (idx % 64);
            self.written += 1;
        }
    }
}

/// The little-endian value at `addr`, composed from the aligned words that
/// `word` returns: one for an aligned address, the two covering ones else.
#[inline(always)]
fn compose(addr: u64, mut word: impl FnMut(u64) -> u64) -> u64 {
    let aligned = addr & !7;
    if aligned == addr {
        return word(addr);
    }
    let shift = (addr - aligned) * 8;
    (word(aligned) >> shift) | (word(aligned.wrapping_add(8)) << (64 - shift))
}

impl PeekMemory for CowMemory<'_> {
    fn peek_u8(&self, addr: u64) -> u8 {
        let word = Self::aligned(addr);
        self.peek_word(word).to_le_bytes()[(addr - word) as usize]
    }

    fn peek_u64(&self, addr: u64) -> u64 {
        compose(addr, |word| self.peek_word(word))
    }
}

impl GuestMemory for CowMemory<'_> {
    fn read_u8(&mut self, addr: u64) -> u8 {
        let word = Self::aligned(addr);
        self.word(word).to_le_bytes()[(addr - word) as usize]
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        let word = Self::aligned(addr);
        let byte = (addr - word) as usize;
        self.mutate_word(word, |w, mask| {
            let mut bytes = w.to_le_bytes();
            bytes[byte] = value;
            *w = u64::from_le_bytes(bytes);
            *mask |= 1 << byte;
        });
    }

    #[inline(always)]
    fn read_u64(&mut self, addr: u64) -> u64 {
        compose(addr, |word| self.word(word))
    }

    #[inline(always)]
    fn write_u64(&mut self, addr: u64, value: u64) {
        let word = Self::aligned(addr);
        if word == addr {
            self.mutate_word(word, |w, mask| {
                *w = value;
                *mask = 0xff;
            });
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), *b);
            }
        }
    }
}

/// The dirty pages of one finished chunk, detached from the view's borrow of
/// the base image so it can be sent back to the coordinator. Pages are
/// sorted by page index.
#[derive(Debug)]
pub struct ChunkOverlay {
    pages: Vec<(u64, Box<PageOverlay>)>,
}

impl ChunkOverlay {
    /// Total dirty words across all pages.
    #[must_use]
    pub fn dirty_words(&self) -> usize {
        self.pages.iter().map(|(_, p)| p.dirty_words()).sum()
    }

    /// The chunk's writes as sorted `(word address, value, mask)` triples:
    /// the word-granular form the property tests hold the page merge to.
    #[must_use]
    pub fn to_writes(&self) -> Vec<OverlayWrite> {
        let mut writes = Vec::new();
        for (page, overlay) in &self.pages {
            let base_addr = page << PAGE_SHIFT;
            overlay.for_each_dirty(|idx, value, mask| {
                writes.push((base_addr + (idx as u64) * 8, value, mask));
            });
        }
        writes
    }

    /// Whether this chunk wrote any byte of the aligned word holding `addr`.
    #[must_use]
    pub fn is_dirty_word(&self, addr: u64) -> bool {
        let (page, idx) = CowMemory::split(addr & !7);
        self.get(page)
            .is_some_and(|p| p.dirty[idx / 64] & (1 << (idx % 64)) != 0)
    }

    /// The overlay page for `page`, if this chunk touched it.
    fn get(&self, page: u64) -> Option<&PageOverlay> {
        self.pages
            .binary_search_by_key(&page, |&(p, _)| p)
            .ok()
            .map(|i| &*self.pages[i].1)
    }
}

/// What one [`merge_chunk_overlays`] call did — feeds the `merge.*`
/// observability counters and the adaptive bench report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Pages the merge actually visited (union of dirty pages across chunks).
    pub pages_merged: u64,
    /// Mapped base pages the merge never had to look at because no chunk
    /// dirtied them.
    pub pages_skipped: u64,
    /// Dirty words spliced into the target.
    pub words_applied: u64,
}

/// Merges the overlays of all chunks into `target` in chunk order,
/// page-aware, on the calling thread.
///
/// The result is bit-identical to replaying every chunk's sorted word
/// writes ([`ChunkOverlay::to_writes`]) chunk by chunk: writes to
/// different pages commute, and within a page each word is spliced in chunk
/// order with the same per-byte dirty-mask semantics. Pages no chunk wrote
/// are never visited. `_threads` is ignored; it stays so that callers
/// written against the earlier, threaded merge still compile.
pub fn merge_chunk_overlays(
    target: &mut FlatMemory,
    chunks: &[ChunkOverlay],
    _threads: usize,
) -> MergeStats {
    let mut pages: Vec<u64> = chunks
        .iter()
        .flat_map(|c| c.pages.iter().map(|&(p, _)| p))
        .collect();
    pages.sort_unstable();
    pages.dedup();

    let mapped_before = target.mapped_pages() as u64;
    let touched_mapped = pages
        .iter()
        .filter(|&&p| target.page_ref(p).is_some())
        .count() as u64;
    let mut stats = MergeStats {
        pages_merged: pages.len() as u64,
        pages_skipped: mapped_before.saturating_sub(touched_mapped),
        words_applied: 0,
    };
    for &page in &pages {
        let bytes = target.page_mut(page);
        for chunk in chunks {
            if let Some(overlay) = chunk.get(page) {
                overlay.for_each_dirty(|idx, value, mask| {
                    splice_word(bytes, idx, value, mask);
                    stats.words_applied += 1;
                });
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fall_through_to_base_until_written() {
        let mut base = FlatMemory::new();
        base.write_u64(0x1000, 42);
        let mut view = CowMemory::new(&base);
        assert_eq!(view.read_u64(0x1000), 42);
        view.write_u64(0x1000, 43);
        assert_eq!(view.read_u64(0x1000), 43, "view sees its own write");
        assert_eq!(base.peek_u64(0x1000), 42, "base is untouched");
    }

    #[test]
    fn byte_and_unaligned_accesses_compose_through_words() {
        let mut base = FlatMemory::new();
        base.write_u64(0x2000, 0x1122_3344_5566_7788);
        base.write_u64(0x2008, 0x99aa_bbcc_ddee_ff00);
        let mut view = CowMemory::new(&base);
        assert_eq!(view.read_u8(0x2001), 0x77);
        view.write_u8(0x2001, 0xab);
        assert_eq!(view.read_u64(0x2000), 0x1122_3344_5566_ab88);
        // Unaligned read straddling the two words.
        let unaligned = view.read_u64(0x2004);
        assert_eq!(unaligned & 0xffff_ffff, 0x1122_3344);
        // Unaligned write round-trips.
        view.write_u64(0x2004, 0xdead_beef_cafe_f00d);
        assert_eq!(view.read_u64(0x2004), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn into_writes_is_sorted_and_merges_to_the_sequential_image() {
        let mut base = FlatMemory::new();
        let mut view = CowMemory::new(&base);
        view.write_u64(0x3008, 2);
        view.write_u64(0x3000, 1);
        assert_eq!(view.written_words(), 2);
        let writes = view.into_pages().to_writes();
        assert_eq!(writes, vec![(0x3000, 1, 0xff), (0x3008, 2, 0xff)]);
        CowMemory::apply_writes(&mut base, &writes);
        assert_eq!(base.peek_u64(0x3000), 1);
        assert_eq!(base.peek_u64(0x3008), 2);
    }

    #[test]
    fn disjoint_byte_writes_to_one_word_merge_without_clobbering() {
        // Two sibling views write disjoint halves of the same 8-byte word —
        // e.g. an unaligned store straddling a chunk boundary. Merging in
        // chunk order must keep both halves, exactly as sequential execution
        // against shared memory would.
        let mut base = FlatMemory::new();
        base.write_u64(0x4000, u64::from_le_bytes([9; 8]));
        let mut shared = base.clone();

        let mut a = CowMemory::new(&base);
        for i in 0..4 {
            a.write_u8(0x4000 + i, 0xaa);
        }
        let mut b = CowMemory::new(&base);
        for i in 4..8 {
            b.write_u8(0x4000 + i, 0xbb);
        }
        let (wa, wb) = (a.into_pages().to_writes(), b.into_pages().to_writes());
        assert_eq!(wa[0].2, 0x0f, "low-half dirty mask");
        assert_eq!(wb[0].2, 0xf0, "high-half dirty mask");
        CowMemory::apply_writes(&mut shared, &wa);
        CowMemory::apply_writes(&mut shared, &wb);
        assert_eq!(
            shared.peek_u64(0x4000),
            u64::from_le_bytes([0xaa, 0xaa, 0xaa, 0xaa, 0xbb, 0xbb, 0xbb, 0xbb])
        );
    }

    #[test]
    fn views_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CowMemory<'_>>();
        assert_send::<ChunkOverlay>();
    }

    #[test]
    fn page_merge_matches_word_merge_and_skips_untouched_pages() {
        let mut base = FlatMemory::new();
        // Several mapped pages; chunks will touch only two of them.
        for page in 0..6u64 {
            base.write_u64(page << 12, page + 100);
        }
        let mut word_merged = base.clone();

        let mut a = CowMemory::new(&base);
        a.write_u64(0x1000, 0xaaaa);
        a.write_u8(0x3004, 0xa5);
        let mut b = CowMemory::new(&base);
        b.write_u64(0x1008, 0xbbbb);
        b.write_u8(0x3005, 0x5b);

        let (pa, pb) = (a.into_pages(), b.into_pages());
        for chunk in [&pa, &pb] {
            CowMemory::apply_writes(&mut word_merged, &chunk.to_writes());
        }
        assert!(pa.is_dirty_word(0x1000) && pa.is_dirty_word(0x3007));
        assert!(!pa.is_dirty_word(0x1008) && !pa.is_dirty_word(0x2000));

        let mut page_merged = base.clone();
        let stats = merge_chunk_overlays(&mut page_merged, &[pa, pb], 4);
        assert_eq!(stats.pages_merged, 2, "only pages 1 and 3 were dirtied");
        assert_eq!(
            stats.pages_skipped, 4,
            "the other mapped pages were skipped"
        );
        assert_eq!(stats.words_applied, 4);
        assert_eq!(page_merged.image_digest(), word_merged.image_digest());
    }

    #[test]
    fn many_page_merge_is_bit_identical_to_word_merge() {
        let mut base = FlatMemory::new();
        for page in 0..128u64 {
            base.write_u64((page << 12) + 8, page * 31 + 7);
        }
        let mut word_merged = base.clone();

        // Two chunks with a deliberate overlap: chunk order must win.
        let mut a = CowMemory::new(&base);
        let mut b = CowMemory::new(&base);
        for page in 0..128u64 {
            let addr = (page << 12) + (page % 64) * 8;
            a.write_u64(addr, page ^ 0xdead);
            if page % 3 == 0 {
                b.write_u64(addr, page ^ 0xbeef);
            }
            if page % 5 == 0 {
                b.write_u8(addr + 2, 0x77);
            }
        }
        let (pa, pb) = (a.into_pages(), b.into_pages());
        for chunk in [&pa, &pb] {
            CowMemory::apply_writes(&mut word_merged, &chunk.to_writes());
        }

        let mut page_merged = base.clone();
        let stats = merge_chunk_overlays(&mut page_merged, &[pa, pb], 4);
        assert_eq!(stats.pages_merged, 128);
        assert_eq!(page_merged.image_digest(), word_merged.image_digest());
    }
}
