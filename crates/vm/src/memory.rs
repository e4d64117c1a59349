//! Guest memory: the flat virtual address space and the access trait used to
//! interpose on loads and stores.
//!
//! [`FlatMemory`] keeps its pages in a slab of boxed 4 KiB frames, numbered
//! in mapping order, and its [`PageTable`] maps a page number to a frame
//! number. Growing the slab moves frame pointers, never page bytes, so a
//! large image costs no copy. In front of the table sits a [`PageCache`] of
//! the last eight translations; a load or store that hits it is one compare
//! and two indexes, inlined into the interpreter, and only a miss walks the
//! radix (`#[cold]`, out of line).
//!
//! The cache is filled by `&mut` accesses only. Reads through `&self` — the
//! [`PeekMemory`] face worker threads share — walk the table and write
//! nothing, so `FlatMemory` stays `Sync` without interior mutability. A view
//! over a shared base caches base *pages* instead ([`BasePages`]): the base
//! cannot change while the view borrows it, so a page reference stays right
//! for the whole borrow, and each view owns its cache, so threads never
//! contend on one.

use crate::pagetable::{PageCache, PageTable};

pub(crate) const PAGE_SHIFT: u64 = 12;
pub(crate) const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// What an unmapped page reads as.
pub(crate) static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// The little-endian word at byte `off` of a page (`off <= PAGE_SIZE - 8`).
#[inline(always)]
pub(crate) fn word_at(bytes: &[u8; PAGE_SIZE], off: usize) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(word)
}

/// The interface through which executed instructions access guest memory.
///
/// The dynamic binary modifier interposes on this trait to implement memory
/// privatisation, main-stack redirection and software transactional memory:
/// translated code runs against a wrapper view instead of the raw
/// [`FlatMemory`].
pub trait GuestMemory {
    /// Reads one byte.
    fn read_u8(&mut self, addr: u64) -> u8;
    /// Writes one byte.
    fn write_u8(&mut self, addr: u64, value: u8);

    /// Reads a little-endian 64-bit value.
    fn read_u64(&mut self, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian 64-bit value.
    fn write_u64(&mut self, addr: u64, value: u64) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Reads an `i64`.
    fn read_i64(&mut self, addr: u64) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes an `i64`.
    fn write_i64(&mut self, addr: u64, value: i64) {
        self.write_u64(addr, value as u64);
    }

    /// Reads an `f64`.
    fn read_f64(&mut self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64`.
    fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Copies `data.len()` bytes into guest memory starting at `addr`.
    fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    fn read_bytes(&mut self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u64)))
            .collect()
    }
}

/// Non-mutating guest-memory reads through a shared reference.
///
/// [`GuestMemory`] takes `&mut self` even for loads (views track read sets,
/// the flat memory counts accesses), which makes it unusable as the *shared
/// base* of concurrently executing views: worker threads all need to read the
/// same immutable image at once. This trait is that read-only face. It is
/// implemented by [`FlatMemory`] (reads bypass the load counters, exactly
/// like the inherent `peek_*` methods) and by [`crate::CowMemory`] (overlay
/// words shadow the base), and it is what `janus-spec`'s per-incarnation
/// views and the OS-thread execution backends build on.
pub trait PeekMemory {
    /// Reads one byte without mutating any state.
    fn peek_u8(&self, addr: u64) -> u8;

    /// Reads a little-endian 64-bit value without mutating any state.
    fn peek_u64(&self, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.peek_u8(addr.wrapping_add(i as u64));
        }
        u64::from_le_bytes(bytes)
    }

    /// The bytes of page `page` (`addr >> 12`), for a reader that caches
    /// pages for as long as it borrows `self` ([`BasePages`]), or `None`
    /// when this memory keeps no page of plain bytes (the default; such a
    /// reader falls back to [`PeekMemory::peek_u64`]).
    fn page_bytes(&self, page: u64) -> Option<&[u8; PAGE_SIZE]> {
        let _ = page;
        None
    }
}

impl PeekMemory for FlatMemory {
    fn peek_u8(&self, addr: u64) -> u8 {
        FlatMemory::peek_u8(self, addr)
    }

    fn peek_u64(&self, addr: u64) -> u64 {
        FlatMemory::peek_u64(self, addr)
    }

    /// Every page: an unmapped one is the shared zero page, which is what
    /// it reads as.
    fn page_bytes(&self, page: u64) -> Option<&[u8; PAGE_SIZE]> {
        Some(self.page_ref(page).unwrap_or(&ZERO_PAGE))
    }
}

/// A [`PageCache`] of a shared base's pages, owned by a view that only reads
/// that base (`janus-spec`'s speculative view). Feed one cache one base:
/// the entries are that base's pages.
pub type BasePages<'a> = PageCache<&'a [u8; PAGE_SIZE]>;

impl Default for BasePages<'_> {
    fn default() -> Self {
        PageCache::new(&ZERO_PAGE)
    }
}

impl<'a> BasePages<'a> {
    /// `base.peek_u64(addr)`, from a cached page when there is one. A read
    /// across a page boundary, and every read of a base without plain pages
    /// ([`PeekMemory::page_bytes`] `None`), goes to the base.
    #[inline(always)]
    pub fn peek_u64<M: PeekMemory + ?Sized>(&mut self, base: &'a M, addr: u64) -> u64 {
        let (page, off) = FlatMemory::page_of(addr);
        match self.get(page) {
            Some(bytes) if off <= PAGE_SIZE - 8 => word_at(bytes, off),
            _ => self.peek_u64_miss(base, addr),
        }
    }

    #[cold]
    #[inline(never)]
    fn peek_u64_miss<M: PeekMemory + ?Sized>(&mut self, base: &'a M, addr: u64) -> u64 {
        let (page, off) = FlatMemory::page_of(addr);
        match base.page_bytes(page) {
            Some(bytes) if off <= PAGE_SIZE - 8 => {
                self.insert(page, bytes);
                word_at(bytes, off)
            }
            _ => base.peek_u64(addr),
        }
    }
}

/// A sparse, page-granular flat address space: a slab of page frames, a
/// radix page table from page number to frame, and a page cache in front
/// (see the module docs). Unmapped memory reads as zero; address arithmetic
/// wraps, so no guest-chosen address can fault the host.
#[derive(Debug, Default, Clone)]
pub struct FlatMemory {
    /// Page number → frame number.
    table: PageTable<u32>,
    /// The page frames, in mapping order.
    frames: Vec<Box<[u8; PAGE_SIZE]>>,
    /// The last translations `&mut` accesses made. A clone keeps them: it
    /// copies the frames in order, so every frame number still holds.
    cache: PageCache<u32>,
    /// Number of load operations serviced (for statistics).
    pub loads: u64,
    /// Number of store operations serviced (for statistics).
    pub stores: u64,
}

impl FlatMemory {
    /// Creates an empty address space.
    #[must_use]
    pub fn new() -> FlatMemory {
        FlatMemory::default()
    }

    #[inline(always)]
    fn page_of(addr: u64) -> (u64, usize) {
        (addr >> PAGE_SHIFT, (addr & (PAGE_SIZE as u64 - 1)) as usize)
    }

    /// Number of pages currently mapped.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.frames.len()
    }

    /// The raw bytes of one mapped page, by page index (`addr >> PAGE_SHIFT`),
    /// or `None` for an unmapped page. Used by the copy-on-write overlay,
    /// which seeds its pages from a base image shared by worker threads.
    pub(crate) fn page_ref(&self, page: u64) -> Option<&[u8; PAGE_SIZE]> {
        let frame = *self.table.get(page)?;
        Some(&self.frames[frame as usize])
    }

    /// The frame of a mapped page, through the cache.
    #[inline(always)]
    fn frame(&mut self, page: u64) -> Option<u32> {
        match self.cache.get(page) {
            Some(frame) => Some(frame),
            None => self.translate(page),
        }
    }

    /// A cache miss: walks the table and caches a mapped page's frame.
    #[cold]
    #[inline(never)]
    fn translate(&mut self, page: u64) -> Option<u32> {
        let frame = *self.table.get(page)?;
        self.cache.insert(page, frame);
        Some(frame)
    }

    /// The bytes of one page, mapping it (zero-filled) if absent. Access
    /// statistics are not touched — this is the store path's and the merge
    /// path's primitive, not a guest access.
    #[inline(always)]
    pub(crate) fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE] {
        let frame = match self.cache.get(page) {
            Some(frame) => frame,
            None => self.map(page),
        };
        &mut self.frames[frame as usize]
    }

    /// A cache miss on the store path: the page's frame, a fresh zero frame
    /// if it is unmapped, cached.
    #[cold]
    #[inline(never)]
    fn map(&mut self, page: u64) -> u32 {
        let frames = &mut self.frames;
        let frame = *self.table.get_or_insert_with(page, || {
            frames.push(Box::new([0; PAGE_SIZE]));
            u32::try_from(frames.len() - 1).expect("fewer than 2^32 frames")
        });
        self.cache.insert(page, frame);
        frame
    }

    /// Reads one byte without updating access statistics. Used by shared
    /// read-only views ([`crate::CowMemory`]) that layer private writes over
    /// an immutable base image.
    #[must_use]
    pub fn peek_u8(&self, addr: u64) -> u8 {
        let (page, off) = Self::page_of(addr);
        self.page_ref(page).map_or(0, |p| p[off])
    }

    /// Reads a little-endian 64-bit value without updating access statistics.
    #[must_use]
    pub fn peek_u64(&self, addr: u64) -> u64 {
        let (page, off) = Self::page_of(addr);
        if off <= PAGE_SIZE - 8 {
            self.page_ref(page).map_or(0, |p| word_at(p, off))
        } else {
            let bytes = std::array::from_fn(|i| self.peek_u8(addr.wrapping_add(i as u64)));
            u64::from_le_bytes(bytes)
        }
    }

    /// A deterministic digest of the guest-visible memory image (FNV-1a over
    /// each mapped page's number, little-endian, then its bytes, in address
    /// order). Pages holding only zero bytes are skipped, so an unwritten
    /// page and a page written with zeroes — which are indistinguishable to
    /// the guest — digest identically. Access statistics do not contribute.
    /// Used to assert that two execution backends left behind the same final
    /// memory image.
    ///
    /// FNV-1a folds a zero byte in as one multiply by its prime P, so a zero
    /// word is one multiply by P⁸: pages are hashed word by word, and only
    /// non-zero words go through the byte loop. The value is still FNV-1a,
    /// byte for byte.
    #[must_use]
    pub fn image_digest(&self) -> u64 {
        use janus_ir::digest::{fnv1a_update, FNV1A_OFFSET, FNV1A_PRIME};
        const ZERO_WORD: u64 = FNV1A_PRIME.wrapping_pow(8);
        let mut h = FNV1A_OFFSET;
        for (page, &frame) in self.table.iter() {
            let bytes = &self.frames[frame as usize];
            if bytes.iter().any(|b| *b != 0) {
                h = fnv1a_update(h, &page.to_le_bytes());
                for word in bytes.chunks_exact(8) {
                    h = if word == [0; 8] {
                        h.wrapping_mul(ZERO_WORD)
                    } else {
                        fnv1a_update(h, word)
                    };
                }
            }
        }
        h
    }
}

impl GuestMemory for FlatMemory {
    #[inline(always)]
    fn read_u8(&mut self, addr: u64) -> u8 {
        self.loads += 1;
        let (page, off) = Self::page_of(addr);
        self.frame(page)
            .map_or(0, |frame| self.frames[frame as usize][off])
    }

    #[inline(always)]
    fn write_u8(&mut self, addr: u64, value: u8) {
        self.stores += 1;
        let (page, off) = Self::page_of(addr);
        self.page_mut(page)[off] = value;
    }

    #[inline(always)]
    fn read_u64(&mut self, addr: u64) -> u64 {
        self.loads += 1;
        let (page, off) = Self::page_of(addr);
        if off > PAGE_SIZE - 8 {
            return self.peek_u64(addr);
        }
        self.frame(page)
            .map_or(0, |frame| word_at(&self.frames[frame as usize], off))
    }

    #[inline(always)]
    fn write_u64(&mut self, addr: u64, value: u64) {
        self.stores += 1;
        let (page, off) = Self::page_of(addr);
        if off <= PAGE_SIZE - 8 {
            self.page_mut(page)[off..off + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                let (page, off) = Self::page_of(addr.wrapping_add(i as u64));
                self.page_mut(page)[off] = *b;
            }
        }
    }

    /// One slice copy per touched page. Maps exactly the pages the byte loop
    /// would (all-zero data included), wraps at `u64::MAX`, and counts one
    /// store per byte.
    fn write_bytes(&mut self, mut addr: u64, data: &[u8]) {
        self.stores += data.len() as u64;
        let mut rest = data;
        while !rest.is_empty() {
            let (page, off) = Self::page_of(addr);
            let (head, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
            self.page_mut(page)[off..off + head.len()].copy_from_slice(head);
            addr = addr.wrapping_add(head.len() as u64);
            rest = tail;
        }
    }

    /// One slice copy per touched page; maps nothing and counts one load
    /// per byte.
    fn read_bytes(&mut self, mut addr: u64, len: usize) -> Vec<u8> {
        self.loads += len as u64;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let (page, off) = Self::page_of(addr);
            let n = (len - out.len()).min(PAGE_SIZE - off);
            match self.frame(page) {
                Some(frame) => out.extend_from_slice(&self.frames[frame as usize][off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
            addr = addr.wrapping_add(n as u64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn unmapped_memory_reads_zero() {
        let mut m = FlatMemory::new();
        assert_eq!(m.read_u8(0x12345), 0);
        assert_eq!(m.read_u64(0xdead_beef), 0);
        assert_eq!(m.mapped_pages(), 0, "reads do not allocate pages");
    }

    #[test]
    fn u64_round_trip_aligned_and_unaligned() {
        let mut m = FlatMemory::new();
        m.write_u64(0x1000, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x1000), 0x0123_4567_89ab_cdef);
        // Crosses a page boundary.
        let addr = 0x1ffc;
        m.write_u64(addr, 0xfeed_f00d_dead_beef);
        assert_eq!(m.read_u64(addr), 0xfeed_f00d_dead_beef);
    }

    #[test]
    fn f64_and_i64_round_trip() {
        let mut m = FlatMemory::new();
        m.write_f64(0x2000, -3.25);
        assert_eq!(m.read_f64(0x2000), -3.25);
        m.write_i64(0x2008, -99);
        assert_eq!(m.read_i64(0x2008), -99);
    }

    #[test]
    fn bytes_round_trip() {
        let mut m = FlatMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x0fff, &data); // crosses a page boundary
        assert_eq!(m.read_bytes(0x0fff, 256), data);
    }

    #[test]
    fn statistics_count_accesses() {
        let mut m = FlatMemory::new();
        m.write_u64(0x100, 1);
        let _ = m.read_u64(0x100);
        let _ = m.read_u8(0x100);
        assert_eq!(m.stores, 1);
        assert_eq!(m.loads, 2);
    }

    #[test]
    fn peek_matches_read_without_counting() {
        let mut m = FlatMemory::new();
        m.write_u64(0x1ffc, 0xfeed_f00d_dead_beef); // crosses a page boundary
        let loads = m.loads;
        assert_eq!(m.peek_u64(0x1ffc), 0xfeed_f00d_dead_beef);
        assert_eq!(m.peek_u8(0x1ffc), 0xef);
        assert_eq!(m.peek_u64(0x9_0000), 0, "unmapped memory peeks zero");
        assert_eq!(m.loads, loads, "peeks are not counted as loads");
    }

    #[test]
    fn image_digest_ignores_stats_and_zero_pages() {
        let mut a = FlatMemory::new();
        let mut b = FlatMemory::new();
        a.write_u64(0x4000, 77);
        b.write_u64(0x4000, 77);
        // Extra loads/stores and an all-zero page must not change the digest.
        let _ = b.read_u64(0x4000);
        b.write_u64(0x8000, 0);
        assert_eq!(a.image_digest(), b.image_digest());
        a.write_u64(0x4008, 1);
        assert_ne!(a.image_digest(), b.image_digest());
    }

    /// Byte-serial FNV-1a over `page.to_le_bytes() ++ page bytes` for each
    /// non-zero page of a byte model, in ascending page order: what
    /// `image_digest` must equal, computed without its zero-word shortcut.
    fn reference_digest(model: &BTreeMap<u64, u8>) -> u64 {
        let mut pages = BTreeMap::new();
        for (&addr, &byte) in model {
            let (page, off) = FlatMemory::page_of(addr);
            pages.entry(page).or_insert([0u8; PAGE_SIZE])[off] = byte;
        }
        let mut stream = Vec::new();
        for (page, bytes) in pages.iter().filter(|(_, b)| b.iter().any(|&x| x != 0)) {
            stream.extend_from_slice(&page.to_le_bytes());
            stream.extend_from_slice(bytes);
        }
        janus_ir::digest::fnv1a(&stream)
    }

    fn write_word(mem: &mut FlatMemory, model: &mut BTreeMap<u64, u8>, addr: u64, value: u64) {
        mem.write_u64(addr, value);
        for (i, byte) in value.to_le_bytes().into_iter().enumerate() {
            model.insert(addr + i as u64, byte);
        }
    }

    #[test]
    fn image_digest_is_byte_serial_fnv1a_over_the_non_zero_pages() {
        let mut mem = FlatMemory::new();
        let mut model = BTreeMap::new();
        // Zero and non-zero words mixed on one page.
        let words = [7, 0, 0, u64::MAX, 0, 1 << 63, 0x0100];
        for (i, value) in words.into_iter().enumerate() {
            write_word(&mut mem, &mut model, 0x4000 + 8 * i as u64, value);
        }
        // A mapped page holding only zeroes.
        write_word(&mut mem, &mut model, 0x9000, 0);
        // A page whose only non-zero byte is its last.
        mem.write_u8(0xa000 + 4095, 0x5a);
        model.insert(0xa000 + 4095, 0x5a);
        // A page far above the radix (2^19 pages), which spills.
        write_word(&mut mem, &mut model, 0x7fff_0000_0ff8, 0xdead_beef);
        assert_eq!(mem.mapped_pages(), 4);
        assert_eq!(mem.image_digest(), reference_digest(&model));
    }

    proptest::proptest! {
        #[test]
        fn image_digest_matches_the_byte_serial_reference(
            writes in proptest::collection::vec(
                (0u64..4, 0u64..512, proptest::prelude::any::<u64>(), 0u8..3),
                0..48,
            ),
        ) {
            const PAGES: [u64; 4] = [0x10, 0x11, 0x3ff, 0x7_0000_0000];
            let mut mem = FlatMemory::new();
            let mut model = BTreeMap::new();
            for &(page, word, value, kind) in &writes {
                // One write in three is a zero word, one a single low byte.
                let value = [0, value & 0xff, value][kind as usize];
                write_word(&mut mem, &mut model, (PAGES[page as usize] << 12) + 8 * word, value);
            }
            proptest::prop_assert_eq!(mem.image_digest(), reference_digest(&model));
        }
    }

    #[test]
    fn partial_overwrite_behaves_byte_wise() {
        let mut m = FlatMemory::new();
        m.write_u64(0x3000, u64::MAX);
        m.write_u8(0x3000, 0);
        assert_eq!(m.read_u64(0x3000), u64::MAX << 8);
    }
}
