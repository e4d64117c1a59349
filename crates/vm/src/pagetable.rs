//! The one page table under every guest-memory view, and the page cache in
//! front of it.
//!
//! Guest addresses are dense — everything `janus_ir::layout` places lives
//! below 2³¹ — so a page number is an index, not a hash key: a two-level
//! radix over page numbers below 2¹⁹ (a 512-entry root of 1024-entry leaves,
//! 4 MiB of address space each) plus a std `HashMap` spill above, so a wild
//! guest address costs a keyed hash probe, never memory proportional to the
//! address. The root (4 KiB) and each leaf are allocated by the first insert
//! that needs them; lookups never allocate. Values sit in the leaves
//! themselves: the guest memories store a `u32` frame number per page (their
//! page bytes live in a slab of boxed frames), the shadow tables a boxed
//! block.
//!
//! The table is public so that shadow state over guest addresses (the
//! profiler's iteration stamps, the DBM's transactional read sets, the
//! speculative version store) indexes the same radix instead of growing a
//! second one.
//!
//! A radix walk is three dependent loads and a spill check, and guest code
//! makes one memory access every two to four instructions. [`PageCache`] is
//! what the accessors consult first: a direct-mapped array of the last few
//! translations, indexed by the low bits of the page number, so a hit is one
//! compare and one index. Kernels alternate between a few arrays and the
//! stack, which a one-entry cache thrashes on and eight entries hold.

use std::collections::HashMap;

const LEAF_BITS: u32 = 10;
const LEAF_LEN: usize = 1 << LEAF_BITS;
const ROOT_LEN: usize = 512;
/// Page numbers below this are radix-indexed; the rest spill.
const RADIX_PAGES: u64 = (ROOT_LEN * LEAF_LEN) as u64;

type Leaf<T> = [Option<T>; LEAF_LEN];

/// A sparse map from page number (`addr >> 12`) to a per-page value.
#[derive(Debug, Clone)]
pub struct PageTable<T> {
    /// Empty until the first radix insert, `ROOT_LEN` entries afterwards.
    root: Vec<Option<Box<Leaf<T>>>>,
    spill: HashMap<u64, T>,
}

impl<T> Default for PageTable<T> {
    fn default() -> Self {
        PageTable {
            root: Vec::new(),
            spill: HashMap::new(),
        }
    }
}

fn page_number(hi: usize, lo: usize) -> u64 {
    ((hi << LEAF_BITS) | lo) as u64
}

impl<T> PageTable<T> {
    /// The value of `page`, if mapped.
    #[must_use]
    pub fn get(&self, page: u64) -> Option<&T> {
        if page < RADIX_PAGES {
            let leaf = self.root.get((page >> LEAF_BITS) as usize)?.as_deref()?;
            leaf[page as usize & (LEAF_LEN - 1)].as_ref()
        } else {
            self.spill.get(&page)
        }
    }

    /// The slot of a radix-indexed page, allocating root and leaf on demand.
    fn radix_slot(&mut self, page: u64) -> &mut Option<T> {
        if self.root.is_empty() {
            self.root.resize_with(ROOT_LEN, || None);
        }
        let leaf = self.root[(page >> LEAF_BITS) as usize]
            .get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        &mut leaf[page as usize & (LEAF_LEN - 1)]
    }

    /// The value of `page`, mapping `make()` first if it is absent.
    pub fn get_or_insert_with(&mut self, page: u64, make: impl FnOnce() -> T) -> &mut T {
        if page < RADIX_PAGES {
            self.radix_slot(page).get_or_insert_with(make)
        } else {
            self.spill.entry(page).or_insert_with(make)
        }
    }

    /// Every mapped page in ascending page order (spilled pages are all
    /// `>= RADIX_PAGES`, so they follow the radix).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let mut spilled: Vec<(u64, &T)> = self.spill.iter().map(|(&n, v)| (n, v)).collect();
        spilled.sort_unstable_by_key(|&(n, _)| n);
        let leaves = self.root.iter().enumerate();
        let radix = leaves.flat_map(|(hi, leaf)| {
            let pages = leaf.iter().flat_map(|leaf| leaf.iter().enumerate());
            pages.filter_map(move |(lo, value)| Some((page_number(hi, lo), value.as_ref()?)))
        });
        radix.chain(spilled)
    }
}

/// Entries in a [`PageCache`] (a power of two).
const CACHE_ENTRIES: usize = 8;
/// The tag of an empty entry: no page number (`addr >> 12`) reaches it.
const NO_PAGE: u64 = u64::MAX;

/// A direct-mapped cache of page translations: page `p` can only sit in
/// entry `p % 8`, so a lookup is one compare and a hit one index.
///
/// The value is whatever the owner needs to reach the page without the
/// table — a frame number into its slab, or a reference to a shared base
/// page. The owner keeps entries right: it fills them from its table and
/// replaces an entry whenever the page's translation changes. Nothing here
/// is guest-visible; the cache only decides how fast a translation is.
#[derive(Debug, Clone, Copy)]
pub struct PageCache<T> {
    entries: [(u64, T); CACHE_ENTRIES],
}

impl<T: Copy> PageCache<T> {
    /// An empty cache. `fill` only occupies the empty entries; no lookup
    /// returns it.
    #[must_use]
    pub(crate) fn new(fill: T) -> PageCache<T> {
        PageCache {
            entries: [(NO_PAGE, fill); CACHE_ENTRIES],
        }
    }

    /// The cached translation of `page`, if any.
    #[inline(always)]
    #[must_use]
    pub(crate) fn get(&self, page: u64) -> Option<T> {
        let (tag, value) = self.entries[page as usize % CACHE_ENTRIES];
        (tag == page).then_some(value)
    }

    /// Caches `value` as the translation of `page`, evicting whichever page
    /// shared its entry.
    #[inline(always)]
    pub(crate) fn insert(&mut self, page: u64, value: T) {
        self.entries[page as usize % CACHE_ENTRIES] = (page, value);
    }
}

impl Default for PageCache<u32> {
    fn default() -> Self {
        PageCache::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_never_allocate_and_inserts_allocate_by_region() {
        let mut t: PageTable<u32> = PageTable::default();
        assert!(t.get(0).is_none() && t.get(RADIX_PAGES - 1).is_none());
        assert!(t.get(u64::MAX >> 12).is_none());
        assert!(
            t.root.is_empty() && t.spill.is_empty(),
            "reads allocate nothing"
        );

        *t.get_or_insert_with(5, || 1) += 1;
        assert_eq!(t.root.len(), ROOT_LEN);
        assert_eq!(t.root.iter().filter(|l| l.is_some()).count(), 1);
        // A wild page costs one spill entry, not a leaf.
        t.get_or_insert_with(u64::MAX >> 12, || 9);
        t.get_or_insert_with(RADIX_PAGES, || 8);
        assert_eq!(t.root.iter().filter(|l| l.is_some()).count(), 1);
        assert_eq!((t.iter().count(), t.spill.len()), (3, 2));
        assert_eq!(t.get(5), Some(&2));
        assert_eq!(t.get(RADIX_PAGES), Some(&8));
    }

    #[test]
    fn remapped_pages_count_once_and_iteration_is_ascending() {
        let mut t: PageTable<u32> = PageTable::default();
        for page in [u64::MAX >> 12, 3, RADIX_PAGES + 7, 1 << 18, 0, 1025] {
            t.get_or_insert_with(page, || page as u32);
        }
        *t.get_or_insert_with(3, || unreachable!("page 3 is mapped")) = 33;
        assert_eq!(t.iter().count(), 6, "a page mapped twice is listed once");
        let order: Vec<u64> = t.iter().map(|(n, _)| n).collect();
        assert_eq!(
            order,
            [0, 3, 1025, 1 << 18, RADIX_PAGES + 7, u64::MAX >> 12]
        );
        assert_eq!(t.get(3), Some(&33));
        let cloned = t.clone();
        let pairs = |t: &PageTable<u32>| t.iter().map(|(n, v)| (n, *v)).collect::<Vec<_>>();
        assert_eq!(pairs(&cloned), pairs(&t));
    }

    #[test]
    fn the_cache_holds_one_page_per_entry() {
        let mut cache = PageCache::default();
        assert_eq!(cache.get(0), None, "an empty entry matches no page");
        // Pages 3 and 3 + 8 share an entry; 4 has its own.
        cache.insert(3, 30);
        cache.insert(4, 40);
        assert_eq!((cache.get(3), cache.get(4)), (Some(30), Some(40)));
        cache.insert(3 + CACHE_ENTRIES as u64, 110);
        assert_eq!(cache.get(3), None, "a colliding page evicts");
        assert_eq!(cache.get(3 + CACHE_ENTRIES as u64), Some(110));
        assert_eq!(cache.get(4), Some(40));
        // Spilled and wrapped-around page numbers index the same way.
        cache.insert(u64::MAX >> 12, 7);
        assert_eq!(cache.get(u64::MAX >> 12), Some(7));
        assert_eq!(cache.get((u64::MAX >> 12) - CACHE_ENTRIES as u64), None);
    }
}
