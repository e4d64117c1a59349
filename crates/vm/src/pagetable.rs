//! The one page table under every guest-memory view.
//!
//! Guest addresses are dense — everything `janus_ir::layout` places lives
//! below 2³¹ — so a page number is an index, not a hash key: a two-level
//! radix over page numbers below 2¹⁹ (a 512-entry root of 1024-entry leaves,
//! 4 MiB of address space each) plus a std `HashMap` spill above, so a wild
//! guest address costs a keyed hash probe, never memory proportional to the
//! address. The root (4 KiB) and each leaf (8 KiB) are allocated by the
//! first insert that needs them; lookups never allocate.
//!
//! The table is public so that shadow state over guest addresses (the
//! profiler's iteration stamps, the DBM's transactional read sets) indexes
//! the same radix instead of growing a second one.

use std::collections::HashMap;

const LEAF_BITS: u32 = 10;
const LEAF_LEN: usize = 1 << LEAF_BITS;
const ROOT_LEN: usize = 512;
/// Page numbers below this are radix-indexed; the rest spill.
const RADIX_PAGES: u64 = (ROOT_LEN * LEAF_LEN) as u64;

type Leaf<T> = [Option<Box<T>>; LEAF_LEN];

/// A sparse map from page number (`addr >> 12`) to a boxed page payload.
#[derive(Debug, Clone)]
pub struct PageTable<T> {
    /// Empty until the first radix insert, `ROOT_LEN` entries afterwards.
    root: Vec<Option<Box<Leaf<T>>>>,
    spill: HashMap<u64, Box<T>>,
    len: usize,
}

impl<T> Default for PageTable<T> {
    fn default() -> Self {
        PageTable {
            root: Vec::new(),
            spill: HashMap::new(),
            len: 0,
        }
    }
}

fn page_number(hi: usize, lo: usize) -> u64 {
    ((hi << LEAF_BITS) | lo) as u64
}

impl<T> PageTable<T> {
    /// Number of mapped pages.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The payload of `page`, if mapped.
    #[must_use]
    pub fn get(&self, page: u64) -> Option<&T> {
        if page < RADIX_PAGES {
            let leaf = self.root.get((page >> LEAF_BITS) as usize)?.as_deref()?;
            leaf[page as usize & (LEAF_LEN - 1)].as_deref()
        } else {
            self.spill.get(&page).map(|p| &**p)
        }
    }

    /// The slot of a radix-indexed page, allocating root and leaf on demand
    /// (an associated function so callers can update `len` meanwhile).
    fn radix_slot(root: &mut Vec<Option<Box<Leaf<T>>>>, page: u64) -> &mut Option<Box<T>> {
        if root.is_empty() {
            root.resize_with(ROOT_LEN, || None);
        }
        let leaf = root[(page >> LEAF_BITS) as usize]
            .get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        &mut leaf[page as usize & (LEAF_LEN - 1)]
    }

    /// The payload of `page`, mapping `make()` first if it is absent.
    pub fn get_or_insert_with(&mut self, page: u64, make: impl FnOnce() -> Box<T>) -> &mut T {
        let len = &mut self.len;
        let make = || {
            *len += 1;
            make()
        };
        if page < RADIX_PAGES {
            Self::radix_slot(&mut self.root, page).get_or_insert_with(make)
        } else {
            self.spill.entry(page).or_insert_with(make)
        }
    }

    /// Every mapped page in ascending page order (spilled pages are all
    /// `>= RADIX_PAGES`, so they follow the radix).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let mut spilled: Vec<(u64, &T)> = self.spill.iter().map(|(&n, p)| (n, &**p)).collect();
        spilled.sort_unstable_by_key(|&(n, _)| n);
        let leaves = self.root.iter().enumerate();
        let radix = leaves.flat_map(|(hi, leaf)| {
            let pages = leaf.iter().flat_map(|leaf| leaf.iter().enumerate());
            pages.filter_map(move |(lo, page)| Some((page_number(hi, lo), page.as_deref()?)))
        });
        radix.chain(spilled)
    }

    /// Consumes the table into its pages in ascending page order.
    pub(crate) fn into_sorted(self) -> Vec<(u64, Box<T>)> {
        let mut pages = Vec::with_capacity(self.len);
        for (hi, mut leaf) in self.root.into_iter().enumerate() {
            for (lo, page) in leaf.iter_mut().flat_map(|leaf| leaf.iter_mut().enumerate()) {
                pages.extend(page.take().map(|page| (page_number(hi, lo), page)));
            }
        }
        let radix_len = pages.len();
        pages.extend(self.spill);
        pages[radix_len..].sort_unstable_by_key(|&(n, _)| n);
        pages
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

        *t.get_or_insert_with(5, || Box::new(1)) += 1;
        assert_eq!(t.root.len(), ROOT_LEN);
        assert_eq!(t.root.iter().filter(|l| l.is_some()).count(), 1);
        // A wild page costs one spill entry, not a leaf.
        t.get_or_insert_with(u64::MAX >> 12, || Box::new(9));
        t.get_or_insert_with(RADIX_PAGES, || Box::new(8));
        assert_eq!(t.root.iter().filter(|l| l.is_some()).count(), 1);
        assert_eq!((t.len(), t.spill.len()), (3, 2));
        assert_eq!(t.get(5), Some(&2));
        assert_eq!(t.get(RADIX_PAGES), Some(&8));
    }

    #[test]
    fn remapped_pages_count_once_and_iteration_is_ascending() {
        let mut t: PageTable<u32> = PageTable::default();
        for page in [u64::MAX >> 12, 3, RADIX_PAGES + 7, 1 << 18, 0, 1025] {
            t.get_or_insert_with(page, || Box::new(page as u32));
        }
        *t.get_or_insert_with(3, || unreachable!("page 3 is mapped")) = 33;
        assert_eq!(t.len(), 6, "a page mapped twice is counted once");
        let order: Vec<u64> = t.iter().map(|(n, _)| n).collect();
        assert_eq!(
            order,
            [0, 3, 1025, 1 << 18, RADIX_PAGES + 7, u64::MAX >> 12]
        );
        assert_eq!(t.get(3), Some(&33));
        let cloned = t.clone();
        let owned: Vec<(u64, u32)> = t.into_sorted().into_iter().map(|(n, p)| (n, *p)).collect();
        let borrowed: Vec<(u64, u32)> = cloned.iter().map(|(n, p)| (n, *p)).collect();
        assert_eq!(owned, borrowed);
    }
}
