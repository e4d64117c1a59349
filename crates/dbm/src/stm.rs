//! Just-in-time, word-based software transactional memory.
//!
//! Modelled on JudoSTM (lazy value-based conflict checking), as described in
//! section II-E2 of the paper: inside a transaction every heap read records
//! the value observed and every heap write is buffered. At commit the
//! recorded reads are validated against shared memory and, when they still
//! hold, the buffered writes are applied in thread order.
//!
//! A chunk's transactions reuse one [`TxLog`], so a warm chunk allocates
//! nothing per call, and nothing hashes a guest address: the write buffer is
//! sorted by address (a binary search per access; `memcpy` / `memset` runs
//! append) and a chunk's read set is a bitset on the page table.

use janus_vm::{GuestMemory, PageTable};
use std::ops::Range;

/// Statistics of one transaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Number of 64-bit reads tracked.
    pub reads: u64,
    /// Number of 64-bit writes buffered.
    pub writes: u64,
}

/// The reusable buffers of a chunk's transactions: `(word, value)` per
/// logged read in read order, and per buffered word sorted by address.
#[derive(Debug, Default)]
pub(crate) struct TxLog {
    reads: Vec<(u64, u64)>,
    writes: Vec<(u64, u64)>,
}

/// What a chunk's committed transactions touched outside its stack window.
#[derive(Debug, Default)]
pub(crate) struct TxFootprint {
    /// The words they read there.
    pub(crate) reads: WordSet,
    /// Whether any wrote there.
    pub(crate) escaped: bool,
}

impl TxFootprint {
    /// Adds the transaction `log` holds, which has just committed.
    pub(crate) fn record(&mut self, log: &TxLog, window: &Range<u64>) {
        for &(word, _) in log.reads.iter().filter(|(w, _)| !window.contains(w)) {
            self.reads.insert(word);
        }
        self.escaped |= log.writes.iter().any(|(w, _)| !window.contains(w));
    }
}

/// A set of aligned guest words: one bit per word, 512 to a page.
#[derive(Debug, Default)]
pub(crate) struct WordSet(PageTable<Box<[u64; 8]>>);

impl WordSet {
    pub(crate) fn insert(&mut self, word: u64) {
        let bits = self.0.get_or_insert_with(word >> 12, || Box::new([0; 8]));
        bits[(word >> 9) as usize % 8] |= 1 << ((word >> 3) % 64);
    }

    /// The words in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().flat_map(|(page, bits)| {
            let words = (0..512).filter(move |&i| bits[i / 64] >> (i % 64) & 1 != 0);
            words.map(move |i| (page << 12) + 8 * i as u64)
        })
    }
}

/// A transactional view over guest memory.
///
/// Reads consult the write buffer first and otherwise record the value
/// observed in shared memory; writes are buffered until [`TxView::commit`].
#[derive(Debug)]
pub(crate) struct TxView<'a, M: GuestMemory> {
    shared: &'a mut M,
    log: &'a mut TxLog,
    stats: TxStats,
}

impl<'a, M: GuestMemory> TxView<'a, M> {
    /// Starts a transaction over `shared`, reusing `log`'s buffers.
    pub(crate) fn new(shared: &'a mut M, log: &'a mut TxLog) -> TxView<'a, M> {
        log.reads.clear();
        log.writes.clear();
        TxView {
            shared,
            log,
            stats: TxStats::default(),
        }
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub(crate) fn stats(&self) -> TxStats {
        self.stats
    }

    /// Validates the read log against shared memory.
    #[must_use]
    pub(crate) fn validate(&mut self) -> bool {
        let TxView { shared, log, .. } = self;
        log.reads
            .iter()
            .all(|&(addr, value)| shared.read_u64(addr) == value)
    }

    /// Validates and, on success, applies the buffered writes to shared
    /// memory in address order. Returns `false` (and applies nothing) if
    /// validation failed.
    pub(crate) fn commit(mut self) -> bool {
        if !self.validate() {
            return false;
        }
        for &(addr, value) in &self.log.writes {
            self.shared.write_u64(addr, value);
        }
        true
    }

    /// Where `word` is, or would be inserted, in the write buffer.
    fn buffered(&self, word: u64) -> Result<usize, usize> {
        self.log.writes.binary_search_by_key(&word, |&(w, _)| w)
    }

    fn aligned(addr: u64) -> u64 {
        addr & !7
    }
}

impl<M: GuestMemory> GuestMemory for TxView<'_, M> {
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
            if let Ok(i) = self.buffered(word) {
                return self.log.writes[i].1;
            }
            let v = self.shared.read_u64(word);
            self.log.reads.push((word, v));
            self.stats.reads += 1;
            v
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
                Ok(i) => self.log.writes[i].1 = value,
                Err(i) => self.log.writes.insert(i, (word, value)),
            }
            self.stats.writes += 1;
        } else {
            // Unaligned store: update the covering words byte by byte.
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
    fn reads_are_logged_and_writes_buffered_until_commit() {
        let mut shared = FlatMemory::new();
        shared.write_u64(0x1000, 7);
        let mut log = TxLog::default();
        let mut tx = TxView::new(&mut shared, &mut log);
        assert_eq!(tx.read_u64(0x1000), 7);
        tx.write_u64(0x2000, 99);
        assert_eq!(tx.read_u64(0x2000), 99, "reads observe own writes");
        assert_eq!(tx.stats().reads, 1, "own-write read is not logged");
        assert_eq!(tx.stats().writes, 1);
        assert!(tx.commit());
        assert_eq!(shared.read_u64(0x2000), 99);
    }

    #[test]
    fn conflicting_write_by_another_thread_aborts_commit() {
        let mut shared = FlatMemory::new();
        shared.write_u64(0x1000, 7);
        let mut log = TxLog::default();
        let mut tx = TxView::new(&mut shared, &mut log);
        let _ = tx.read_u64(0x1000);
        tx.write_u64(0x1008, 1);
        // Simulate an interleaved writer invalidating the read set.
        tx.shared.write_u64(0x1000, 8);
        assert!(!tx.validate());
        assert!(!tx.commit());
        assert_eq!(shared.read_u64(0x1008), 0, "aborted writes are discarded");
    }

    #[test]
    fn commit_with_empty_logs_succeeds() {
        let mut shared = FlatMemory::new();
        let mut log = TxLog::default();
        let tx = TxView::new(&mut shared, &mut log);
        assert!(tx.commit());
    }

    #[test]
    fn byte_accesses_compose_through_words() {
        let mut shared = FlatMemory::new();
        shared.write_u64(0x1000, 0x1122_3344_5566_7788);
        let mut log = TxLog::default();
        let mut tx = TxView::new(&mut shared, &mut log);
        assert_eq!(tx.read_u8(0x1001), 0x77);
        tx.write_u8(0x1001, 0xaa);
        assert_eq!(tx.read_u8(0x1001), 0xaa);
        assert!(tx.commit());
        assert_eq!(shared.read_u64(0x1000), 0x1122_3344_5566_aa88);
    }

    /// Records the order writes reach memory in.
    struct Recording(FlatMemory, Vec<u64>);

    impl GuestMemory for Recording {
        fn read_u8(&mut self, addr: u64) -> u8 {
            self.0.read_u8(addr)
        }
        fn write_u8(&mut self, addr: u64, value: u8) {
            self.0.write_u8(addr, value);
        }
        fn read_u64(&mut self, addr: u64) -> u64 {
            self.0.read_u64(addr)
        }
        fn write_u64(&mut self, addr: u64, value: u64) {
            self.1.push(addr);
            self.0.write_u64(addr, value);
        }
    }

    #[test]
    fn a_large_transaction_reads_its_own_writes_and_commits_in_address_order() {
        const WORDS: u64 = 4096;
        let mut shared = Recording(FlatMemory::new(), Vec::new());
        for i in 0..WORDS {
            shared.0.write_u64(0x10_0000 + 8 * i, i);
        }
        let mut log = TxLog::default();
        // A used log is cleared, not carried over.
        log.reads.push((8, 8));
        log.writes.push((16, 16));
        let mut tx = TxView::new(&mut shared, &mut log);
        // Descending, so every write lands below the buffered ones.
        for i in (0..WORDS).rev() {
            let word = 0x10_0000 + 8 * i;
            let v = tx.read_u64(word);
            tx.write_u64(word, v + 1);
            assert_eq!(tx.read_u64(word), i + 1, "own write at word {i}");
        }
        // A second pass over the buffer: reads of own writes, overwrites.
        for i in 0..WORDS {
            let word = 0x10_0000 + 8 * i;
            let v = tx.read_u64(word);
            tx.write_u64(word, v * 2);
        }
        let stats = tx.stats();
        assert_eq!(stats.reads, WORDS, "only the first read of each word");
        assert_eq!(stats.writes, 2 * WORDS);
        assert!(tx.commit());
        assert_eq!(log.writes.len() as u64, WORDS);
        let order: Vec<u64> = (0..WORDS).map(|i| 0x10_0000 + 8 * i).collect();
        assert_eq!(shared.1, order, "one write per word, ascending");
        for i in 0..WORDS {
            assert_eq!(shared.0.peek_u64(0x10_0000 + 8 * i), (i + 1) * 2);
        }
    }

    #[test]
    fn word_sets_iterate_in_ascending_order_once_per_word() {
        let mut set = WordSet::default();
        for word in [0x20_0008, 0x1ff8, 0x1000, 0x20_0008, 0x1ff8, 0] {
            set.insert(word);
        }
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            [0, 0x1000, 0x1ff8, 0x20_0008]
        );
    }
}
