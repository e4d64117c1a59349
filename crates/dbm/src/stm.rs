//! Just-in-time, word-based software transactional memory.
//!
//! Modelled on JudoSTM (lazy value-based conflict checking), as described in
//! section II-E2 of the paper: inside a transaction every heap read records
//! the value observed and every heap write is buffered. At commit the
//! recorded reads are validated against shared memory and, when they still
//! hold, the buffered writes are applied in thread order.

use janus_vm::GuestMemory;
use std::collections::HashMap;

/// Statistics of one transaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Number of 64-bit reads tracked.
    pub reads: u64,
    /// Number of 64-bit writes buffered.
    pub writes: u64,
}

/// A transactional view over guest memory.
///
/// Reads consult the local write buffer first and otherwise record the value
/// observed in shared memory; writes are buffered until [`TxView::commit`].
#[derive(Debug)]
pub struct TxView<'a, M: GuestMemory> {
    shared: &'a mut M,
    read_log: Vec<(u64, u64)>,
    write_buffer: HashMap<u64, u64>,
    stats: TxStats,
}

impl<'a, M: GuestMemory> TxView<'a, M> {
    /// Starts a transaction over `shared`.
    pub fn new(shared: &'a mut M) -> TxView<'a, M> {
        TxView {
            shared,
            read_log: Vec::new(),
            write_buffer: HashMap::new(),
            stats: TxStats::default(),
        }
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    /// Validates the read log against shared memory.
    #[must_use]
    pub fn validate(&mut self) -> bool {
        // Split borrow: the log is only iterated while shared memory is
        // re-read, so no clone of the (hot-path) read log is needed.
        let TxView {
            shared, read_log, ..
        } = self;
        read_log
            .iter()
            .all(|(addr, value)| shared.read_u64(*addr) == *value)
    }

    /// Validates and, on success, applies the buffered writes to shared
    /// memory. Returns `false` (and applies nothing) if validation failed.
    pub fn commit(mut self) -> bool {
        if !self.validate() {
            return false;
        }
        let mut writes: Vec<(u64, u64)> = self.write_buffer.iter().map(|(a, v)| (*a, *v)).collect();
        writes.sort_unstable();
        for (addr, value) in writes {
            self.shared.write_u64(addr, value);
        }
        true
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
            if let Some(v) = self.write_buffer.get(&word) {
                return *v;
            }
            let v = self.shared.read_u64(word);
            self.read_log.push((word, v));
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
            self.write_buffer.insert(word, value);
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
        let mut tx = TxView::new(&mut shared);
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
        let mut tx = TxView::new(&mut shared);
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
        let tx = TxView::new(&mut shared);
        assert!(tx.commit());
    }

    #[test]
    fn byte_accesses_compose_through_words() {
        let mut shared = FlatMemory::new();
        shared.write_u64(0x1000, 0x1122_3344_5566_7788);
        let mut tx = TxView::new(&mut shared);
        assert_eq!(tx.read_u8(0x1001), 0x77);
        tx.write_u8(0x1001, 0xaa);
        assert_eq!(tx.read_u8(0x1001), 0xaa);
        assert!(tx.commit());
        assert_eq!(shared.read_u64(0x1000), 0x1122_3344_5566_aa88);
    }
}
