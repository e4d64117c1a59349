//! The JBin executable container.
//!
//! A [`JBinary`] plays the role of an ELF executable: it carries the encoded
//! `.text` section, initialised `.data`, a `.bss` size, a PLT describing the
//! external functions the program imports, and an optional symbol table that
//! can be stripped. The static analyser, the profiler and the dynamic binary
//! modifier all consume this container.

use crate::digest::fnv1a;
use crate::encode::INST_SIZE;
use crate::error::{IrError, Result};
use crate::layout::{DATA_BASE, TEXT_BASE};
use std::fmt;

const MAGIC: &[u8; 4] = b"JBIN";
const FORMAT_VERSION: u32 = 1;

/// Kinds of symbols in a [`JBinary`] symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// A function entry point in `.text`.
    Function,
    /// A data object in `.data`/`.bss`.
    Object,
}

/// A named symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Virtual address of the symbol.
    pub addr: u64,
    /// Size in bytes (0 when unknown).
    pub size: u64,
    /// Kind of symbol.
    pub kind: SymbolKind,
}

/// An entry in the procedure-linkage table describing an imported function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PltEntry {
    /// The imported function's name (e.g. `"pow"`).
    pub name: String,
}

/// A JVA executable image.
///
/// # Example
///
/// ```
/// use janus_ir::{AsmBuilder, Inst, JBinary};
/// let mut asm = AsmBuilder::new();
/// asm.label("main");
/// asm.push(Inst::Halt);
/// let bin = asm.finish_binary("main").unwrap();
/// let bytes = bin.to_bytes();
/// let reloaded = JBinary::from_bytes(&bytes).unwrap();
/// assert_eq!(reloaded.entry(), bin.entry());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JBinary {
    entry: u64,
    text_base: u64,
    text: Vec<u8>,
    data_base: u64,
    data: Vec<u8>,
    bss_size: u64,
    plt: Vec<PltEntry>,
    symbols: Vec<Symbol>,
    producer: String,
}

impl JBinary {
    /// Creates a new binary from raw sections.
    ///
    /// # Errors
    ///
    /// Returns an error if the text section is not a whole number of
    /// instructions or the entry point lies outside the text section.
    pub fn new(entry: u64, text: Vec<u8>, data: Vec<u8>, bss_size: u64) -> Result<JBinary> {
        JBinary::new_at(entry, TEXT_BASE, text, DATA_BASE, data, bss_size)
    }

    /// Creates a new binary with explicit section base addresses. Used for the
    /// shared system library image that lives in the high address range.
    ///
    /// # Errors
    ///
    /// Returns an error if the text section is not a whole number of
    /// instructions or the entry point lies outside the text section.
    pub fn new_at(
        entry: u64,
        text_base: u64,
        text: Vec<u8>,
        data_base: u64,
        data: Vec<u8>,
        bss_size: u64,
    ) -> Result<JBinary> {
        if text.len() % INST_SIZE != 0 {
            return Err(IrError::MalformedBinary {
                reason: format!(
                    "text size {} is not a multiple of the instruction size",
                    text.len()
                ),
            });
        }
        let bin = JBinary {
            entry,
            text_base,
            text,
            data_base,
            data,
            bss_size,
            plt: Vec::new(),
            symbols: Vec::new(),
            producer: String::new(),
        };
        if !bin.text_contains(entry) {
            return Err(IrError::MalformedBinary {
                reason: format!("entry point {entry:#x} lies outside the text section"),
            });
        }
        Ok(bin)
    }

    /// Program entry point address.
    #[must_use]
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Base address of the text section.
    #[must_use]
    pub fn text_base(&self) -> u64 {
        self.text_base
    }

    /// Raw bytes of the text section.
    #[must_use]
    pub fn text(&self) -> &[u8] {
        &self.text
    }

    /// Length of the text section in bytes.
    #[must_use]
    pub fn text_len(&self) -> u64 {
        self.text.len() as u64
    }

    /// End address (exclusive) of the text section.
    #[must_use]
    pub fn text_end(&self) -> u64 {
        self.text_base + self.text.len() as u64
    }

    /// Returns `true` when `addr` points into the text section.
    #[must_use]
    pub fn text_contains(&self, addr: u64) -> bool {
        addr >= self.text_base && addr < self.text_end()
    }

    /// Base address of the data section.
    #[must_use]
    pub fn data_base(&self) -> u64 {
        self.data_base
    }

    /// Raw bytes of the initialised data section.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Size of the zero-initialised (bss) region that follows `.data`.
    #[must_use]
    pub fn bss_size(&self) -> u64 {
        self.bss_size
    }

    /// The procedure-linkage table (imported external functions).
    #[must_use]
    pub fn plt(&self) -> &[PltEntry] {
        &self.plt
    }

    /// Appends a PLT entry and returns its index.
    pub fn add_plt_entry(&mut self, name: impl Into<String>) -> u32 {
        let name = name.into();
        if let Some(pos) = self.plt.iter().position(|e| e.name == name) {
            return pos as u32;
        }
        self.plt.push(PltEntry { name });
        (self.plt.len() - 1) as u32
    }

    /// The symbol table (may be empty for stripped binaries).
    #[must_use]
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Adds a symbol to the symbol table.
    pub fn add_symbol(&mut self, symbol: Symbol) {
        self.symbols.push(symbol);
    }

    /// Finds a symbol by name.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownSymbol`] if no symbol has this name.
    pub fn symbol(&self, name: &str) -> Result<&Symbol> {
        self.symbols
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| IrError::UnknownSymbol {
                name: name.to_string(),
            })
    }

    /// Removes all symbols, producing a stripped binary (the common case the
    /// paper targets).
    pub fn strip(&mut self) {
        self.symbols.clear();
    }

    /// Identifier of the tool that produced the binary (e.g. `"jcc -O3"`).
    #[must_use]
    pub fn producer(&self) -> &str {
        &self.producer
    }

    /// Sets the producer string.
    pub fn set_producer(&mut self, producer: impl Into<String>) {
        self.producer = producer.into();
    }

    /// Number of instructions in the text section.
    #[must_use]
    pub fn num_instructions(&self) -> u64 {
        (self.text.len() / INST_SIZE) as u64
    }

    /// Total size of the serialised binary in bytes (used for the rewrite
    /// schedule size comparison in Figure 10).
    #[must_use]
    pub fn file_size(&self) -> u64 {
        self.to_bytes().len() as u64
    }

    /// Content digest of the binary: a 64-bit FNV-1a hash over the exact
    /// serialised image ([`JBinary::to_bytes`]). Byte-identical binaries
    /// always share a digest, so it is a stable content-addressed key for
    /// caches of derived artifacts (analyses, rewrite schedules) across
    /// processes and machines. FNV-1a is fast, not collision-resistant:
    /// distinct binaries colliding is vanishingly unlikely by accident but
    /// constructible on purpose, so digest-keyed caches assume their
    /// tenants are trusted (swap in a cryptographic hash at this one site
    /// to drop that assumption).
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        fnv1a(&self.to_bytes())
    }

    /// Serialises the binary to its on-disk representation.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.text.len() + self.data.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.entry.to_le_bytes());
        out.extend_from_slice(&self.text_base.to_le_bytes());
        out.extend_from_slice(&self.data_base.to_le_bytes());
        out.extend_from_slice(&self.bss_size.to_le_bytes());
        write_bytes(&mut out, &self.text);
        write_bytes(&mut out, &self.data);
        out.extend_from_slice(&(self.plt.len() as u32).to_le_bytes());
        for e in &self.plt {
            write_str(&mut out, &e.name);
        }
        out.extend_from_slice(&(self.symbols.len() as u32).to_le_bytes());
        for s in &self.symbols {
            write_str(&mut out, &s.name);
            out.extend_from_slice(&s.addr.to_le_bytes());
            out.extend_from_slice(&s.size.to_le_bytes());
            out.push(match s.kind {
                SymbolKind::Function => 0,
                SymbolKind::Object => 1,
            });
        }
        write_str(&mut out, &self.producer);
        out
    }

    /// Deserialises a binary from its on-disk representation.
    ///
    /// # Errors
    ///
    /// Returns an error if the byte stream is not a valid JBin image.
    pub fn from_bytes(bytes: &[u8]) -> Result<JBinary> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(IrError::MalformedBinary {
                reason: "bad magic".to_string(),
            });
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(IrError::MalformedBinary {
                reason: format!("unsupported format version {version}"),
            });
        }
        let entry = r.u64()?;
        let text_base = r.u64()?;
        let data_base = r.u64()?;
        let bss_size = r.u64()?;
        let text = r.bytes()?.to_vec();
        let data = r.bytes()?.to_vec();
        let plt_len = r.count(4)?;
        let mut plt = Vec::with_capacity(plt_len);
        for _ in 0..plt_len {
            plt.push(PltEntry { name: r.string()? });
        }
        let sym_len = r.count(4 + 8 + 8 + 1)?;
        let mut symbols = Vec::with_capacity(sym_len);
        for _ in 0..sym_len {
            let name = r.string()?;
            let addr = r.u64()?;
            let size = r.u64()?;
            let kind = match r.u8()? {
                0 => SymbolKind::Function,
                1 => SymbolKind::Object,
                k => {
                    return Err(IrError::MalformedBinary {
                        reason: format!("invalid symbol kind {k}"),
                    })
                }
            };
            symbols.push(Symbol {
                name,
                addr,
                size,
                kind,
            });
        }
        let producer = r.string()?;
        if text.len() % INST_SIZE != 0 {
            return Err(IrError::MalformedBinary {
                reason: "text size is not a multiple of the instruction size".to_string(),
            });
        }
        Ok(JBinary {
            entry,
            text_base,
            text,
            data_base,
            data,
            bss_size,
            plt,
            symbols,
            producer,
        })
    }
}

impl fmt::Display for JBinary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JBinary {{ entry: {:#x}, text: {} insts, data: {} bytes, bss: {} bytes, plt: {}, symbols: {} }}",
            self.entry,
            self.num_instructions(),
            self.data.len(),
            self.bss_size,
            self.plt.len(),
            self.symbols.len()
        )
    }
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.bytes.len() - self.pos {
            return Err(IrError::MalformedBinary {
                reason: "unexpected end of file".to_string(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// A table length, checked against the bytes left: each entry takes at
    /// least `entry_bytes`, so a length they cannot hold is malformed rather
    /// than an allocation the length alone decides.
    fn count(&mut self, entry_bytes: usize) -> Result<usize> {
        let count = self.u32()? as usize;
        if count > (self.bytes.len() - self.pos) / entry_bytes {
            return Err(IrError::MalformedBinary {
                reason: format!("a table of {count} entries runs past the end of file"),
            });
        }
        Ok(count)
    }

    fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| IrError::MalformedBinary {
            reason: "invalid UTF-8 in string".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::inst::Inst;

    fn simple_binary() -> JBinary {
        let text: Vec<u8> = [Inst::Nop, Inst::Nop, Inst::Halt]
            .iter()
            .flat_map(|i| encode(i).to_vec())
            .collect();
        let mut bin = JBinary::new(TEXT_BASE, text, vec![1, 2, 3, 4], 64).unwrap();
        bin.add_plt_entry("pow");
        bin.add_plt_entry("memcpy");
        bin.add_symbol(Symbol {
            name: "main".to_string(),
            addr: TEXT_BASE,
            size: 3 * INST_SIZE as u64,
            kind: SymbolKind::Function,
        });
        bin.add_symbol(Symbol {
            name: "table".to_string(),
            addr: DATA_BASE,
            size: 4,
            kind: SymbolKind::Object,
        });
        bin.set_producer("jcc -O3");
        bin
    }

    #[test]
    fn round_trip_serialisation() {
        let bin = simple_binary();
        let bytes = bin.to_bytes();
        let back = JBinary::from_bytes(&bytes).unwrap();
        assert_eq!(back, bin);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = simple_binary().to_bytes();
        bytes[0] = b'X';
        assert!(JBinary::from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_truncated_file() {
        let bytes = simple_binary().to_bytes();
        assert!(JBinary::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn rejects_table_lengths_the_bytes_cannot_hold() {
        let mut header = MAGIC.to_vec();
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for word in [TEXT_BASE, TEXT_BASE, DATA_BASE, 0, 0, 0] {
            header.extend_from_slice(&word.to_le_bytes());
        }
        // PLT length u32::MAX; then an empty PLT and symbol count u32::MAX.
        let mut plt = header.clone();
        plt.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut symbols = header;
        symbols.extend_from_slice(&0u32.to_le_bytes());
        symbols.extend_from_slice(&u32::MAX.to_le_bytes());
        for bytes in [plt, symbols] {
            let err = JBinary::from_bytes(&bytes).unwrap_err();
            assert!(matches!(err, IrError::MalformedBinary { .. }), "{err}");
        }
    }

    #[test]
    fn rejects_misaligned_text() {
        let err = JBinary::new(TEXT_BASE, vec![0u8; INST_SIZE + 1], vec![], 0).unwrap_err();
        assert!(matches!(err, IrError::MalformedBinary { .. }));
    }

    #[test]
    fn rejects_entry_outside_text() {
        let err = JBinary::new(0x1234, vec![0u8; INST_SIZE], vec![], 0).unwrap_err();
        assert!(matches!(err, IrError::MalformedBinary { .. }));
    }

    #[test]
    fn plt_entries_are_deduplicated() {
        let mut bin = simple_binary();
        let idx = bin.add_plt_entry("pow");
        assert_eq!(idx, 0);
        assert_eq!(bin.plt().len(), 2);
        assert_eq!(bin.plt()[1].name, "memcpy");
    }

    #[test]
    fn strip_removes_symbols() {
        let mut bin = simple_binary();
        assert!(bin.symbol("main").is_ok());
        bin.strip();
        assert!(bin.symbols().is_empty());
        assert!(bin.symbol("main").is_err());
    }

    #[test]
    fn text_bounds() {
        let bin = simple_binary();
        assert!(bin.text_contains(TEXT_BASE));
        assert!(bin.text_contains(bin.text_end() - 1));
        assert!(!bin.text_contains(bin.text_end()));
        assert_eq!(bin.num_instructions(), 3);
    }

    #[test]
    fn content_digest_tracks_byte_identity() {
        let a = simple_binary();
        let b = simple_binary();
        assert_eq!(a.content_digest(), b.content_digest());
        assert_eq!(
            a.content_digest(),
            JBinary::from_bytes(&a.to_bytes()).unwrap().content_digest(),
            "round-tripping must preserve the digest"
        );
        let mut c = simple_binary();
        c.set_producer("jcc -O2");
        assert_ne!(a.content_digest(), c.content_digest());
        let mut d = simple_binary();
        d.strip();
        assert_ne!(a.content_digest(), d.content_digest());
    }

    #[test]
    fn display_mentions_sections() {
        let s = simple_binary().to_string();
        assert!(s.contains("text"));
        assert!(s.contains("plt"));
    }
}
