//! Label-based assembly of JVA binaries.

use crate::binary::{JBinary, Symbol, SymbolKind};
use crate::encode::{encode, INST_SIZE};
use crate::error::{IrError, Result};
use crate::inst::Inst;
use crate::layout::{DATA_BASE, TEXT_BASE};
use std::collections::HashMap;

/// Where a pending label fix-up must be applied within an instruction.
#[derive(Debug, Clone)]
enum Fixup {
    /// Fill the branch/call target field of the instruction at `index`.
    Target { index: usize, label: String },
    /// Fill the immediate source operand of the instruction at `index` with
    /// the address of `label`.
    ImmAddr { index: usize, label: String },
}

/// An incremental assembler that produces a [`JBinary`].
///
/// Instructions are appended in program order; control-flow targets can be
/// expressed symbolically with labels that are resolved when the binary is
/// finished. Data objects are laid out in the `.data` section and their
/// addresses can be queried while emitting code.
///
/// # Example
///
/// ```
/// use janus_ir::{AluOp, AsmBuilder, Cond, Inst, Operand, Reg};
///
/// let mut asm = AsmBuilder::new();
/// asm.label("main");
/// asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
/// asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(10)));
/// asm.label("loop");
/// asm.push(Inst::alu(AluOp::Add, Operand::reg(Reg::R0), Operand::imm(1)));
/// asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::reg(Reg::R1)));
/// asm.push_branch(Cond::Lt, "loop");
/// asm.push(Inst::Halt);
/// let bin = asm.finish_binary("main").unwrap();
/// assert_eq!(bin.num_instructions(), 6);
/// ```
#[derive(Debug, Default)]
pub struct AsmBuilder {
    text_base: u64,
    data_base: u64,
    insts: Vec<Inst>,
    labels: HashMap<String, usize>,
    fixups: Vec<Fixup>,
    data: Vec<u8>,
    data_symbols: Vec<(String, u64, u64)>,
    bss_size: u64,
    plt: Vec<String>,
    function_starts: Vec<(String, usize)>,
    producer: String,
}

impl AsmBuilder {
    /// Creates a builder targeting the standard executable layout.
    #[must_use]
    pub fn new() -> AsmBuilder {
        AsmBuilder {
            text_base: TEXT_BASE,
            data_base: DATA_BASE,
            ..AsmBuilder::default()
        }
    }

    /// Creates a builder with explicit text and data base addresses (used for
    /// the shared system library).
    #[must_use]
    pub fn with_bases(text_base: u64, data_base: u64) -> AsmBuilder {
        AsmBuilder {
            text_base,
            data_base,
            ..AsmBuilder::default()
        }
    }

    /// Sets the producer string recorded in the binary.
    pub fn set_producer(&mut self, producer: impl Into<String>) {
        self.producer = producer.into();
    }

    /// The address the next pushed instruction will occupy.
    #[must_use]
    pub fn current_addr(&self) -> u64 {
        self.text_base + (self.insts.len() * INST_SIZE) as u64
    }

    /// Number of instructions emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if no instructions have been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Defines `label` at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined (programming error in the
    /// caller; use unique labels).
    pub fn label(&mut self, label: impl Into<String>) {
        let label = label.into();
        let prev = self.labels.insert(label.clone(), self.insts.len());
        assert!(prev.is_none(), "duplicate label `{label}`");
    }

    /// Defines `label` at the current position and records it as a function
    /// symbol in the binary's symbol table.
    pub fn function(&mut self, name: impl Into<String>) {
        let name = name.into();
        self.function_starts.push((name.clone(), self.insts.len()));
        self.label(name);
    }

    /// Appends an instruction and returns its address.
    pub fn push(&mut self, inst: Inst) -> u64 {
        let addr = self.current_addr();
        self.insts.push(inst);
        addr
    }

    /// Appends an unconditional jump to `label`.
    pub fn push_jmp(&mut self, label: impl Into<String>) -> u64 {
        let index = self.insts.len();
        self.fixups.push(Fixup::Target {
            index,
            label: label.into(),
        });
        self.push(Inst::Jmp { target: 0 })
    }

    /// Appends a conditional branch to `label`.
    pub fn push_branch(&mut self, cond: crate::inst::Cond, label: impl Into<String>) -> u64 {
        let index = self.insts.len();
        self.fixups.push(Fixup::Target {
            index,
            label: label.into(),
        });
        self.push(Inst::Jcc { cond, target: 0 })
    }

    /// Appends a direct call to `label`.
    pub fn push_call(&mut self, label: impl Into<String>) -> u64 {
        let index = self.insts.len();
        self.fixups.push(Fixup::Target {
            index,
            label: label.into(),
        });
        self.push(Inst::Call { target: 0 })
    }

    /// Appends a call to the external function `name` through the PLT,
    /// creating the PLT entry if necessary.
    pub fn push_call_ext(&mut self, name: impl Into<String>) -> u64 {
        let plt = self.plt_index(name);
        self.push(Inst::CallExt { plt })
    }

    /// Appends `mov dst, <address of label>`; the immediate is patched when
    /// the binary is finished. Used to materialise function addresses for
    /// indirect calls and runtime call tables.
    pub fn push_load_label_addr(&mut self, dst: crate::reg::Reg, label: impl Into<String>) -> u64 {
        let index = self.insts.len();
        self.fixups.push(Fixup::ImmAddr {
            index,
            label: label.into(),
        });
        self.push(Inst::Mov {
            dst: crate::operand::Operand::Reg(dst),
            src: crate::operand::Operand::Imm(0),
        })
    }

    /// Returns (creating if needed) the PLT index for `name`.
    pub fn plt_index(&mut self, name: impl Into<String>) -> u32 {
        let name = name.into();
        if let Some(pos) = self.plt.iter().position(|n| *n == name) {
            return pos as u32;
        }
        self.plt.push(name);
        (self.plt.len() - 1) as u32
    }

    /// Reserves `len` bytes of initialised data (8-byte aligned) filled from
    /// `bytes` and returns the virtual address of the object.
    pub fn data_object(&mut self, name: impl Into<String>, bytes: &[u8]) -> u64 {
        while self.data.len() % 8 != 0 {
            self.data.push(0);
        }
        let addr = self.data_base + self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        self.data_symbols
            .push((name.into(), addr, bytes.len() as u64));
        addr
    }

    /// Reserves an array of `len` 64-bit integers initialised from `values`
    /// (padded with zeros) and returns its address.
    pub fn i64_array(&mut self, name: impl Into<String>, len: usize, values: &[i64]) -> u64 {
        let mut bytes = Vec::with_capacity(len * 8);
        for i in 0..len {
            let v = values.get(i).copied().unwrap_or(0);
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.data_object(name, &bytes)
    }

    /// Reserves an array of `len` doubles initialised from `values` (padded
    /// with zeros) and returns its address.
    pub fn f64_array(&mut self, name: impl Into<String>, len: usize, values: &[f64]) -> u64 {
        let mut bytes = Vec::with_capacity(len * 8);
        for i in 0..len {
            let v = values.get(i).copied().unwrap_or(0.0);
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.data_object(name, &bytes)
    }

    /// The address assigned to a previously defined label.
    ///
    /// # Errors
    ///
    /// Returns an error if the label is undefined.
    pub fn label_addr(&self, label: &str) -> Result<u64> {
        self.labels
            .get(label)
            .map(|&idx| self.text_base + (idx * INST_SIZE) as u64)
            .ok_or_else(|| IrError::UndefinedLabel {
                label: label.to_string(),
            })
    }

    /// Finishes assembly, resolving all label references, and returns the
    /// instruction stream together with the label table.
    ///
    /// # Errors
    ///
    /// Returns an error if any referenced label is undefined.
    pub fn finish(mut self) -> Result<(Vec<Inst>, HashMap<String, u64>)> {
        let fixups = std::mem::take(&mut self.fixups);
        for fixup in fixups {
            match fixup {
                Fixup::Target { index, label } => {
                    let target = self.label_addr(&label)?;
                    match &mut self.insts[index] {
                        Inst::Jmp { target: t }
                        | Inst::Jcc { target: t, .. }
                        | Inst::Call { target: t } => *t = target,
                        other => {
                            return Err(IrError::InvalidOperand {
                                addr: self.text_base + (index * INST_SIZE) as u64,
                                reason: format!("fixup applied to non-branch {other:?}"),
                            })
                        }
                    }
                }
                Fixup::ImmAddr { index, label } => {
                    let target = self.label_addr(&label)?;
                    match &mut self.insts[index] {
                        Inst::Mov {
                            src: crate::operand::Operand::Imm(v),
                            ..
                        } => *v = target as i64,
                        other => {
                            return Err(IrError::InvalidOperand {
                                addr: self.text_base + (index * INST_SIZE) as u64,
                                reason: format!("address fixup applied to {other:?}"),
                            })
                        }
                    }
                }
            }
        }
        let labels = self
            .labels
            .iter()
            .map(|(k, &v)| (k.clone(), self.text_base + (v * INST_SIZE) as u64))
            .collect();
        Ok((self.insts, labels))
    }

    /// Finishes assembly and packages the result as a [`JBinary`] whose entry
    /// point is the label `entry`.
    ///
    /// # Errors
    ///
    /// Returns an error if a referenced label is undefined or the binary is
    /// malformed.
    pub fn finish_binary(self, entry: &str) -> Result<JBinary> {
        let text_base = self.text_base;
        let data_base = self.data_base;
        let data = self.data.clone();
        let bss_size = self.bss_size;
        let plt = self.plt.clone();
        let data_symbols = self.data_symbols.clone();
        let function_starts = self.function_starts.clone();
        let producer = self.producer.clone();
        let (insts, labels) = self.finish()?;
        let entry_addr = *labels.get(entry).ok_or_else(|| IrError::UndefinedLabel {
            label: entry.to_string(),
        })?;
        let mut text = Vec::with_capacity(insts.len() * INST_SIZE);
        for inst in &insts {
            text.extend_from_slice(&encode(inst));
        }
        let mut bin = JBinary::new_at(entry_addr, text_base, text, data_base, data, bss_size)?;
        for name in plt {
            bin.add_plt_entry(name);
        }
        for (name, idx) in function_starts {
            bin.add_symbol(Symbol {
                name,
                addr: text_base + (idx * INST_SIZE) as u64,
                size: 0,
                kind: SymbolKind::Function,
            });
        }
        for (name, addr, size) in data_symbols {
            bin.add_symbol(Symbol {
                name,
                addr,
                size,
                kind: SymbolKind::Object,
            });
        }
        if !producer.is_empty() {
            bin.set_producer(producer);
        }
        Ok(bin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond};
    use crate::operand::Operand;
    use crate::reg::Reg;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut asm = AsmBuilder::new();
        asm.label("start");
        asm.push_jmp("end"); // forward reference
        asm.label("mid");
        asm.push(Inst::Nop);
        asm.push_jmp("mid"); // backward reference
        asm.label("end");
        asm.push(Inst::Halt);
        let (insts, labels) = asm.finish().unwrap();
        assert_eq!(labels["start"], TEXT_BASE);
        assert_eq!(labels["mid"], TEXT_BASE + INST_SIZE as u64);
        match &insts[0] {
            Inst::Jmp { target } => assert_eq!(*target, labels["end"]),
            other => panic!("expected jmp, got {other:?}"),
        }
        match &insts[2] {
            Inst::Jmp { target } => assert_eq!(*target, labels["mid"]),
            other => panic!("expected jmp, got {other:?}"),
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut asm = AsmBuilder::new();
        asm.label("main");
        asm.push_jmp("nowhere");
        assert!(matches!(asm.finish(), Err(IrError::UndefinedLabel { .. })));
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut asm = AsmBuilder::new();
        asm.label("x");
        asm.label("x");
    }

    #[test]
    fn data_objects_are_aligned_and_addressed() {
        let mut asm = AsmBuilder::new();
        let a = asm.data_object("a", &[1, 2, 3]);
        let b = asm.i64_array("b", 4, &[10, 20]);
        let c = asm.f64_array("c", 2, &[1.5]);
        assert_eq!(a, DATA_BASE);
        assert_eq!(b, DATA_BASE + 8, "second object is 8-byte aligned");
        assert_eq!(c, b + 32);
        assert_eq!(a % 8, 0);
    }

    #[test]
    fn finish_binary_produces_symbols_and_plt() {
        let mut asm = AsmBuilder::new();
        asm.set_producer("test");
        let _arr = asm.i64_array("numbers", 8, &[]);
        asm.function("main");
        asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(1)));
        asm.push_call("helper");
        asm.push_call_ext("pow");
        asm.push(Inst::Halt);
        asm.function("helper");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R0),
            Operand::imm(1),
        ));
        asm.push(Inst::Ret);
        let bin = asm.finish_binary("main").unwrap();
        assert_eq!(bin.entry(), TEXT_BASE);
        assert_eq!(bin.plt()[0].name, "pow");
        assert!(bin.symbol("helper").is_ok());
        assert!(bin.symbol("numbers").is_ok());
        assert_eq!(bin.producer(), "test");
        assert_eq!(bin.num_instructions(), 6);
    }

    #[test]
    fn finish_binary_with_custom_bases() {
        let mut asm = AsmBuilder::with_bases(0x7000_0000, 0x7800_0000);
        asm.function("pow");
        asm.push(Inst::Ret);
        let bin = asm.finish_binary("pow").unwrap();
        assert_eq!(bin.entry(), 0x7000_0000);
        assert_eq!(bin.text_base(), 0x7000_0000);
        assert_eq!(bin.data_base(), 0x7800_0000);
    }

    #[test]
    fn push_branch_resolves_condition_and_target() {
        let mut asm = AsmBuilder::new();
        asm.label("main");
        asm.label("loop");
        asm.push(Inst::Nop);
        asm.push_branch(Cond::Ne, "loop");
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let text = (bin.text_base(), bin.text(), bin.text_base(), bin.text_end());
        let insts = crate::disasm::disassemble_range(text.0, text.1, text.2, text.3).unwrap();
        match &insts[1].inst {
            Inst::Jcc { cond, target } => {
                assert_eq!(*cond, Cond::Ne);
                assert_eq!(*target, TEXT_BASE);
            }
            other => panic!("expected jcc, got {other:?}"),
        }
    }

    #[test]
    fn plt_index_is_stable() {
        let mut asm = AsmBuilder::new();
        let a = asm.plt_index("pow");
        let b = asm.plt_index("exp");
        let c = asm.plt_index("pow");
        assert_eq!(a, c);
        assert_ne!(a, b);
    }

    #[test]
    fn current_addr_tracks_instruction_count() {
        let mut asm = AsmBuilder::new();
        assert_eq!(asm.current_addr(), TEXT_BASE);
        assert!(asm.is_empty());
        asm.label("main");
        asm.push(Inst::Nop);
        assert_eq!(asm.current_addr(), TEXT_BASE + INST_SIZE as u64);
        assert_eq!(asm.len(), 1);
    }
}
