//! # janus-ir — the Janus Virtual Architecture (JVA)
//!
//! This crate defines the virtual instruction set architecture, instruction
//! encoding and executable container used throughout the Janus reproduction.
//! It plays the role that x86-64 machine code, the ELF container and the
//! Capstone disassembler play in the original Janus system (CGO 2019):
//!
//! * [`Reg`], [`Operand`], [`MemRef`] and [`Inst`] model an x86-flavoured
//!   two-operand ISA with memory operands, condition flags, indirect branches
//!   and PLT-indirected external calls — the structural features that make
//!   binary-level analysis and rewriting non-trivial.
//! * [`encode`]/[`decode`] provide a fixed-width binary encoding so that a
//!   program really exists as a byte-addressed `.text` section, and the
//!   decoder gives the one-to-one machine-instruction ↔ IR mapping the paper
//!   requires of its static analyser.
//! * [`JBinary`] is the executable container (text/data/bss, PLT, optional
//!   symbol table) that the static analyser, profiler and dynamic binary
//!   modifier all consume.
//! * [`AsmBuilder`] is a small label-based assembler used by the mini
//!   compiler, the system library and the test-suite to produce binaries.
//!
//! # Example
//!
//! ```
//! use janus_ir::{AluOp, AsmBuilder, Inst, Operand, Reg, JBinary};
//!
//! let mut asm = AsmBuilder::new();
//! asm.label("entry");
//! asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(41)));
//! asm.push(Inst::alu(AluOp::Add, Operand::reg(Reg::R0), Operand::imm(1)));
//! asm.push(Inst::Halt);
//! let binary: JBinary = asm.finish_binary("entry").expect("assembly succeeds");
//! assert_eq!(binary.text_len() / janus_ir::INST_SIZE as u64, 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod binary;
mod builder;
pub mod digest;
mod disasm;
mod encode;
mod error;
mod inst;
mod layout;
mod operand;
mod reg;

pub use binary::{JBinary, PltEntry, Symbol, SymbolKind};
pub use builder::AsmBuilder;
pub use digest::fnv1a;
pub use disasm::{disassemble_range, format_inst, DecodedInst};
pub use encode::{decode, decode_at, encode, encode_into, INST_SIZE};
pub use error::{IrError, Result};
pub use inst::{AluOp, Cond, ControlFlow, FpuOp, Inst, SyscallNum};
pub use layout::{
    DATA_BASE, HEAP_BASE, STACK_BASE, STACK_SIZE, SYSLIB_BASE, SYSLIB_DATA_BASE, TEXT_BASE,
};
pub use operand::{MemRef, Operand};
pub use reg::{Reg, RegClass, RegSet, NUM_GPR, NUM_VREG};
