//! Disassembly of JBin text sections back into IR instructions.
//!
//! This is the reproduction's stand-in for the Capstone disassembler: the
//! static analyser never sees the structures the compiler used to *produce*
//! the binary, only what can be recovered from the bytes.

use crate::encode::{decode, INST_SIZE};
use crate::error::Result;
use crate::inst::Inst;

/// An instruction together with the address it was decoded from.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedInst {
    /// Virtual address of the instruction.
    pub addr: u64,
    /// The decoded instruction.
    pub inst: Inst,
}

/// Disassembles the instructions within `[start, end)` of a text section that
/// begins at `text_base`.
///
/// # Errors
///
/// Returns an error if any instruction fails to decode or the range is not
/// instruction aligned.
pub fn disassemble_range(
    text_base: u64,
    text: &[u8],
    start: u64,
    end: u64,
) -> Result<Vec<DecodedInst>> {
    let mut out = Vec::with_capacity((end.saturating_sub(start) / INST_SIZE as u64) as usize);
    let mut addr = start;
    while addr < end {
        let off = (addr - text_base) as usize;
        let inst = decode(addr, &text[off..(off + INST_SIZE).min(text.len())])?;
        out.push(DecodedInst { addr, inst });
        addr += INST_SIZE as u64;
    }
    Ok(out)
}

/// Formats one instruction in an AT&T-free, Intel-like syntax.
#[must_use]
pub fn format_inst(inst: &Inst) -> String {
    match inst {
        Inst::Mov { dst, src } => format!("mov {dst}, {src}"),
        Inst::Lea { dst, mem } => format!("lea {dst}, {mem}"),
        Inst::Alu { op, dst, src } => format!("{} {dst}, {src}", op.mnemonic()),
        Inst::FMov { dst, src } => format!("fmov {dst}, {src}"),
        Inst::Fpu { op, dst, src } => format!("{} {dst}, {src}", op.mnemonic()),
        Inst::VMov { dst, src, lanes } => format!("vmov{lanes} {dst}, {src}"),
        Inst::Vec {
            op,
            dst,
            src,
            lanes,
        } => format!("v{}{lanes} {dst}, {src}", op.mnemonic()),
        Inst::CvtIntToFloat { dst, src } => format!("cvtsi2sd {dst}, {src}"),
        Inst::CvtFloatToInt { dst, src } => format!("cvtsd2si {dst}, {src}"),
        Inst::Cmp { lhs, rhs } => format!("cmp {lhs}, {rhs}"),
        Inst::FCmp { lhs, rhs } => format!("fcmp {lhs}, {rhs}"),
        Inst::Test { lhs, rhs } => format!("test {lhs}, {rhs}"),
        Inst::CMov { cond, dst, src } => format!("cmov{} {dst}, {src}", cond.suffix()),
        Inst::Jmp { target } => format!("jmp {target:#x}"),
        Inst::Jcc { cond, target } => format!("j{} {target:#x}", cond.suffix()),
        Inst::JmpInd { target } => format!("jmp {target}"),
        Inst::Call { target } => format!("call {target:#x}"),
        Inst::CallInd { target } => format!("call {target}"),
        Inst::CallExt { plt } => format!("call plt[{plt}]"),
        Inst::Ret => "ret".to_string(),
        Inst::Push { src } => format!("push {src}"),
        Inst::Pop { dst } => format!("pop {dst}"),
        Inst::Syscall { num } => format!("syscall {num}"),
        Inst::Nop => "nop".to_string(),
        Inst::Halt => "hlt".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::JBinary;
    use crate::builder::AsmBuilder;
    use crate::inst::{AluOp, Cond};
    use crate::operand::{MemRef, Operand};
    use crate::reg::Reg;

    fn build_sample() -> JBinary {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
        asm.label("loop");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::mem(MemRef::base_index(Reg::R8, Reg::R0, 8)),
            Operand::imm(1),
        ));
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R0),
            Operand::imm(1),
        ));
        asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(100)));
        asm.push_branch(Cond::Lt, "loop");
        asm.push(Inst::Halt);
        asm.finish_binary("main").unwrap()
    }

    #[test]
    fn disassembles_whole_binary_in_order() {
        let bin = build_sample();
        let (base, end) = (bin.text_base(), bin.text_end());
        let insts = disassemble_range(base, bin.text(), base, end).unwrap();
        assert_eq!(insts.len(), 6);
        for (i, d) in insts.iter().enumerate() {
            assert_eq!(d.addr, bin.text_base() + (i * INST_SIZE) as u64);
        }
        assert_eq!(insts.last().unwrap().inst, Inst::Halt);
    }

    #[test]
    fn disassemble_range_is_a_window() {
        let bin = build_sample();
        let start = bin.text_base() + INST_SIZE as u64;
        let end = start + 2 * INST_SIZE as u64;
        let insts = disassemble_range(bin.text_base(), bin.text(), start, end).unwrap();
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0].addr, start);
    }

    #[test]
    fn formatting_is_stable() {
        assert_eq!(
            format_inst(&Inst::mov(Operand::reg(Reg::R1), Operand::imm(7))),
            "mov r1, 7"
        );
        assert_eq!(
            format_inst(&Inst::Jcc {
                cond: Cond::Le,
                target: 0x400020
            }),
            "jle 0x400020"
        );
        assert_eq!(
            format_inst(&Inst::Vec {
                op: crate::inst::FpuOp::Add,
                dst: Reg::V1,
                src: Operand::mem(MemRef::base(Reg::R2)),
                lanes: 4
            }),
            "vfadd4 v1, [r2]"
        );
        assert_eq!(format_inst(&Inst::CallExt { plt: 2 }), "call plt[2]");
    }

    #[test]
    fn display_uses_format_inst() {
        let i = Inst::Ret;
        assert_eq!(i.to_string(), "ret");
    }
}
