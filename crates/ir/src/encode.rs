//! Fixed-width binary encoding of JVA instructions.
//!
//! Every instruction occupies exactly [`INST_SIZE`] bytes in the `.text`
//! section, so instruction addresses are always multiples of the instruction
//! size relative to the text base. The encoding is deliberately simple — the
//! interesting property for the Janus reproduction is that programs exist as
//! byte streams that must be *decoded* before they can be analysed or
//! modified, exactly like real machine code.

use crate::error::{IrError, Result};
use crate::inst::{AluOp, Cond, FpuOp, Inst};
use crate::operand::{MemRef, Operand};
use crate::reg::Reg;

/// Size in bytes of every encoded instruction.
pub const INST_SIZE: usize = 32;

const OP_NOP: u8 = 0;
const OP_HALT: u8 = 1;
const OP_MOV: u8 = 2;
const OP_LEA: u8 = 3;
const OP_ALU: u8 = 4;
const OP_FMOV: u8 = 5;
const OP_FPU: u8 = 6;
const OP_VMOV: u8 = 7;
const OP_VEC: u8 = 8;
const OP_CVT_I2F: u8 = 9;
const OP_CVT_F2I: u8 = 10;
const OP_CMP: u8 = 11;
const OP_FCMP: u8 = 12;
const OP_TEST: u8 = 13;
const OP_CMOV: u8 = 14;
const OP_JMP: u8 = 15;
const OP_JCC: u8 = 16;
const OP_JMP_IND: u8 = 17;
const OP_CALL: u8 = 18;
const OP_CALL_IND: u8 = 19;
const OP_CALL_EXT: u8 = 20;
const OP_RET: u8 = 21;
const OP_PUSH: u8 = 22;
const OP_POP: u8 = 23;
const OP_SYSCALL: u8 = 24;

const KIND_NONE: u8 = 0;
const KIND_REG: u8 = 1;
const KIND_IMM: u8 = 2;
const KIND_MEM: u8 = 3;

const NO_REG: u8 = 0xff;

fn alu_code(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Div => 3,
        AluOp::Rem => 4,
        AluOp::And => 5,
        AluOp::Or => 6,
        AluOp::Xor => 7,
        AluOp::Shl => 8,
        AluOp::Shr => 9,
        AluOp::Sar => 10,
    }
}

fn alu_from_code(code: u8) -> Option<AluOp> {
    Some(match code {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::Div,
        4 => AluOp::Rem,
        5 => AluOp::And,
        6 => AluOp::Or,
        7 => AluOp::Xor,
        8 => AluOp::Shl,
        9 => AluOp::Shr,
        10 => AluOp::Sar,
        _ => return None,
    })
}

fn fpu_code(op: FpuOp) -> u8 {
    match op {
        FpuOp::Add => 0,
        FpuOp::Sub => 1,
        FpuOp::Mul => 2,
        FpuOp::Div => 3,
        FpuOp::Min => 4,
        FpuOp::Max => 5,
        FpuOp::Sqrt => 6,
    }
}

fn fpu_from_code(code: u8) -> Option<FpuOp> {
    Some(match code {
        0 => FpuOp::Add,
        1 => FpuOp::Sub,
        2 => FpuOp::Mul,
        3 => FpuOp::Div,
        4 => FpuOp::Min,
        5 => FpuOp::Max,
        6 => FpuOp::Sqrt,
        _ => return None,
    })
}

fn encode_operand(op: Option<&Operand>, out: &mut [u8]) {
    debug_assert_eq!(out.len(), 10);
    out.fill(0);
    match op {
        None => out[0] = KIND_NONE,
        Some(Operand::Reg(r)) => {
            out[0] = KIND_REG;
            out[1] = r.raw();
        }
        Some(Operand::Imm(v)) => {
            out[0] = KIND_IMM;
            out[2..10].copy_from_slice(&v.to_le_bytes());
        }
        Some(Operand::Mem(m)) => {
            out[0] = KIND_MEM;
            out[1] = m.base.map_or(NO_REG, Reg::raw);
            out[2] = m.index.map_or(NO_REG, Reg::raw);
            out[3] = m.scale;
            // 48-bit signed displacement.
            let bytes = m.disp.to_le_bytes();
            out[4..10].copy_from_slice(&bytes[..6]);
        }
    }
}

fn decode_operand(addr: u64, bytes: &[u8]) -> Result<Option<Operand>> {
    debug_assert_eq!(bytes.len(), 10);
    match bytes[0] {
        KIND_NONE => Ok(None),
        KIND_REG => {
            let r = Reg::from_raw(bytes[1]).ok_or(IrError::InvalidRegister { index: bytes[1] })?;
            Ok(Some(Operand::Reg(r)))
        }
        KIND_IMM => {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[2..10]);
            Ok(Some(Operand::Imm(i64::from_le_bytes(b))))
        }
        KIND_MEM => {
            let base = if bytes[1] == NO_REG {
                None
            } else {
                Some(Reg::from_raw(bytes[1]).ok_or(IrError::InvalidRegister { index: bytes[1] })?)
            };
            let index = if bytes[2] == NO_REG {
                None
            } else {
                Some(Reg::from_raw(bytes[2]).ok_or(IrError::InvalidRegister { index: bytes[2] })?)
            };
            let scale = bytes[3];
            if !matches!(scale, 1 | 2 | 4 | 8) {
                return Err(IrError::InvalidOperand {
                    addr,
                    reason: format!("invalid scale {scale}"),
                });
            }
            // Sign-extend the 48-bit displacement.
            let mut b = [0u8; 8];
            b[..6].copy_from_slice(&bytes[4..10]);
            if b[5] & 0x80 != 0 {
                b[6] = 0xff;
                b[7] = 0xff;
            }
            let disp = i64::from_le_bytes(b);
            Ok(Some(Operand::Mem(MemRef {
                base,
                index,
                scale,
                disp,
            })))
        }
        other => Err(IrError::InvalidOperand {
            addr,
            reason: format!("invalid operand kind {other}"),
        }),
    }
}

fn expect_operand(addr: u64, op: Option<Operand>) -> Result<Operand> {
    op.ok_or_else(|| IrError::InvalidOperand {
        addr,
        reason: "missing operand".to_string(),
    })
}

fn expect_reg(addr: u64, raw: u8) -> Result<Reg> {
    Reg::from_raw(raw).ok_or_else(|| IrError::InvalidOperand {
        addr,
        reason: format!("invalid register field {raw}"),
    })
}

/// Encodes one instruction into a fresh [`INST_SIZE`]-byte array.
#[must_use]
pub fn encode(inst: &Inst) -> [u8; INST_SIZE] {
    let mut out = [0u8; INST_SIZE];
    encode_into(inst, &mut out);
    out
}

/// Encodes one instruction into the provided buffer.
///
/// # Panics
///
/// Panics if `out.len() != INST_SIZE`.
pub fn encode_into(inst: &Inst, out: &mut [u8]) {
    assert_eq!(
        out.len(),
        INST_SIZE,
        "encode buffer must be INST_SIZE bytes"
    );
    out.fill(0);
    let (op1, op2): (Option<&Operand>, Option<&Operand>);
    match inst {
        Inst::Nop => {
            out[0] = OP_NOP;
            op1 = None;
            op2 = None;
        }
        Inst::Halt => {
            out[0] = OP_HALT;
            op1 = None;
            op2 = None;
        }
        Inst::Mov { dst, src } => {
            out[0] = OP_MOV;
            op1 = Some(dst);
            op2 = Some(src);
        }
        Inst::Lea { dst, mem } => {
            out[0] = OP_LEA;
            out[3] = dst.raw();
            encode_operand(Some(&Operand::Mem(*mem)), &mut out[12..22]);
            encode_operand(None, &mut out[22..32]);
            return;
        }
        Inst::Alu { op, dst, src } => {
            out[0] = OP_ALU;
            out[1] = alu_code(*op);
            op1 = Some(dst);
            op2 = Some(src);
        }
        Inst::FMov { dst, src } => {
            out[0] = OP_FMOV;
            op1 = Some(dst);
            op2 = Some(src);
        }
        Inst::Fpu { op, dst, src } => {
            out[0] = OP_FPU;
            out[1] = fpu_code(*op);
            op1 = Some(dst);
            op2 = Some(src);
        }
        Inst::VMov { dst, src, lanes } => {
            out[0] = OP_VMOV;
            out[2] = *lanes;
            op1 = Some(dst);
            op2 = Some(src);
        }
        Inst::Vec {
            op,
            dst,
            src,
            lanes,
        } => {
            out[0] = OP_VEC;
            out[1] = fpu_code(*op);
            out[2] = *lanes;
            out[3] = dst.raw();
            op1 = None;
            op2 = Some(src);
        }
        Inst::CvtIntToFloat { dst, src } => {
            out[0] = OP_CVT_I2F;
            out[3] = dst.raw();
            op1 = None;
            op2 = Some(src);
        }
        Inst::CvtFloatToInt { dst, src } => {
            out[0] = OP_CVT_F2I;
            out[3] = dst.raw();
            op1 = None;
            op2 = Some(src);
        }
        Inst::Cmp { lhs, rhs } => {
            out[0] = OP_CMP;
            op1 = Some(lhs);
            op2 = Some(rhs);
        }
        Inst::FCmp { lhs, rhs } => {
            out[0] = OP_FCMP;
            op1 = Some(lhs);
            op2 = Some(rhs);
        }
        Inst::Test { lhs, rhs } => {
            out[0] = OP_TEST;
            op1 = Some(lhs);
            op2 = Some(rhs);
        }
        Inst::CMov { cond, dst, src } => {
            out[0] = OP_CMOV;
            out[1] = cond.code();
            out[3] = dst.raw();
            op1 = None;
            op2 = Some(src);
        }
        Inst::Jmp { target } => {
            out[0] = OP_JMP;
            out[4..12].copy_from_slice(&target.to_le_bytes());
            op1 = None;
            op2 = None;
        }
        Inst::Jcc { cond, target } => {
            out[0] = OP_JCC;
            out[1] = cond.code();
            out[4..12].copy_from_slice(&target.to_le_bytes());
            op1 = None;
            op2 = None;
        }
        Inst::JmpInd { target } => {
            out[0] = OP_JMP_IND;
            op1 = Some(target);
            op2 = None;
        }
        Inst::Call { target } => {
            out[0] = OP_CALL;
            out[4..12].copy_from_slice(&target.to_le_bytes());
            op1 = None;
            op2 = None;
        }
        Inst::CallInd { target } => {
            out[0] = OP_CALL_IND;
            op1 = Some(target);
            op2 = None;
        }
        Inst::CallExt { plt } => {
            out[0] = OP_CALL_EXT;
            out[4..8].copy_from_slice(&plt.to_le_bytes());
            op1 = None;
            op2 = None;
        }
        Inst::Ret => {
            out[0] = OP_RET;
            op1 = None;
            op2 = None;
        }
        Inst::Push { src } => {
            out[0] = OP_PUSH;
            op1 = Some(src);
            op2 = None;
        }
        Inst::Pop { dst } => {
            out[0] = OP_POP;
            op1 = Some(dst);
            op2 = None;
        }
        Inst::Syscall { num } => {
            out[0] = OP_SYSCALL;
            out[4..8].copy_from_slice(&num.to_le_bytes());
            op1 = None;
            op2 = None;
        }
    }
    encode_operand(op1, &mut out[12..22]);
    encode_operand(op2, &mut out[22..32]);
}

/// Decodes a single instruction from `bytes`, which must contain at least
/// [`INST_SIZE`] bytes. The `addr` parameter is only used for error reporting.
///
/// # Errors
///
/// Returns an error if the byte stream is truncated or malformed.
pub fn decode(addr: u64, bytes: &[u8]) -> Result<Inst> {
    if bytes.len() < INST_SIZE {
        return Err(IrError::TruncatedInstruction {
            addr,
            available: bytes.len(),
        });
    }
    let opcode = bytes[0];
    let sub = bytes[1];
    let extra = bytes[2];
    let regf = bytes[3];
    let mut u64f = [0u8; 8];
    u64f.copy_from_slice(&bytes[4..12]);
    let u64field = u64::from_le_bytes(u64f);
    let op1 = decode_operand(addr, &bytes[12..22])?;
    let op2 = decode_operand(addr, &bytes[22..32])?;

    let inst = match opcode {
        OP_NOP => Inst::Nop,
        OP_HALT => Inst::Halt,
        OP_MOV => Inst::Mov {
            dst: expect_operand(addr, op1)?,
            src: expect_operand(addr, op2)?,
        },
        OP_LEA => {
            let mem = match op1 {
                Some(Operand::Mem(m)) => m,
                _ => {
                    return Err(IrError::InvalidOperand {
                        addr,
                        reason: "lea requires a memory operand".to_string(),
                    })
                }
            };
            Inst::Lea {
                dst: expect_reg(addr, regf)?,
                mem,
            }
        }
        OP_ALU => Inst::Alu {
            op: alu_from_code(sub).ok_or(IrError::InvalidOpcode { addr, opcode: sub })?,
            dst: expect_operand(addr, op1)?,
            src: expect_operand(addr, op2)?,
        },
        OP_FMOV => Inst::FMov {
            dst: expect_operand(addr, op1)?,
            src: expect_operand(addr, op2)?,
        },
        OP_FPU => Inst::Fpu {
            op: fpu_from_code(sub).ok_or(IrError::InvalidOpcode { addr, opcode: sub })?,
            dst: expect_operand(addr, op1)?,
            src: expect_operand(addr, op2)?,
        },
        OP_VMOV => Inst::VMov {
            dst: expect_operand(addr, op1)?,
            src: expect_operand(addr, op2)?,
            lanes: extra,
        },
        OP_VEC => Inst::Vec {
            op: fpu_from_code(sub).ok_or(IrError::InvalidOpcode { addr, opcode: sub })?,
            dst: expect_reg(addr, regf)?,
            src: expect_operand(addr, op2)?,
            lanes: extra,
        },
        OP_CVT_I2F => Inst::CvtIntToFloat {
            dst: expect_reg(addr, regf)?,
            src: expect_operand(addr, op2)?,
        },
        OP_CVT_F2I => Inst::CvtFloatToInt {
            dst: expect_reg(addr, regf)?,
            src: expect_operand(addr, op2)?,
        },
        OP_CMP => Inst::Cmp {
            lhs: expect_operand(addr, op1)?,
            rhs: expect_operand(addr, op2)?,
        },
        OP_FCMP => Inst::FCmp {
            lhs: expect_operand(addr, op1)?,
            rhs: expect_operand(addr, op2)?,
        },
        OP_TEST => Inst::Test {
            lhs: expect_operand(addr, op1)?,
            rhs: expect_operand(addr, op2)?,
        },
        OP_CMOV => Inst::CMov {
            cond: Cond::from_code(sub).ok_or(IrError::InvalidOpcode { addr, opcode: sub })?,
            dst: expect_reg(addr, regf)?,
            src: expect_operand(addr, op2)?,
        },
        OP_JMP => Inst::Jmp { target: u64field },
        OP_JCC => Inst::Jcc {
            cond: Cond::from_code(sub).ok_or(IrError::InvalidOpcode { addr, opcode: sub })?,
            target: u64field,
        },
        OP_JMP_IND => Inst::JmpInd {
            target: expect_operand(addr, op1)?,
        },
        OP_CALL => Inst::Call { target: u64field },
        OP_CALL_IND => Inst::CallInd {
            target: expect_operand(addr, op1)?,
        },
        OP_CALL_EXT => Inst::CallExt {
            plt: (u64field & 0xffff_ffff) as u32,
        },
        OP_RET => Inst::Ret,
        OP_PUSH => Inst::Push {
            src: expect_operand(addr, op1)?,
        },
        OP_POP => Inst::Pop {
            dst: expect_operand(addr, op1)?,
        },
        OP_SYSCALL => Inst::Syscall {
            num: (u64field & 0xffff_ffff) as u32,
        },
        other => {
            return Err(IrError::InvalidOpcode {
                addr,
                opcode: other,
            })
        }
    };
    Ok(inst)
}

/// Decodes the instruction located at `addr` given the start address and byte
/// contents of a text section.
///
/// # Errors
///
/// Returns an error if `addr` lies outside the section or the instruction is
/// malformed.
pub fn decode_at(text_base: u64, text: &[u8], addr: u64) -> Result<Inst> {
    if addr < text_base {
        return Err(IrError::TruncatedInstruction { addr, available: 0 });
    }
    let off = (addr - text_base) as usize;
    if off + INST_SIZE > text.len() {
        return Err(IrError::TruncatedInstruction {
            addr,
            available: text.len().saturating_sub(off),
        });
    }
    decode(addr, &text[off..off + INST_SIZE])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    fn sample_instructions() -> Vec<Inst> {
        vec![
            Inst::Nop,
            Inst::Halt,
            Inst::mov(Operand::reg(Reg::R1), Operand::imm(-42)),
            Inst::mov(
                Operand::mem(MemRef::base_index(Reg::R8, Reg::R1, 8).with_disp(16)),
                Operand::reg(Reg::R2),
            ),
            Inst::Lea {
                dst: Reg::R3,
                mem: MemRef::base_disp(Reg::SP, -128),
            },
            Inst::alu(AluOp::Add, Operand::reg(Reg::R0), Operand::imm(1)),
            Inst::alu(
                AluOp::Mul,
                Operand::reg(Reg::R4),
                Operand::mem(MemRef::absolute(0x600020)),
            ),
            Inst::FMov {
                dst: Operand::reg(Reg::V1),
                src: Operand::mem(MemRef::base_index(Reg::R9, Reg::R2, 8)),
            },
            Inst::fpu(FpuOp::Mul, Operand::reg(Reg::V0), Operand::reg(Reg::V1)),
            Inst::VMov {
                dst: Operand::reg(Reg::V2),
                src: Operand::mem(MemRef::base(Reg::R10)),
                lanes: 4,
            },
            Inst::Vec {
                op: FpuOp::Add,
                dst: Reg::V2,
                src: Operand::mem(MemRef::base_disp(Reg::R11, 32)),
                lanes: 2,
            },
            Inst::CvtIntToFloat {
                dst: Reg::V3,
                src: Operand::reg(Reg::R1),
            },
            Inst::CvtFloatToInt {
                dst: Reg::R1,
                src: Operand::reg(Reg::V3),
            },
            Inst::cmp(Operand::reg(Reg::R1), Operand::imm(10000)),
            Inst::FCmp {
                lhs: Operand::reg(Reg::V0),
                rhs: Operand::reg(Reg::V1),
            },
            Inst::Test {
                lhs: Operand::reg(Reg::R0),
                rhs: Operand::reg(Reg::R0),
            },
            Inst::CMov {
                cond: Cond::Le,
                dst: Reg::R5,
                src: Operand::reg(Reg::R6),
            },
            Inst::Jmp { target: 0x400200 },
            Inst::Jcc {
                cond: Cond::Lt,
                target: 0x400100,
            },
            Inst::JmpInd {
                target: Operand::reg(Reg::R7),
            },
            Inst::Call { target: 0x401000 },
            Inst::CallInd {
                target: Operand::mem(MemRef::base_index(Reg::R8, Reg::R3, 8)),
            },
            Inst::CallExt { plt: 3 },
            Inst::Ret,
            Inst::Push {
                src: Operand::reg(Reg::R12),
            },
            Inst::Pop {
                dst: Operand::reg(Reg::R12),
            },
            Inst::Syscall { num: 1 },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for inst in sample_instructions() {
            let bytes = encode(&inst);
            let back = decode(0x400000, &bytes).expect("decodes");
            assert_eq!(back, inst, "round trip failed for {inst:?}");
        }
    }

    #[test]
    fn negative_displacement_round_trip() {
        let inst = Inst::mov(
            Operand::reg(Reg::R1),
            Operand::mem(MemRef::base_disp(Reg::SP, -65536)),
        );
        let back = decode(0, &encode(&inst)).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let bytes = encode(&Inst::Nop);
        let err = decode(0x400000, &bytes[..10]).unwrap_err();
        assert!(matches!(err, IrError::TruncatedInstruction { .. }));
    }

    #[test]
    fn invalid_opcode_is_an_error() {
        let mut bytes = [0u8; INST_SIZE];
        bytes[0] = 0xee;
        let err = decode(0x400000, &bytes).unwrap_err();
        assert!(matches!(err, IrError::InvalidOpcode { .. }));
    }

    #[test]
    fn invalid_scale_is_an_error() {
        let mut bytes = encode(&Inst::mov(
            Operand::reg(Reg::R0),
            Operand::mem(MemRef::base(Reg::R1)),
        ));
        bytes[22 + 3] = 5; // corrupt the scale of the source memory operand
        let err = decode(0x400000, &bytes).unwrap_err();
        assert!(matches!(err, IrError::InvalidOperand { .. }));
    }

    #[test]
    fn decode_at_respects_bounds() {
        let text: Vec<u8> = sample_instructions()
            .iter()
            .flat_map(|i| encode(i).to_vec())
            .collect();
        let base = 0x400000u64;
        let third = decode_at(base, &text, base + 2 * INST_SIZE as u64).unwrap();
        assert_eq!(third, Inst::mov(Operand::reg(Reg::R1), Operand::imm(-42)));
        assert!(decode_at(base, &text, base + text.len() as u64).is_err());
        assert!(decode_at(base, &text, base - INST_SIZE as u64).is_err());
    }
}
