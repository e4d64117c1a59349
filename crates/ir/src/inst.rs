//! The JVA instruction set.

use crate::operand::{MemRef, Operand};
use crate::reg::{Reg, RegSet};
use std::fmt;

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Signed multiplication.
    Mul,
    /// Signed division (traps on division by zero).
    Div,
    /// Signed remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
}

impl AluOp {
    /// Mnemonic used by the disassembler.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "imul",
            AluOp::Div => "idiv",
            AluOp::Rem => "irem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
        }
    }
}

/// Floating-point (and vector) operations on `f64` lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Square root (unary; the source operand is the input).
    Sqrt,
}

impl FpuOp {
    /// Mnemonic used by the disassembler.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpuOp::Add => "fadd",
            FpuOp::Sub => "fsub",
            FpuOp::Mul => "fmul",
            FpuOp::Div => "fdiv",
            FpuOp::Min => "fmin",
            FpuOp::Max => "fmax",
            FpuOp::Sqrt => "fsqrt",
        }
    }
}

/// Branch conditions evaluated against the flags register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal / zero.
    Eq,
    /// Not equal / not zero.
    Ne,
    /// Signed less than.
    Lt,
    /// Signed less than or equal.
    Le,
    /// Signed greater than.
    Gt,
    /// Signed greater than or equal.
    Ge,
    /// Unsigned below.
    Below,
    /// Unsigned above or equal.
    AboveEq,
}

impl Cond {
    /// The condition that is true exactly when `self` is false.
    #[must_use]
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
            Cond::Below => Cond::AboveEq,
            Cond::AboveEq => Cond::Below,
        }
    }

    /// Mnemonic suffix used by the disassembler (`je`, `jne`, ...).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            Cond::Eq => "e",
            Cond::Ne => "ne",
            Cond::Lt => "l",
            Cond::Le => "le",
            Cond::Gt => "g",
            Cond::Ge => "ge",
            Cond::Below => "b",
            Cond::AboveEq => "ae",
        }
    }

    /// The condition's code: its byte in an encoded `Jcc`/`CMov` and its
    /// word in a rewrite rule.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Cond::Eq => 0,
            Cond::Ne => 1,
            Cond::Lt => 2,
            Cond::Le => 3,
            Cond::Gt => 4,
            Cond::Ge => 5,
            Cond::Below => 6,
            Cond::AboveEq => 7,
        }
    }

    /// The condition with code `code` ([`Cond::code`]), if any.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Cond> {
        Some(match code {
            0 => Cond::Eq,
            1 => Cond::Ne,
            2 => Cond::Lt,
            3 => Cond::Le,
            4 => Cond::Gt,
            5 => Cond::Ge,
            6 => Cond::Below,
            7 => Cond::AboveEq,
            _ => return None,
        })
    }
}

/// System call numbers understood by the JVA runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyscallNum {
    /// Terminate the process; `r0` holds the exit code.
    Exit,
    /// Write the integer in `r1` to the simulated output stream.
    WriteInt,
    /// Write the float in `v0` lane 0 to the simulated output stream.
    WriteFloat,
    /// Extend the heap by `r1` bytes; returns the old break in `r0`.
    Sbrk,
    /// Read the cycle counter into `r0`.
    Clock,
    /// Read one 64-bit value of input into `r0` (simulated stdin).
    ReadInt,
}

impl SyscallNum {
    /// Encodes the syscall number.
    #[must_use]
    pub fn as_u32(self) -> u32 {
        match self {
            SyscallNum::Exit => 0,
            SyscallNum::WriteInt => 1,
            SyscallNum::WriteFloat => 2,
            SyscallNum::Sbrk => 3,
            SyscallNum::Clock => 4,
            SyscallNum::ReadInt => 5,
        }
    }

    /// Decodes a syscall number.
    #[must_use]
    pub fn from_u32(v: u32) -> Option<SyscallNum> {
        Some(match v {
            0 => SyscallNum::Exit,
            1 => SyscallNum::WriteInt,
            2 => SyscallNum::WriteFloat,
            3 => SyscallNum::Sbrk,
            4 => SyscallNum::Clock,
            5 => SyscallNum::ReadInt,
            _ => return None,
        })
    }
}

/// A single JVA machine instruction.
///
/// The set intentionally mirrors the x86-64 subset that matters for the
/// Janus analyses: two-operand ALU forms where either operand may be memory,
/// explicit flags via [`Inst::Cmp`]/[`Inst::Test`], conditional moves,
/// push/pop, direct and indirect control flow, and PLT-indirected external
/// calls.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Move `src` into `dst` (integer, 64-bit).
    Mov {
        /// Destination (register or memory).
        dst: Operand,
        /// Source (register, immediate or memory).
        src: Operand,
    },
    /// Load the effective address of `mem` into `dst`.
    Lea {
        /// Destination register.
        dst: Reg,
        /// Address expression.
        mem: MemRef,
    },
    /// Two-operand integer ALU operation: `dst = dst op src`. Sets flags.
    Alu {
        /// The operation to perform.
        op: AluOp,
        /// Destination (register or memory).
        dst: Operand,
        /// Source (register, immediate or memory).
        src: Operand,
    },
    /// Scalar floating-point move between vector registers and memory.
    FMov {
        /// Destination (vector register or memory).
        dst: Operand,
        /// Source (vector register, memory or immediate bit pattern).
        src: Operand,
    },
    /// Two-operand scalar floating-point operation: `dst = dst op src`.
    Fpu {
        /// The operation to perform.
        op: FpuOp,
        /// Destination (vector register lane 0 or memory).
        dst: Operand,
        /// Source operand.
        src: Operand,
    },
    /// Packed vector move of `lanes` consecutive `f64` values.
    VMov {
        /// Destination (vector register or memory).
        dst: Operand,
        /// Source (vector register or memory).
        src: Operand,
        /// Number of lanes moved (2 = SSE-like, 4 = AVX-like).
        lanes: u8,
    },
    /// Packed vector operation over `lanes` lanes: `dst = dst op src`.
    Vec {
        /// The lane-wise operation.
        op: FpuOp,
        /// Destination vector register.
        dst: Reg,
        /// Source (vector register or memory).
        src: Operand,
        /// Number of lanes (2 or 4).
        lanes: u8,
    },
    /// Convert a 64-bit integer to `f64`: `dst = (f64) src`.
    CvtIntToFloat {
        /// Destination vector register (lane 0).
        dst: Reg,
        /// Integer source.
        src: Operand,
    },
    /// Convert an `f64` to a 64-bit integer (truncating): `dst = (i64) src`.
    CvtFloatToInt {
        /// Destination integer register.
        dst: Reg,
        /// Floating-point source.
        src: Operand,
    },
    /// Integer compare: sets flags according to `lhs - rhs`.
    Cmp {
        /// Left-hand side.
        lhs: Operand,
        /// Right-hand side.
        rhs: Operand,
    },
    /// Floating-point compare of lane 0 values.
    FCmp {
        /// Left-hand side.
        lhs: Operand,
        /// Right-hand side.
        rhs: Operand,
    },
    /// Bitwise test: sets flags according to `lhs & rhs`.
    Test {
        /// Left-hand side.
        lhs: Operand,
        /// Right-hand side.
        rhs: Operand,
    },
    /// Conditional move: `if cond { dst = src }`.
    CMov {
        /// The condition.
        cond: Cond,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Unconditional direct jump.
    Jmp {
        /// Absolute target address.
        target: u64,
    },
    /// Conditional direct jump.
    Jcc {
        /// The condition.
        cond: Cond,
        /// Absolute target address.
        target: u64,
    },
    /// Indirect jump through a register or memory operand.
    JmpInd {
        /// Operand holding the target address.
        target: Operand,
    },
    /// Direct call; pushes the return address.
    Call {
        /// Absolute target address.
        target: u64,
    },
    /// Indirect call through a register or memory operand.
    CallInd {
        /// Operand holding the target address.
        target: Operand,
    },
    /// Call through the PLT to an external (shared-library or native) function.
    CallExt {
        /// Index into the binary's PLT table.
        plt: u32,
    },
    /// Return; pops the return address.
    Ret,
    /// Push a value onto the stack.
    Push {
        /// The value pushed.
        src: Operand,
    },
    /// Pop the top of the stack into `dst`.
    Pop {
        /// Destination (register or memory).
        dst: Operand,
    },
    /// System call; the number selects the service.
    Syscall {
        /// Which service is requested.
        num: u32,
    },
    /// No operation.
    Nop,
    /// Stop the machine (end of program).
    Halt,
}

/// Classification of an instruction's effect on control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFlow {
    /// Falls through to the next instruction.
    FallThrough,
    /// Unconditional branch to a known target.
    Jump(u64),
    /// Conditional branch: target plus fall-through.
    Branch(u64),
    /// Indirect branch with statically unknown target.
    IndirectJump,
    /// Direct call to a known target (returns to the next instruction).
    Call(u64),
    /// Indirect or external call (returns to the next instruction).
    IndirectCall,
    /// Return from a call.
    Return,
    /// Terminates the program.
    Halt,
}

impl Inst {
    /// Convenience constructor for [`Inst::Mov`].
    #[must_use]
    pub fn mov(dst: Operand, src: Operand) -> Inst {
        Inst::Mov { dst, src }
    }

    /// Convenience constructor for [`Inst::Alu`].
    #[must_use]
    pub fn alu(op: AluOp, dst: Operand, src: Operand) -> Inst {
        Inst::Alu { op, dst, src }
    }

    /// Convenience constructor for [`Inst::Fpu`].
    #[must_use]
    pub fn fpu(op: FpuOp, dst: Operand, src: Operand) -> Inst {
        Inst::Fpu { op, dst, src }
    }

    /// Convenience constructor for [`Inst::Cmp`].
    #[must_use]
    pub fn cmp(lhs: Operand, rhs: Operand) -> Inst {
        Inst::Cmp { lhs, rhs }
    }

    /// How this instruction affects control flow.
    #[must_use]
    pub fn control_flow(&self) -> ControlFlow {
        match self {
            Inst::Jmp { target } => ControlFlow::Jump(*target),
            Inst::Jcc { target, .. } => ControlFlow::Branch(*target),
            Inst::JmpInd { .. } => ControlFlow::IndirectJump,
            Inst::Call { target } => ControlFlow::Call(*target),
            Inst::CallInd { .. } | Inst::CallExt { .. } => ControlFlow::IndirectCall,
            Inst::Ret => ControlFlow::Return,
            Inst::Halt => ControlFlow::Halt,
            Inst::Syscall { num } if *num == SyscallNum::Exit.as_u32() => ControlFlow::Halt,
            _ => ControlFlow::FallThrough,
        }
    }

    /// Returns `true` if this instruction ends a basic block.
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        !matches!(self.control_flow(), ControlFlow::FallThrough)
            || matches!(
                self,
                Inst::Call { .. } | Inst::CallInd { .. } | Inst::CallExt { .. }
            )
    }

    /// Registers read by this instruction, excluding implicit flag reads.
    ///
    /// The two-operand forms (`Alu`, `Fpu`, `Vec`, `CMov`) read their
    /// destination too; a memory destination reads its address registers;
    /// push, pop, call and return read the stack pointer. The answer is a
    /// [`RegSet`], so asking costs no allocation: liveness and dependence
    /// analysis ask it of every instruction they visit.
    #[must_use]
    pub fn reads(&self) -> RegSet {
        let sp = RegSet::from(Reg::SP);
        match self {
            Inst::Mov { dst, src } | Inst::FMov { dst, src } | Inst::VMov { dst, src, .. } => {
                src.read_regs() | dst.dest_addr_regs()
            }
            Inst::Lea { mem, .. } => mem.regs().collect(),
            Inst::Alu { dst, src, .. } | Inst::Fpu { dst, src, .. } => {
                src.read_regs() | dst.read_regs()
            }
            Inst::Vec { dst, src, .. } | Inst::CMov { dst, src, .. } => {
                RegSet::from(*dst) | src.read_regs()
            }
            Inst::CvtIntToFloat { src, .. } | Inst::CvtFloatToInt { src, .. } => src.read_regs(),
            Inst::Cmp { lhs, rhs } | Inst::FCmp { lhs, rhs } | Inst::Test { lhs, rhs } => {
                lhs.read_regs() | rhs.read_regs()
            }
            Inst::JmpInd { target } | Inst::CallInd { target } => target.read_regs(),
            Inst::Push { src } => src.read_regs() | sp,
            Inst::Pop { dst } => dst.dest_addr_regs() | sp,
            Inst::Call { .. } | Inst::CallExt { .. } | Inst::Ret => sp,
            Inst::Syscall { .. } => RegSet::from(Reg::R0) | RegSet::from(Reg::R1),
            Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Nop | Inst::Halt => RegSet::EMPTY,
        }
    }

    /// Registers written by this instruction, as a [`RegSet`]: a register
    /// destination, the stack pointer for push, pop, call and return, and
    /// `r0` for a system call.
    #[must_use]
    pub fn writes(&self) -> RegSet {
        let sp = RegSet::from(Reg::SP);
        match self {
            Inst::Mov { dst, .. }
            | Inst::FMov { dst, .. }
            | Inst::VMov { dst, .. }
            | Inst::Alu { dst, .. }
            | Inst::Fpu { dst, .. } => dst.as_reg().into_iter().collect(),
            Inst::Lea { dst, .. }
            | Inst::Vec { dst, .. }
            | Inst::CvtIntToFloat { dst, .. }
            | Inst::CvtFloatToInt { dst, .. }
            | Inst::CMov { dst, .. } => RegSet::from(*dst),
            Inst::Pop { dst } => dst.as_reg().into_iter().collect::<RegSet>() | sp,
            Inst::Push { .. }
            | Inst::Call { .. }
            | Inst::CallInd { .. }
            | Inst::CallExt { .. }
            | Inst::Ret => sp,
            Inst::Syscall { .. } => RegSet::from(Reg::R0),
            Inst::Cmp { .. }
            | Inst::FCmp { .. }
            | Inst::Test { .. }
            | Inst::Jmp { .. }
            | Inst::Jcc { .. }
            | Inst::JmpInd { .. }
            | Inst::Nop
            | Inst::Halt => RegSet::EMPTY,
        }
    }

    /// Memory operand read by this instruction, if any (excluding implicit
    /// stack traffic from push/pop/call/ret).
    #[must_use]
    pub fn mem_read(&self) -> Option<MemRef> {
        match self {
            Inst::Mov { src, .. }
            | Inst::FMov { src, .. }
            | Inst::VMov { src, .. }
            | Inst::CMov { src, .. }
            | Inst::CvtIntToFloat { src, .. }
            | Inst::CvtFloatToInt { src, .. }
            | Inst::Push { src } => src.as_mem(),
            Inst::Alu { dst, src, .. } | Inst::Fpu { dst, src, .. } => {
                // dst is read-modify-write; report whichever side touches memory.
                src.as_mem().or_else(|| dst.as_mem())
            }
            Inst::Vec { src, .. } => src.as_mem(),
            Inst::Cmp { lhs, rhs } | Inst::FCmp { lhs, rhs } | Inst::Test { lhs, rhs } => {
                lhs.as_mem().or_else(|| rhs.as_mem())
            }
            Inst::JmpInd { target } | Inst::CallInd { target } => target.as_mem(),
            _ => None,
        }
    }

    /// Memory operand written by this instruction, if any (excluding implicit
    /// stack traffic).
    #[must_use]
    pub fn mem_write(&self) -> Option<MemRef> {
        match self {
            Inst::Mov { dst, .. }
            | Inst::FMov { dst, .. }
            | Inst::VMov { dst, .. }
            | Inst::Alu { dst, .. }
            | Inst::Fpu { dst, .. }
            | Inst::Pop { dst } => dst.as_mem(),
            _ => None,
        }
    }

    /// Returns `true` if this instruction performs any explicit memory access.
    #[must_use]
    pub fn touches_memory(&self) -> bool {
        self.mem_read().is_some() || self.mem_write().is_some()
    }

    /// Size in bytes each access transfers (8 for scalar, `lanes * 8` for
    /// vector operations). Returns 0 for instructions without memory access.
    #[must_use]
    pub fn access_width(&self) -> u64 {
        match self {
            Inst::VMov { lanes, .. } | Inst::Vec { lanes, .. } => u64::from(*lanes) * 8,
            _ if self.touches_memory() => 8,
            Inst::Push { .. } | Inst::Pop { .. } => 8,
            _ => 0,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::disasm::format_inst(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_negation_is_involutive() {
        let all = [
            Cond::Eq,
            Cond::Ne,
            Cond::Lt,
            Cond::Le,
            Cond::Gt,
            Cond::Ge,
            Cond::Below,
            Cond::AboveEq,
        ];
        for c in all {
            assert_eq!(c.negate().negate(), c);
            assert_ne!(c.negate(), c);
            assert_eq!(Cond::from_code(c.code()), Some(c));
        }
        assert_eq!(Cond::from_code(8), None);
    }

    #[test]
    fn syscall_round_trip() {
        for n in 0..6 {
            let s = SyscallNum::from_u32(n).unwrap();
            assert_eq!(s.as_u32(), n);
        }
        assert_eq!(SyscallNum::from_u32(99), None);
    }

    #[test]
    fn control_flow_classification() {
        assert_eq!(
            Inst::Jmp { target: 0x400040 }.control_flow(),
            ControlFlow::Jump(0x400040)
        );
        assert_eq!(
            Inst::Jcc {
                cond: Cond::Lt,
                target: 0x400080
            }
            .control_flow(),
            ControlFlow::Branch(0x400080)
        );
        assert_eq!(Inst::Ret.control_flow(), ControlFlow::Return);
        assert_eq!(Inst::Halt.control_flow(), ControlFlow::Halt);
        assert_eq!(
            Inst::Syscall {
                num: SyscallNum::Exit.as_u32()
            }
            .control_flow(),
            ControlFlow::Halt
        );
        assert_eq!(
            Inst::mov(Operand::reg(Reg::R0), Operand::imm(1)).control_flow(),
            ControlFlow::FallThrough
        );
        assert!(Inst::Call { target: 0x400100 }.is_terminator());
        assert!(Inst::CallExt { plt: 0 }.is_terminator());
        assert!(!Inst::Nop.is_terminator());
    }

    #[test]
    fn reads_and_writes_for_alu() {
        let i = Inst::alu(
            AluOp::Add,
            Operand::mem(MemRef::base_disp(Reg::R2, 0x20)),
            Operand::reg(Reg::R0),
        );
        let reads = i.reads();
        assert!(reads.contains(Reg::R2));
        assert!(reads.contains(Reg::R0));
        assert!(
            i.writes() == RegSet::EMPTY,
            "memory destination writes no register"
        );
        assert!(i.mem_read().is_some());
        assert!(i.mem_write().is_some());
        assert!(i.touches_memory());
    }

    #[test]
    fn reads_and_writes_for_mov() {
        let i = Inst::mov(
            Operand::reg(Reg::R3),
            Operand::mem(MemRef::base_index(Reg::R8, Reg::R1, 8)),
        );
        assert_eq!(i.writes(), RegSet::from(Reg::R3));
        let reads = i.reads();
        assert!(reads.contains(Reg::R8) && reads.contains(Reg::R1));
        assert!(i.mem_read().is_some());
        assert!(i.mem_write().is_none());
    }

    #[test]
    fn push_pop_touch_stack_pointer() {
        let push = Inst::Push {
            src: Operand::reg(Reg::R5),
        };
        assert!(push.reads().contains(Reg::SP));
        assert_eq!(push.writes(), RegSet::from(Reg::SP));
        let pop = Inst::Pop {
            dst: Operand::reg(Reg::R5),
        };
        assert!(pop.writes().contains(Reg::R5));
        assert!(pop.writes().contains(Reg::SP));
    }

    #[test]
    fn cmov_reads_destination() {
        let i = Inst::CMov {
            cond: Cond::Eq,
            dst: Reg::R1,
            src: Operand::reg(Reg::R2),
        };
        assert!(i.reads().contains(Reg::R1));
        assert!(i.reads().contains(Reg::R2));
        assert_eq!(i.writes(), RegSet::from(Reg::R1));
    }

    #[test]
    fn vector_access_width() {
        let v = Inst::VMov {
            dst: Operand::reg(Reg::V0),
            src: Operand::mem(MemRef::base(Reg::R1)),
            lanes: 4,
        };
        assert_eq!(v.access_width(), 32);
        let s = Inst::FMov {
            dst: Operand::reg(Reg::V0),
            src: Operand::mem(MemRef::base(Reg::R1)),
        };
        assert_eq!(s.access_width(), 8);
        assert_eq!(Inst::Nop.access_width(), 0);
    }
}
