//! Deterministic cycle cost model.
//!
//! The evaluation host has a single CPU core, so wall-clock speedups on eight
//! threads cannot be measured directly. Instead every executed instruction is
//! charged a deterministic cycle cost and parallel-region time is the maximum
//! over the participating threads (see `janus-dbm`). The *relative* costs are
//! loosely calibrated to a Sandy-Bridge-class out-of-order core so that the
//! shapes of the paper's figures are preserved.

use janus_ir::{AluOp, FpuOp, Inst};

/// Cost of simple register-to-register ALU operations and moves.
const ALU: u64 = 1;
/// Extra cost of integer multiplication.
const MUL_EXTRA: u64 = 2;
/// Extra cost of integer division / remainder.
const DIV_EXTRA: u64 = 20;
/// Cost of a scalar floating-point operation.
const FPU: u64 = 2;
/// Extra cost of floating-point division or square root.
const FDIV_EXTRA: u64 = 12;
/// Cost of a packed vector operation (amortised per instruction).
const VEC: u64 = 2;
/// Additional cost for every explicit memory access.
const MEM_ACCESS: u64 = 3;
/// Cost of a taken or not-taken direct branch.
const BRANCH: u64 = 1;
/// Additional cost of an indirect branch (branch-target lookup).
const INDIRECT_EXTRA: u64 = 6;
/// Cost of a call or return.
const CALL: u64 = 2;
/// Cost of a system call.
const SYSCALL: u64 = 150;

/// The cycle cost of executing `inst` once.
#[must_use]
pub fn cost(inst: &Inst) -> u64 {
    let mem = if inst.touches_memory() { MEM_ACCESS } else { 0 };
    let base = match inst {
        Inst::Nop | Inst::Halt => 1,
        Inst::Mov { .. } | Inst::Lea { .. } | Inst::CMov { .. } => ALU,
        Inst::Alu { op, .. } => {
            ALU + match op {
                AluOp::Mul => MUL_EXTRA,
                AluOp::Div | AluOp::Rem => DIV_EXTRA,
                _ => 0,
            }
        }
        Inst::FMov { .. } | Inst::CvtIntToFloat { .. } | Inst::CvtFloatToInt { .. } => FPU,
        Inst::Fpu { op, .. } => {
            FPU + match op {
                FpuOp::Div | FpuOp::Sqrt => FDIV_EXTRA,
                _ => 0,
            }
        }
        Inst::VMov { .. } | Inst::Vec { .. } => VEC,
        Inst::Cmp { .. } | Inst::FCmp { .. } | Inst::Test { .. } => ALU,
        Inst::Jmp { .. } | Inst::Jcc { .. } => BRANCH,
        Inst::JmpInd { .. } => BRANCH + INDIRECT_EXTRA,
        Inst::Call { .. } | Inst::Ret => CALL,
        Inst::CallInd { .. } | Inst::CallExt { .. } => CALL + INDIRECT_EXTRA,
        Inst::Push { .. } | Inst::Pop { .. } => ALU + MEM_ACCESS,
        Inst::Syscall { .. } => SYSCALL,
    };
    base + mem
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_ir::{MemRef, Operand, Reg};

    #[test]
    fn division_is_more_expensive_than_addition() {
        let add = Inst::alu(AluOp::Add, Operand::reg(Reg::R0), Operand::imm(1));
        let div = Inst::alu(AluOp::Div, Operand::reg(Reg::R0), Operand::reg(Reg::R1));
        assert!(cost(&div) > cost(&add));
    }

    #[test]
    fn memory_operands_add_cost() {
        let reg = Inst::mov(Operand::reg(Reg::R0), Operand::reg(Reg::R1));
        let mem = Inst::mov(Operand::reg(Reg::R0), Operand::mem(MemRef::base(Reg::R1)));
        assert!(cost(&mem) > cost(&reg));
    }

    #[test]
    fn indirect_branches_cost_more_than_direct() {
        let direct = Inst::Jmp { target: 0x400000 };
        let indirect = Inst::JmpInd {
            target: Operand::reg(Reg::R1),
        };
        assert!(cost(&indirect) > cost(&direct));
    }

    #[test]
    fn every_instruction_costs_at_least_one_cycle() {
        assert!(cost(&Inst::Nop) >= 1);
        assert!(cost(&Inst::Halt) >= 1);
        assert!(cost(&Inst::Ret) >= 1);
    }
}
