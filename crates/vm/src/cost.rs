//! Deterministic cycle cost model.
//!
//! The evaluation host has a single CPU core, so wall-clock speedups on eight
//! threads cannot be measured directly. Instead every executed instruction is
//! charged a deterministic cycle cost and parallel-region time is the maximum
//! over the participating threads (see `janus-dbm`). The *relative* costs are
//! loosely calibrated to a Sandy-Bridge-class out-of-order core so that the
//! shapes of the paper's figures are preserved.

use janus_ir::{AluOp, Inst};

/// Per-instruction-class cycle costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of simple register-to-register ALU operations and moves.
    pub alu: u64,
    /// Extra cost of integer multiplication.
    pub mul_extra: u64,
    /// Extra cost of integer division / remainder.
    pub div_extra: u64,
    /// Cost of a scalar floating-point operation.
    pub fpu: u64,
    /// Extra cost of floating-point division or square root.
    pub fdiv_extra: u64,
    /// Cost of a packed vector operation (amortised per instruction).
    pub vec: u64,
    /// Additional cost for every explicit memory access.
    pub mem_access: u64,
    /// Cost of a taken or not-taken direct branch.
    pub branch: u64,
    /// Additional cost of an indirect branch (branch-target lookup).
    pub indirect_extra: u64,
    /// Cost of a call or return.
    pub call: u64,
    /// Cost of a system call.
    pub syscall: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 1,
            mul_extra: 2,
            div_extra: 20,
            fpu: 2,
            fdiv_extra: 12,
            vec: 2,
            mem_access: 3,
            branch: 1,
            indirect_extra: 6,
            call: 2,
            syscall: 150,
        }
    }
}

impl CostModel {
    /// The cycle cost of executing `inst` once.
    #[must_use]
    pub fn cost(&self, inst: &Inst) -> u64 {
        let mem = if inst.touches_memory() {
            self.mem_access
        } else {
            0
        };
        let base = match inst {
            Inst::Nop | Inst::Halt => 1,
            Inst::Mov { .. } | Inst::Lea { .. } | Inst::CMov { .. } => self.alu,
            Inst::Alu { op, .. } => {
                self.alu
                    + match op {
                        AluOp::Mul => self.mul_extra,
                        AluOp::Div | AluOp::Rem => self.div_extra,
                        _ => 0,
                    }
            }
            Inst::FMov { .. } | Inst::CvtIntToFloat { .. } | Inst::CvtFloatToInt { .. } => self.fpu,
            Inst::Fpu { op, .. } => {
                self.fpu
                    + match op {
                        janus_ir::FpuOp::Div | janus_ir::FpuOp::Sqrt => self.fdiv_extra,
                        _ => 0,
                    }
            }
            Inst::VMov { .. } | Inst::Vec { .. } => self.vec,
            Inst::Cmp { .. } | Inst::FCmp { .. } | Inst::Test { .. } => self.alu,
            Inst::Jmp { .. } | Inst::Jcc { .. } => self.branch,
            Inst::JmpInd { .. } => self.branch + self.indirect_extra,
            Inst::Call { .. } | Inst::Ret => self.call,
            Inst::CallInd { .. } | Inst::CallExt { .. } => self.call + self.indirect_extra,
            Inst::Push { .. } | Inst::Pop { .. } => self.alu + self.mem_access,
            Inst::Syscall { .. } => self.syscall,
        };
        base + mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_ir::{MemRef, Operand, Reg};

    #[test]
    fn division_is_more_expensive_than_addition() {
        let m = CostModel::default();
        let add = Inst::alu(AluOp::Add, Operand::reg(Reg::R0), Operand::imm(1));
        let div = Inst::alu(AluOp::Div, Operand::reg(Reg::R0), Operand::reg(Reg::R1));
        assert!(m.cost(&div) > m.cost(&add));
    }

    #[test]
    fn memory_operands_add_cost() {
        let m = CostModel::default();
        let reg = Inst::mov(Operand::reg(Reg::R0), Operand::reg(Reg::R1));
        let mem = Inst::mov(Operand::reg(Reg::R0), Operand::mem(MemRef::base(Reg::R1)));
        assert!(m.cost(&mem) > m.cost(&reg));
    }

    #[test]
    fn indirect_branches_cost_more_than_direct() {
        let m = CostModel::default();
        let direct = Inst::Jmp { target: 0x400000 };
        let indirect = Inst::JmpInd {
            target: Operand::reg(Reg::R1),
        };
        assert!(m.cost(&indirect) > m.cost(&direct));
    }

    #[test]
    fn every_instruction_costs_at_least_one_cycle() {
        let m = CostModel::default();
        assert!(m.cost(&Inst::Nop) >= 1);
        assert!(m.cost(&Inst::Halt) >= 1);
        assert!(m.cost(&Inst::Ret) >= 1);
    }
}
