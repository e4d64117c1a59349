//! Block-level register liveness.
//!
//! Liveness is used for two purposes in Janus: determining which registers
//! are live into a loop (and therefore must be copied into each thread's
//! initial context, or treated as loop-carried values) and finding dead
//! registers the dynamic binary modifier may use as scratch space without
//! spilling.

use crate::cfg::{BlockId, FunctionCfg};
use janus_ir::{Reg, RegSet};

/// Live-in and live-out register sets per basic block, indexed by
/// [`BlockId`].
///
/// Each set is a [`RegSet`], one 32-bit mask, so the data-flow iteration is
/// a few word operations per block and the sets iterate in register order.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

impl Liveness {
    /// Computes liveness for a function with the standard backwards data-flow
    /// iteration.
    #[must_use]
    pub fn compute(func: &FunctionCfg) -> Liveness {
        let n = func.blocks.len();
        // Per-block use (read before any write in the block) and def sets.
        let (uses, defs): (Vec<RegSet>, Vec<RegSet>) = func
            .blocks
            .iter()
            .map(|b| {
                b.insts
                    .iter()
                    .fold((RegSet::EMPTY, RegSet::EMPTY), |(uses, defs), d| {
                        (uses | d.inst.reads().without(defs), defs | d.inst.writes())
                    })
            })
            .unzip();
        let mut live_in = vec![RegSet::EMPTY; n];
        let mut live_out = vec![RegSet::EMPTY; n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let out = func.blocks[i]
                    .succs
                    .iter()
                    .fold(RegSet::EMPTY, |out, &s| out | live_in[s]);
                let inn = uses[i] | out.without(defs[i]);
                if out != live_out[i] || inn != live_in[i] {
                    live_out[i] = out;
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Registers live on entry to `block`.
    #[must_use]
    pub fn live_in(&self, block: BlockId) -> RegSet {
        self.live_in[block]
    }

    /// Registers live on exit from `block`.
    #[must_use]
    pub fn live_out(&self, block: BlockId) -> RegSet {
        self.live_out[block]
    }

    /// General-purpose registers that are dead on entry to `block`
    /// (candidates for scratch use by the dynamic modifier).
    #[must_use]
    pub fn dead_gprs_at(&self, block: BlockId) -> Vec<Reg> {
        Reg::all_gprs()
            .filter(|&r| !self.live_in[block].contains(r) && r != Reg::SP && r != Reg::FP)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::recover_functions;
    use janus_ir::{AluOp, AsmBuilder, Cond, Inst, Operand};

    #[test]
    fn loop_counter_is_live_into_the_loop() {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
        asm.label("loop");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R1),
            Operand::reg(Reg::R0),
        ));
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R0),
            Operand::imm(1),
        ));
        asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(10)));
        asm.push_branch(Cond::Lt, "loop");
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let f = &recover_functions(&bin).unwrap()[0];
        let live = Liveness::compute(f);
        // The loop block is the one ending with the conditional branch.
        let loop_block = f
            .blocks
            .iter()
            .find(|b| matches!(b.terminator().map(|d| &d.inst), Some(Inst::Jcc { .. })))
            .unwrap();
        assert!(live.live_in(loop_block.id).contains(Reg::R0));
        assert!(live.live_in(loop_block.id).contains(Reg::R1));
        // A register never mentioned is dead everywhere.
        assert!(live.dead_gprs_at(loop_block.id).contains(&Reg::R9));
        assert!(!live.dead_gprs_at(loop_block.id).contains(&Reg::R0));
    }

    #[test]
    fn defs_kill_liveness() {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        // R2 is written before being read: not live-in to the entry block.
        asm.push(Inst::mov(Operand::reg(Reg::R2), Operand::imm(5)));
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R2),
            Operand::imm(1),
        ));
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let f = &recover_functions(&bin).unwrap()[0];
        let live = Liveness::compute(f);
        assert!(!live.live_in(0).contains(Reg::R2));
        assert_eq!(live.live_out(0), RegSet::EMPTY);
    }
}
