//! Dominator analysis over a function CFG.

use crate::cfg::{BlockId, FunctionCfg};

/// `Dominators::idom` entry of a block the entry block does not reach.
const UNREACHED: BlockId = BlockId::MAX;

/// The dominator tree of a function, computed with the iterative algorithm
/// of Cooper, Harvey and Kennedy ("A Simple, Fast Dominance Algorithm"):
/// immediate dominators, refined in reverse postorder until they settle.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// The immediate dominator of each block; the entry block is its own,
    /// and a block the entry does not reach has none ([`UNREACHED`]).
    idom: Vec<BlockId>,
}

impl Dominators {
    /// Computes dominators for `func`.
    #[must_use]
    pub fn compute(func: &FunctionCfg) -> Dominators {
        let n = func.blocks.len();
        let mut idom = vec![UNREACHED; n];
        if n == 0 {
            return Dominators { idom };
        }
        // Postorder of the blocks reachable from the entry.
        let mut postorder = Vec::with_capacity(n);
        let mut po_index = vec![UNREACHED; n];
        let mut seen = vec![false; n];
        let mut stack = vec![(0, 0)];
        seen[0] = true;
        while let Some((b, next_succ)) = stack.last_mut() {
            if let Some(&s) = func.blocks[*b].succs.get(*next_succ) {
                *next_succ += 1;
                if !std::mem::replace(&mut seen[s], true) {
                    stack.push((s, 0));
                }
            } else {
                po_index[*b] = postorder.len();
                postorder.push(*b);
                stack.pop();
            }
        }
        idom[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in postorder.iter().rev().skip(1) {
                let mut new = UNREACHED;
                for &p in &func.blocks[b].preds {
                    if idom[p] == UNREACHED {
                        continue;
                    }
                    new = if new == UNREACHED {
                        p
                    } else {
                        // Walk both fingers up the tree to their meeting point.
                        let (mut x, mut y) = (p, new);
                        while x != y {
                            while po_index[x] < po_index[y] {
                                x = idom[x];
                            }
                            while po_index[y] < po_index[x] {
                                y = idom[y];
                            }
                        }
                        x
                    };
                }
                if idom[b] != new {
                    idom[b] = new;
                    changed = true;
                }
            }
        }
        Dominators { idom }
    }

    /// Returns `true` if block `a` dominates block `b`: every path from the
    /// entry to `b` passes through `a`. Every block dominates itself; a block
    /// the entry does not reach is dominated by itself only.
    #[must_use]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut x = b;
        loop {
            if x == a {
                return x < self.idom.len();
            }
            match self.idom.get(x) {
                Some(&up) if up != x && up != UNREACHED => x = up,
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::recover_functions;
    use janus_ir::{AluOp, AsmBuilder, Cond, Inst, Operand, Reg};

    #[test]
    fn diamond_dominance() {
        // entry -> (then | else) -> join
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(0)));
        asm.push_branch(Cond::Eq, "else_b");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R1),
            Operand::imm(1),
        ));
        asm.push_jmp("join");
        asm.label("else_b");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R1),
            Operand::imm(2),
        ));
        asm.label("join");
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let f = &recover_functions(&bin).unwrap()[0];
        let doms = Dominators::compute(f);
        // The entry block dominates everything.
        for b in 0..f.blocks.len() {
            assert!(doms.dominates(0, b));
        }
        // Neither branch arm dominates the join block.
        let join = f
            .blocks
            .iter()
            .find(|b| matches!(b.terminator().map(|d| &d.inst), Some(Inst::Halt)))
            .unwrap()
            .id;
        let arms: Vec<_> = f
            .blocks
            .iter()
            .filter(|b| b.id != 0 && b.id != join)
            .map(|b| b.id)
            .collect();
        for arm in arms {
            assert!(
                !doms.dominates(arm, join),
                "arm {arm} must not dominate join"
            );
        }
        assert!((1..f.blocks.len()).all(|b| !doms.dominates(b, 0)));
    }

    #[test]
    fn every_block_dominates_itself() {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.label("l");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R0),
            Operand::imm(1),
        ));
        asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(5)));
        asm.push_branch(Cond::Lt, "l");
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let f = &recover_functions(&bin).unwrap()[0];
        let doms = Dominators::compute(f);
        for b in 0..f.blocks.len() {
            assert!(doms.dominates(b, b));
        }
    }
}
