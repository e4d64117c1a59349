//! Natural-loop detection and loop-nest construction.

use crate::cfg::{BlockId, FunctionCfg};
use crate::dom::Dominators;

/// Index of a loop within one function's loop list.
pub type LoopId = usize;

/// A natural loop discovered from a back edge `latch -> header` where the
/// header dominates the latch.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// Index of this loop within the function.
    pub id: LoopId,
    /// The loop header block.
    pub header: BlockId,
    /// Blocks that jump back to the header.
    pub latches: Vec<BlockId>,
    /// All blocks belonging to the loop (including the header), ascending.
    pub blocks: Vec<BlockId>,
    /// Blocks inside the loop with at least one successor outside it.
    pub exit_blocks: Vec<BlockId>,
    /// Blocks outside the loop that are jumped to when the loop exits.
    pub exit_targets: Vec<BlockId>,
    /// Predecessors of the header that are outside the loop (the loop is
    /// entered through these).
    pub preheaders: Vec<BlockId>,
    /// The enclosing loop, if this loop is nested.
    pub parent: Option<LoopId>,
    /// Nesting depth (1 = outermost).
    pub depth: usize,
}

impl NaturalLoop {
    /// Returns `true` if `block` belongs to the loop.
    #[must_use]
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.binary_search(&block).is_ok()
    }
}

/// Finds every natural loop in a function and computes the nesting structure.
#[must_use]
pub fn find_loops(func: &FunctionCfg, doms: &Dominators) -> Vec<NaturalLoop> {
    // Collect back edges grouped by header.
    let mut by_header: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
    for b in &func.blocks {
        for &s in &b.succs {
            if doms.dominates(s, b.id) {
                match by_header.iter_mut().find(|(h, _)| *h == s) {
                    Some((_, latches)) => latches.push(b.id),
                    None => by_header.push((s, vec![b.id])),
                }
            }
        }
    }

    let mut loops = Vec::new();
    let mut in_loop = vec![false; func.blocks.len()];
    for (header, latches) in by_header {
        // Natural loop body: header plus all blocks that reach a latch without
        // passing through the header.
        in_loop.fill(false);
        in_loop[header] = true;
        let mut blocks = vec![header];
        let mut stack: Vec<BlockId> = latches.clone();
        while let Some(b) = stack.pop() {
            if !std::mem::replace(&mut in_loop[b], true) {
                blocks.push(b);
                for &p in &func.blocks[b].preds {
                    if !in_loop[p] {
                        stack.push(p);
                    }
                }
            }
        }
        blocks.sort_unstable();
        let mut exit_blocks = Vec::new();
        let mut exit_targets = Vec::new();
        for &b in &blocks {
            for &s in &func.blocks[b].succs {
                if !in_loop[s] {
                    if !exit_blocks.contains(&b) {
                        exit_blocks.push(b);
                    }
                    if !exit_targets.contains(&s) {
                        exit_targets.push(s);
                    }
                }
            }
        }
        let preheaders: Vec<BlockId> = func.blocks[header]
            .preds
            .iter()
            .copied()
            .filter(|&p| !in_loop[p])
            .collect();
        loops.push(NaturalLoop {
            id: 0,
            header,
            latches,
            blocks,
            exit_blocks,
            exit_targets,
            preheaders,
            parent: None,
            depth: 1,
        });
    }

    // Sort outermost-first (larger loops first) and compute nesting.
    loops.sort_by_key(|l| std::cmp::Reverse(l.blocks.len()));
    for (i, l) in loops.iter_mut().enumerate() {
        l.id = i;
    }
    for i in 0..loops.len() {
        // The parent is the smallest loop that strictly contains this loop.
        let mut best: Option<(usize, usize)> = None; // (size, idx)
        for j in 0..loops.len() {
            if i == j {
                continue;
            }
            if loops[j].blocks.len() > loops[i].blocks.len()
                && loops[i].blocks.iter().all(|&b| loops[j].contains(b))
            {
                let size = loops[j].blocks.len();
                if best.is_none_or(|(s, _)| size < s) {
                    best = Some((size, j));
                }
            }
        }
        loops[i].parent = best.map(|(_, j)| j);
    }
    // Depths.
    for i in 0..loops.len() {
        let mut depth = 1;
        let mut cur = loops[i].parent;
        while let Some(p) = cur {
            depth += 1;
            cur = loops[p].parent;
        }
        loops[i].depth = depth;
    }
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::recover_functions;
    use janus_ir::{AluOp, AsmBuilder, Cond, Inst, Operand, Reg};

    fn nested_loop_binary() -> janus_ir::JBinary {
        // for i in 0..10 { for j in 0..10 { r2 += 1 } }
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
        asm.label("outer");
        asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(0)));
        asm.label("inner");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R2),
            Operand::imm(1),
        ));
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R1),
            Operand::imm(1),
        ));
        asm.push(Inst::cmp(Operand::reg(Reg::R1), Operand::imm(10)));
        asm.push_branch(Cond::Lt, "inner");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R0),
            Operand::imm(1),
        ));
        asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(10)));
        asm.push_branch(Cond::Lt, "outer");
        asm.push(Inst::Halt);
        asm.finish_binary("main").unwrap()
    }

    #[test]
    fn finds_nested_loops_with_correct_depths() {
        let bin = nested_loop_binary();
        let f = &recover_functions(&bin).unwrap()[0];
        let doms = Dominators::compute(f);
        let loops = find_loops(f, &doms);
        assert_eq!(loops.len(), 2);
        let outer = &loops[0];
        let inner = &loops[1];
        assert!(outer.blocks.len() > inner.blocks.len());
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(inner.blocks.iter().all(|b| outer.contains(*b)));
    }

    #[test]
    fn loop_structure_fields_are_consistent() {
        let bin = nested_loop_binary();
        let f = &recover_functions(&bin).unwrap()[0];
        let doms = Dominators::compute(f);
        for l in find_loops(f, &doms) {
            assert!(l.contains(l.header));
            for latch in &l.latches {
                assert!(l.contains(*latch), "latch must be inside the loop");
            }
            for e in &l.exit_blocks {
                assert!(l.contains(*e));
            }
            for t in &l.exit_targets {
                assert!(!l.contains(*t));
            }
            for p in &l.preheaders {
                assert!(!l.contains(*p));
            }
            assert!(!l.exit_blocks.is_empty(), "loops here always terminate");
            assert!(!l.preheaders.is_empty());
        }
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(1)));
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let f = &recover_functions(&bin).unwrap()[0];
        let doms = Dominators::compute(f);
        assert!(find_loops(f, &doms).is_empty());
    }
}
