//! Function discovery and control-flow-graph recovery from a stripped binary.

use crate::error::Result;
use janus_ir::{decode_at, ControlFlow, DecodedInst, Inst, JBinary, INST_SIZE};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Index of a basic block within its function's CFG.
pub type BlockId = usize;

/// A basic block: a maximal single-entry, single-exit-point instruction
/// sequence.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// This block's index in [`FunctionCfg::blocks`].
    pub id: BlockId,
    /// Address of the first instruction.
    pub start: u64,
    /// Address one past the last instruction.
    pub end: u64,
    /// The decoded instructions of the block.
    pub insts: Vec<DecodedInst>,
    /// Successor blocks (within the same function).
    pub succs: Vec<BlockId>,
    /// Predecessor blocks.
    pub preds: Vec<BlockId>,
}

impl BasicBlock {
    /// The block's terminating instruction.
    #[must_use]
    pub fn terminator(&self) -> Option<&DecodedInst> {
        self.insts.last()
    }

    /// Returns `true` if the block contains the instruction at `addr`.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Number of instructions in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if the block has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// The control-flow graph of one recovered function.
#[derive(Debug, Clone)]
pub struct FunctionCfg {
    /// Entry address of the function.
    pub entry: u64,
    /// Name from the symbol table, when the binary is not stripped.
    pub name: Option<String>,
    /// Basic blocks; index 0 is the entry block.
    pub blocks: Vec<BasicBlock>,
    /// Map from block start address to block id.
    pub block_at: HashMap<u64, BlockId>,
    /// Direct call targets made by this function.
    pub callees: Vec<u64>,
    /// `true` if the function contains indirect jumps or indirect calls,
    /// which prevent complete CFG recovery.
    pub has_indirect_flow: bool,
    /// `true` if the function contains system calls.
    pub has_syscall: bool,
    /// External (PLT) calls made by this function, by PLT index.
    pub external_calls: Vec<u32>,
}

impl FunctionCfg {
    /// The block starting at `addr`, if any.
    #[must_use]
    pub fn block_starting_at(&self, addr: u64) -> Option<&BasicBlock> {
        self.block_at.get(&addr).map(|&id| &self.blocks[id])
    }

    /// The block containing the instruction at `addr`, if any.
    #[must_use]
    pub fn block_containing(&self, addr: u64) -> Option<&BasicBlock> {
        self.blocks.iter().find(|b| b.contains(addr))
    }

    /// Total number of instructions across all blocks.
    #[must_use]
    pub fn num_instructions(&self) -> usize {
        self.blocks.iter().map(BasicBlock::len).sum()
    }
}

/// Recovers every function reachable from the binary's entry point (plus any
/// function symbols present), and builds a CFG for each.
///
/// # Errors
///
/// Returns an error if instruction decoding fails.
pub fn recover_functions(binary: &JBinary) -> Result<Vec<FunctionCfg>> {
    let mut roots: Vec<u64> = vec![binary.entry()];
    for sym in binary.symbols() {
        if sym.kind == janus_ir::SymbolKind::Function && !roots.contains(&sym.addr) {
            roots.push(sym.addr);
        }
    }
    let mut discovered: BTreeSet<u64> = roots.iter().copied().collect();
    let mut queue: VecDeque<u64> = roots.into_iter().collect();
    let mut functions = Vec::new();
    let mut seen_entries = HashSet::new();
    while let Some(entry) = queue.pop_front() {
        if !seen_entries.insert(entry) {
            continue;
        }
        if !binary.text_contains(entry) {
            continue;
        }
        let cfg = recover_function(binary, entry)?;
        for callee in &cfg.callees {
            if binary.text_contains(*callee) && discovered.insert(*callee) {
                queue.push_back(*callee);
            }
        }
        functions.push(cfg);
    }
    Ok(functions)
}

/// Recovers the CFG of the single function whose entry point is `entry`.
///
/// # Errors
///
/// Returns an error if instruction decoding fails.
pub fn recover_function(binary: &JBinary, entry: u64) -> Result<FunctionCfg> {
    let name = binary
        .symbols()
        .iter()
        .find(|s| s.kind == janus_ir::SymbolKind::Function && s.addr == entry)
        .map(|s| s.name.clone());

    // Pass 1: explore and decode the reachable instructions, recording
    // leaders (block start addresses), calls and hazards.
    let mut visited: BTreeMap<u64, Inst> = BTreeMap::new();
    let mut leaders: BTreeSet<u64> = BTreeSet::new();
    leaders.insert(entry);
    let mut callees = Vec::new();
    let mut external_calls = Vec::new();
    let mut has_indirect_flow = false;
    let mut has_syscall = false;

    let mut work = vec![entry];
    while let Some(addr) = work.pop() {
        if visited.contains_key(&addr) || !binary.text_contains(addr) {
            continue;
        }
        let inst = decode_at(binary.text_base(), binary.text(), addr)?;
        let next = addr + INST_SIZE as u64;
        if matches!(inst, Inst::Syscall { .. }) {
            has_syscall = true;
        }
        match inst.control_flow() {
            ControlFlow::FallThrough => work.push(next),
            ControlFlow::Jump(target) => {
                leaders.insert(target);
                work.push(target);
            }
            ControlFlow::Branch(target) => {
                leaders.insert(target);
                leaders.insert(next);
                work.push(target);
                work.push(next);
            }
            ControlFlow::IndirectJump => {
                has_indirect_flow = true;
                // Target unknown: the path ends here for static purposes.
            }
            ControlFlow::Call(target) => {
                callees.push(target);
                leaders.insert(next);
                work.push(next);
            }
            ControlFlow::IndirectCall => {
                if let Inst::CallExt { plt } = inst {
                    external_calls.push(plt);
                } else {
                    has_indirect_flow = true;
                }
                leaders.insert(next);
                work.push(next);
            }
            ControlFlow::Return | ControlFlow::Halt => {}
        }
        visited.insert(addr, inst);
    }

    // Pass 2: build blocks from the visited instructions, in address order.
    // A block starts at a leader or at the first visited instruction after a
    // gap and runs until a terminator, the next leader or the next gap.
    let mut blocks: Vec<BasicBlock> = Vec::new();
    let mut block_at: HashMap<u64, BlockId> = HashMap::new();
    let mut visited = visited.into_iter().peekable();
    while let Some((start, inst)) = visited.next() {
        let mut insts = vec![DecodedInst { addr: start, inst }];
        let end = loop {
            let last = insts.last().expect("a block has its first instruction");
            let next = last.addr + INST_SIZE as u64;
            if last.inst.is_terminator() || leaders.contains(&next) {
                break next;
            }
            match visited.next_if(|(addr, _)| *addr == next) {
                Some((addr, inst)) => insts.push(DecodedInst { addr, inst }),
                None => break next,
            }
        };
        let id = blocks.len();
        block_at.insert(start, id);
        blocks.push(BasicBlock {
            id,
            start,
            end,
            insts,
            succs: Vec::new(),
            preds: Vec::new(),
        });
    }

    // Pass 3: wire up edges. Fall-through edges between consecutive blocks
    // exist when the earlier block does not end in an unconditional transfer.
    let mut succ_sets: Vec<BTreeSet<BlockId>> = vec![BTreeSet::new(); blocks.len()];
    for b in 0..blocks.len() {
        let last = blocks[b].insts.last().cloned();
        if let Some(last) = last {
            match last.inst.control_flow() {
                ControlFlow::FallThrough | ControlFlow::Call(_) | ControlFlow::IndirectCall => {
                    let next = last.addr + INST_SIZE as u64;
                    if let Some(&to) = block_at.get(&next) {
                        succ_sets[b].insert(to);
                    }
                }
                ControlFlow::Jump(t) => {
                    if let Some(&to) = block_at.get(&t) {
                        succ_sets[b].insert(to);
                    }
                }
                ControlFlow::Branch(t) => {
                    if let Some(&to) = block_at.get(&t) {
                        succ_sets[b].insert(to);
                    }
                    let next = last.addr + INST_SIZE as u64;
                    if let Some(&to) = block_at.get(&next) {
                        succ_sets[b].insert(to);
                    }
                }
                ControlFlow::IndirectJump | ControlFlow::Return | ControlFlow::Halt => {}
            }
        }
        // Blocks that were split because the next address is a leader fall
        // through implicitly.
        if let Some(last) = blocks[b].insts.last() {
            if !last.inst.is_terminator() {
                let next = last.addr + INST_SIZE as u64;
                if let Some(&to) = block_at.get(&next) {
                    succ_sets[b].insert(to);
                }
            }
        }
    }
    for (b, succs) in succ_sets.iter().enumerate() {
        blocks[b].succs = succs.iter().copied().collect();
        for &s in succs {
            blocks[s].preds.push(b);
        }
    }

    // Ensure the entry block is block 0 (swap if necessary).
    if let Some(&entry_id) = block_at.get(&entry) {
        if entry_id != 0 {
            blocks.swap(0, entry_id);
            // Fix ids and edges after the swap.
            let remap = |id: BlockId| -> BlockId {
                if id == 0 {
                    entry_id
                } else if id == entry_id {
                    0
                } else {
                    id
                }
            };
            for (new_id, b) in blocks.iter_mut().enumerate() {
                b.id = new_id;
                b.succs = b.succs.iter().map(|&s| remap(s)).collect();
                b.preds = b.preds.iter().map(|&p| remap(p)).collect();
            }
            for (addr, id) in block_at.iter_mut() {
                let _ = addr;
                *id = remap(*id);
            }
        }
    }

    Ok(FunctionCfg {
        entry,
        name,
        blocks,
        block_at,
        callees,
        has_indirect_flow,
        has_syscall,
        external_calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_ir::{AluOp, AsmBuilder, Cond, Operand, Reg};

    fn loop_binary() -> JBinary {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
        asm.label("loop");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R0),
            Operand::imm(1),
        ));
        asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(10)));
        asm.push_branch(Cond::Lt, "loop");
        asm.push_call("helper");
        asm.push(Inst::Halt);
        asm.function("helper");
        asm.push(Inst::Ret);
        asm.finish_binary("main").unwrap()
    }

    #[test]
    fn recovers_two_functions() {
        let bin = loop_binary();
        let funcs = recover_functions(&bin).unwrap();
        assert_eq!(funcs.len(), 2);
        assert_eq!(funcs[0].entry, bin.entry());
        assert_eq!(funcs[0].callees.len(), 1);
        assert_eq!(funcs[1].entry, funcs[0].callees[0]);
    }

    #[test]
    fn recovers_functions_from_stripped_binary() {
        let mut bin = loop_binary();
        bin.strip();
        let funcs = recover_functions(&bin).unwrap();
        assert_eq!(funcs.len(), 2, "call targets are still discovered");
        assert!(funcs[0].name.is_none());
    }

    #[test]
    fn loop_creates_a_cycle_in_the_cfg() {
        let bin = loop_binary();
        let funcs = recover_functions(&bin).unwrap();
        let main = &funcs[0];
        // Entry block is block 0 and starts at the function entry.
        assert_eq!(main.blocks[0].start, main.entry);
        // Some block must have a successor with a smaller start address (the
        // back edge).
        let has_back_edge = main.blocks.iter().any(|b| {
            b.succs
                .iter()
                .any(|&s| main.blocks[s].start <= b.start && main.blocks[s].start != b.start + 1)
        });
        assert!(has_back_edge, "expected a back edge in {main:#?}");
    }

    #[test]
    fn every_instruction_belongs_to_exactly_one_block() {
        let bin = loop_binary();
        let funcs = recover_functions(&bin).unwrap();
        for f in &funcs {
            let mut seen = std::collections::HashSet::new();
            for b in &f.blocks {
                for d in &b.insts {
                    assert!(seen.insert(d.addr), "instruction {:#x} duplicated", d.addr);
                }
            }
        }
    }

    #[test]
    fn hazards_are_detected() {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::Syscall { num: 1 });
        asm.push(Inst::JmpInd {
            target: Operand::reg(Reg::R1),
        });
        let bin = asm.finish_binary("main").unwrap();
        let funcs = recover_functions(&bin).unwrap();
        assert!(funcs[0].has_syscall);
        assert!(funcs[0].has_indirect_flow);
    }

    #[test]
    fn external_calls_are_recorded() {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push_call_ext("pow");
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let funcs = recover_functions(&bin).unwrap();
        assert_eq!(funcs[0].external_calls, vec![0]);
    }

    #[test]
    fn block_lookup_helpers() {
        let bin = loop_binary();
        let funcs = recover_functions(&bin).unwrap();
        let main = &funcs[0];
        let b0 = &main.blocks[0];
        assert!(main.block_starting_at(b0.start).is_some());
        assert!(main.block_containing(b0.start).is_some());
        assert!(main.block_starting_at(0xdead).is_none());
        assert!(main.num_instructions() >= 5);
    }
}
