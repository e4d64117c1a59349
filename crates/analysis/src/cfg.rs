//! Function discovery and control-flow-graph recovery from a stripped binary.
//!
//! Recovery works on instruction *slots*, the numbering `janus_vm::Process`
//! uses: slot `s` is the instruction at `text_base + s * INST_SIZE`. Each
//! slot is decoded at most once per [`recover_functions`] call, and the
//! exploration keeps its visited and leader marks and its block-start index
//! in per-slot tables shared by every function of the binary: a function
//! clears only the slots it touched.

use crate::error::{AnalysisError, Result};
use janus_ir::{decode_at, ControlFlow, DecodedInst, Inst, JBinary, SymbolKind, INST_SIZE};
use std::collections::VecDeque;

/// Index of a basic block within its function's CFG.
pub type BlockId = usize;

const STEP: u64 = INST_SIZE as u64;

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
        self.blocks.iter().find(|b| b.start == addr)
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
/// Returns an error if an instruction the exploration reaches fails to
/// decode, or if control reaches an address inside the text section that is
/// not on an instruction boundary.
pub fn recover_functions(binary: &JBinary) -> Result<Vec<FunctionCfg>> {
    let slots = binary.text().len().div_ceil(INST_SIZE);
    let mut text = Text {
        binary,
        insts: vec![None; slots],
        marks: vec![0; slots],
        block_at: vec![NO_BLOCK; slots],
    };
    let mut roots: Vec<u64> = vec![binary.entry()];
    for sym in binary.symbols() {
        if sym.kind == SymbolKind::Function && !roots.contains(&sym.addr) {
            roots.push(sym.addr);
        }
    }
    let mut discovered = vec![false; slots];
    let mut queue = VecDeque::new();
    for entry in roots {
        if let Some(slot) = text.slot(entry)? {
            discovered[slot] = true;
            queue.push_back(entry);
        }
    }
    let mut functions = Vec::new();
    while let Some(entry) = queue.pop_front() {
        let cfg = text.function(entry)?;
        for &callee in &cfg.callees {
            if let Some(slot) = text.slot(callee)? {
                if !std::mem::replace(&mut discovered[slot], true) {
                    queue.push_back(callee);
                }
            }
        }
        functions.push(cfg);
    }
    Ok(functions)
}

/// `Text::marks` bit: the exploration reached the slot.
const VISITED: u8 = 1;
/// `Text::marks` bit: a block starts at the slot.
const LEADER: u8 = 2;
/// `Text::block_at` of a slot no block starts at.
const NO_BLOCK: u32 = u32::MAX;

/// One binary's text section by slot, with the scratch tables of the
/// function being recovered (clear between functions).
struct Text<'a> {
    binary: &'a JBinary,
    /// Each slot's instruction, decoded on first visit.
    insts: Vec<Option<Inst>>,
    marks: Vec<u8>,
    /// The id of the block starting at each slot.
    block_at: Vec<u32>,
}

impl Text<'_> {
    /// The slot of `addr`: `None` outside the text section, an error inside
    /// it but between instruction boundaries.
    fn slot(&self, addr: u64) -> Result<Option<usize>> {
        if !self.binary.text_contains(addr) {
            return Ok(None);
        }
        let off = addr - self.binary.text_base();
        if off % STEP != 0 {
            return Err(AnalysisError::Decode {
                reason: format!("control reaches {addr:#x}, inside an instruction"),
            });
        }
        Ok(Some((off / STEP) as usize))
    }

    fn addr(&self, slot: usize) -> u64 {
        self.binary.text_base() + slot as u64 * STEP
    }

    fn mark_leader(&mut self, addr: u64) -> Result<()> {
        if let Some(slot) = self.slot(addr)? {
            self.marks[slot] |= LEADER;
        }
        Ok(())
    }

    /// The instruction in a slot the exploration visited.
    fn decoded(&self, slot: usize) -> &Inst {
        self.insts[slot]
            .as_ref()
            .expect("visited slots are decoded")
    }

    /// The block starting at `addr`, once pass 2 has built them.
    fn block_at(&self, addr: u64) -> Option<BlockId> {
        let slot = self.slot(addr).ok().flatten()?;
        (self.block_at[slot] != NO_BLOCK).then_some(self.block_at[slot] as BlockId)
    }

    /// Recovers the CFG of the function whose entry point is `entry`.
    fn function(&mut self, entry: u64) -> Result<FunctionCfg> {
        let binary = self.binary;
        let name = binary
            .symbols()
            .iter()
            .find(|s| s.kind == SymbolKind::Function && s.addr == entry)
            .map(|s| s.name.clone());

        // Pass 1: explore and decode the reachable instructions, marking
        // visited slots and leaders (block start addresses), recording calls
        // and hazards.
        let mut touched: Vec<usize> = Vec::new();
        let mut callees = Vec::new();
        let mut external_calls = Vec::new();
        let mut has_indirect_flow = false;
        let mut has_syscall = false;
        self.mark_leader(entry)?;
        let mut work = vec![entry];
        while let Some(addr) = work.pop() {
            let Some(slot) = self.slot(addr)? else {
                continue;
            };
            if self.marks[slot] & VISITED != 0 {
                continue;
            }
            self.marks[slot] |= VISITED;
            touched.push(slot);
            let inst = match &mut self.insts[slot] {
                Some(inst) => inst,
                empty => empty.insert(decode_at(binary.text_base(), binary.text(), addr)?),
            };
            has_syscall |= matches!(inst, Inst::Syscall { .. });
            let plt = match *inst {
                Inst::CallExt { plt } => Some(plt),
                _ => None,
            };
            let next = addr + STEP;
            match inst.control_flow() {
                ControlFlow::FallThrough => work.push(next),
                ControlFlow::Jump(target) => {
                    self.mark_leader(target)?;
                    work.push(target);
                }
                ControlFlow::Branch(target) => {
                    self.mark_leader(target)?;
                    self.mark_leader(next)?;
                    work.push(target);
                    work.push(next);
                }
                ControlFlow::IndirectJump => {
                    has_indirect_flow = true;
                    // Target unknown: the path ends here for static purposes.
                }
                ControlFlow::Call(target) => {
                    callees.push(target);
                    self.mark_leader(next)?;
                    work.push(next);
                }
                ControlFlow::IndirectCall => {
                    match plt {
                        Some(plt) => external_calls.push(plt),
                        None => has_indirect_flow = true,
                    }
                    self.mark_leader(next)?;
                    work.push(next);
                }
                ControlFlow::Return | ControlFlow::Halt => {}
            }
        }

        // Pass 2: build blocks from the visited slots, in address order. A
        // block starts at a leader or at the first visited instruction after
        // a gap and runs until a terminator, the next leader or the next gap.
        touched.sort_unstable();
        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut i = 0;
        while i < touched.len() {
            let first = touched[i];
            let mut last = first;
            while !self.decoded(last).is_terminator()
                && touched.get(i + 1) == Some(&(last + 1))
                && self.marks[last + 1] & LEADER == 0
            {
                i += 1;
                last += 1;
            }
            i += 1;
            self.block_at[first] = blocks.len() as u32;
            blocks.push(BasicBlock {
                id: blocks.len(),
                start: self.addr(first),
                end: self.addr(last) + STEP,
                insts: (first..=last)
                    .map(|slot| DecodedInst {
                        addr: self.addr(slot),
                        inst: self.decoded(slot).clone(),
                    })
                    .collect(),
                succs: Vec::new(),
                preds: Vec::new(),
            });
        }

        // Pass 3: wire up edges, successors in ascending id order. A call
        // returns to the next instruction; so does a block that was split
        // because the next address is a leader.
        for b in 0..blocks.len() {
            let last = blocks[b].terminator().expect("blocks are not empty");
            let next = last.addr + STEP;
            let targets = match last.inst.control_flow() {
                ControlFlow::FallThrough | ControlFlow::Call(_) | ControlFlow::IndirectCall => {
                    [Some(next), None]
                }
                ControlFlow::Jump(t) => [Some(t), None],
                ControlFlow::Branch(t) => [Some(t), Some(next)],
                ControlFlow::IndirectJump | ControlFlow::Return | ControlFlow::Halt => [None; 2],
            };
            let mut succs: Vec<BlockId> = targets
                .into_iter()
                .filter_map(|t| self.block_at(t?))
                .collect();
            succs.sort_unstable();
            succs.dedup();
            for &s in &succs {
                blocks[s].preds.push(b);
            }
            blocks[b].succs = succs;
        }

        // Ensure the entry block is block 0 (swap if necessary).
        if let Some(entry_id) = self.block_at(entry).filter(|&id| id != 0) {
            let remap = |id: BlockId| match id {
                0 => entry_id,
                id if id == entry_id => 0,
                id => id,
            };
            blocks.swap(0, entry_id);
            for (new_id, b) in blocks.iter_mut().enumerate() {
                b.id = new_id;
                b.succs.iter_mut().for_each(|s| *s = remap(*s));
                b.preds.iter_mut().for_each(|p| *p = remap(*p));
            }
        }

        // Every leader marked was also visited, so this clears every table.
        for &slot in &touched {
            self.marks[slot] = 0;
            self.block_at[slot] = NO_BLOCK;
        }
        Ok(FunctionCfg {
            entry,
            name,
            blocks,
            callees,
            has_indirect_flow,
            has_syscall,
            external_calls,
        })
    }
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
        assert!(main.block_starting_at(0xdead).is_none());
        assert!(main.num_instructions() >= 5);
    }
}
