//! Induction-variable recognition and loop-bound extraction.
//!
//! The paper identifies a loop's iterator by constructing a cyclic expression
//! through the phi node of the loop header and solving its range from the
//! exit condition. In this reproduction the same result is obtained by
//! pattern analysis over the loop body: the induction variable is the unique
//! storage location that is updated by a constant step on every path around
//! the loop and that controls the back-edge (or exit) comparison.

use crate::cfg::FunctionCfg;
use crate::loops::NaturalLoop;
use janus_ir::{AluOp, Cond, Inst, MemRef, Operand, Reg};

/// A storage location abstracted as a "versioned variable" of the analysis:
/// a register, a stack slot (frame-pointer relative) or an absolute global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarRef {
    /// An architectural register.
    Reg(Reg),
    /// A stack slot at `[fp + offset]`.
    Stack(i64),
    /// An absolute data address.
    Global(u64),
}

impl VarRef {
    /// Builds a `VarRef` from an operand when the operand shape corresponds to
    /// a scalar variable location.
    #[must_use]
    pub fn from_operand(op: &Operand) -> Option<VarRef> {
        match op {
            Operand::Reg(r) => Some(VarRef::Reg(*r)),
            Operand::Mem(m) => VarRef::from_memref(m),
            Operand::Imm(_) => None,
        }
    }

    /// Builds a `VarRef` from a memory reference that denotes a scalar
    /// (stack slot or absolute global), as opposed to an indexed array access.
    #[must_use]
    pub fn from_memref(m: &MemRef) -> Option<VarRef> {
        if m.index.is_some() {
            return None;
        }
        match m.base {
            Some(b) if b == Reg::FP || b == Reg::SP => Some(VarRef::Stack(m.disp)),
            None => Some(VarRef::Global(m.disp as u64)),
            Some(_) => None,
        }
    }
}

/// The bound controlling a loop's back edge.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopBound {
    /// The operand compared against the induction variable.
    pub bound: Operand,
    /// The branch condition under which the loop continues.
    pub continue_cond: Cond,
    /// Address of the comparison instruction.
    pub cmp_addr: u64,
    /// Address of the conditional branch.
    pub branch_addr: u64,
    /// The bound value when it is a compile-time constant.
    pub constant: Option<i64>,
}

/// A recognised induction variable.
#[derive(Debug, Clone, PartialEq)]
pub struct InductionVar {
    /// Where the induction variable lives.
    pub var: VarRef,
    /// The per-iteration step.
    pub step: i64,
    /// Addresses of the update instructions (one per unrolled copy).
    pub update_addrs: Vec<u64>,
    /// The loop bound, when the controlling comparison was recognised.
    pub bound: Option<LoopBound>,
    /// The initial value, when a unique initialisation was found in a
    /// preheader block.
    pub init: Option<Operand>,
    /// Statically known trip count, when the initial value and the bound are
    /// both constants.
    pub trip_count: Option<u64>,
}

/// Attempts to recognise the induction variable of a natural loop.
#[must_use]
pub fn find_induction(func: &FunctionCfg, nl: &NaturalLoop) -> Option<InductionVar> {
    // Step 1: collect candidate updates `var += imm` inside the loop.
    let mut candidates: Vec<(VarRef, i64, u64)> = Vec::new();
    for &bid in &nl.blocks {
        for d in &func.blocks[bid].insts {
            if let Inst::Alu {
                op: op @ (AluOp::Add | AluOp::Sub),
                dst,
                src: Operand::Imm(v),
            } = &d.inst
            {
                if let Some(var) = VarRef::from_operand(dst) {
                    let step = if *op == AluOp::Add { *v } else { -*v };
                    candidates.push((var, step, d.addr));
                }
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }

    // Step 2: find the comparison + conditional branch on a latch block that
    // controls the back edge.
    let mut control: Option<(VarRef, LoopBound)> = None;
    for &latch in &nl.latches {
        let block = &func.blocks[latch];
        let mut last_cmp: Option<(u64, Operand, Operand)> = None;
        for d in &block.insts {
            match &d.inst {
                Inst::Cmp { lhs, rhs } => last_cmp = Some((d.addr, *lhs, *rhs)),
                Inst::Jcc { cond, target } => {
                    let header_addr = func.blocks[nl.header].start;
                    if *target == header_addr {
                        if let Some((cmp_addr, lhs, rhs)) = last_cmp {
                            if let Some(var) = VarRef::from_operand(&lhs) {
                                if candidates.iter().any(|(v, _, _)| *v == var) {
                                    control = Some((
                                        var,
                                        LoopBound {
                                            bound: rhs,
                                            continue_cond: *cond,
                                            cmp_addr,
                                            branch_addr: d.addr,
                                            constant: rhs.as_imm(),
                                        },
                                    ));
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Step 3: also accept header-controlled loops (comparison in the header,
    // exit branch leaving the loop) when no latch control was found.
    if control.is_none() {
        let block = &func.blocks[nl.header];
        let mut last_cmp: Option<(u64, Operand, Operand)> = None;
        for d in &block.insts {
            match &d.inst {
                Inst::Cmp { lhs, rhs } => last_cmp = Some((d.addr, *lhs, *rhs)),
                Inst::Jcc { cond, target } => {
                    let leaves_loop = func
                        .block_starting_at(*target)
                        .map(|b| !nl.contains(b.id))
                        .unwrap_or(true);
                    if leaves_loop {
                        if let Some((cmp_addr, lhs, rhs)) = last_cmp {
                            if let Some(var) = VarRef::from_operand(&lhs) {
                                if candidates.iter().any(|(v, _, _)| *v == var) {
                                    control = Some((
                                        var,
                                        LoopBound {
                                            bound: rhs,
                                            continue_cond: cond.negate(),
                                            cmp_addr,
                                            branch_addr: d.addr,
                                            constant: rhs.as_imm(),
                                        },
                                    ));
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    let (var, bound) = control?;

    // Step 4: sum the per-iteration step over every update of the chosen
    // variable (unrolled loops update it once per copy or once by the full
    // unrolled amount).
    let updates: Vec<(i64, u64)> = candidates
        .iter()
        .filter(|(v, _, _)| *v == var)
        .map(|(_, s, a)| (*s, *a))
        .collect();
    let step: i64 = updates.iter().map(|(s, _)| *s).sum();
    if step == 0 {
        return None;
    }
    let update_addrs = updates.iter().map(|(_, a)| *a).collect();

    // Step 5: look for a unique initialisation in a preheader block. A small
    // constant-propagation pass over the preheader resolves the common
    // compiled pattern `mov rScratch, imm ; mov rVar, rScratch`.
    let mut init: Option<Operand> = None;
    for &ph in &nl.preheaders {
        // The constant each register holds, indexed by `Reg::raw`.
        let mut known_consts: [Option<i64>; 32] = [None; 32];
        for d in &func.blocks[ph].insts {
            if let Inst::Mov { dst, src } = &d.inst {
                if VarRef::from_operand(dst) == Some(var) {
                    init = match src {
                        Operand::Reg(r) => known_consts[usize::from(r.raw())]
                            .map(Operand::Imm)
                            .or(Some(*src)),
                        other => Some(*other),
                    };
                }
                if let Operand::Reg(r) = dst {
                    known_consts[usize::from(r.raw())] = src.as_imm();
                }
            } else {
                for w in d.inst.writes().iter() {
                    known_consts[usize::from(w.raw())] = None;
                }
            }
        }
    }

    let trip_count = match (&init, &bound.constant) {
        (Some(Operand::Imm(start)), Some(end)) => {
            let span = match bound.continue_cond {
                Cond::Lt | Cond::Below | Cond::Ne => end - start,
                Cond::Le => end - start + 1,
                Cond::Gt => start - end,
                Cond::Ge => start - end + 1,
                _ => 0,
            };
            if span > 0 && step != 0 {
                Some(span.unsigned_abs().div_ceil(step.unsigned_abs()))
            } else {
                None
            }
        }
        _ => None,
    };

    Some(InductionVar {
        var,
        step,
        update_addrs,
        bound: Some(bound),
        init,
        trip_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::recover_functions;
    use crate::dom::Dominators;
    use crate::loops::find_loops;
    use janus_ir::AsmBuilder;

    fn analyse_first_loop(bin: &janus_ir::JBinary) -> (FunctionCfg, NaturalLoop) {
        let f = recover_functions(bin).unwrap().remove(0);
        let doms = Dominators::compute(&f);
        let loops = find_loops(&f, &doms);
        let l = loops.into_iter().next().expect("loop exists");
        (f, l)
    }

    #[test]
    fn register_induction_with_constant_bounds() {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::mov(Operand::reg(Reg::R4), Operand::imm(0)));
        asm.label("loop");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R5),
            Operand::reg(Reg::R4),
        ));
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R4),
            Operand::imm(1),
        ));
        asm.push(Inst::cmp(Operand::reg(Reg::R4), Operand::imm(100)));
        asm.push_branch(Cond::Lt, "loop");
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let (f, l) = analyse_first_loop(&bin);
        let iv = find_induction(&f, &l).expect("induction found");
        assert_eq!(iv.var, VarRef::Reg(Reg::R4));
        assert_eq!(iv.step, 1);
        assert_eq!(iv.init, Some(Operand::Imm(0)));
        assert_eq!(iv.trip_count, Some(100));
        assert_eq!(iv.bound.as_ref().unwrap().constant, Some(100));
    }

    #[test]
    fn stack_slot_induction_is_recognised() {
        // O0-style loop: the counter lives at [fp - 8].
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::mov(Operand::reg(Reg::FP), Operand::reg(Reg::SP)));
        asm.push(Inst::mov(
            Operand::mem(MemRef::base_disp(Reg::FP, -8)),
            Operand::imm(0),
        ));
        asm.label("loop");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::mem(MemRef::base_disp(Reg::FP, -8)),
            Operand::imm(2),
        ));
        asm.push(Inst::cmp(
            Operand::mem(MemRef::base_disp(Reg::FP, -8)),
            Operand::imm(50),
        ));
        asm.push_branch(Cond::Lt, "loop");
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let (f, l) = analyse_first_loop(&bin);
        let iv = find_induction(&f, &l).expect("induction found");
        assert_eq!(iv.var, VarRef::Stack(-8));
        assert_eq!(iv.step, 2);
        assert_eq!(iv.trip_count, Some(25));
    }

    #[test]
    fn register_bound_has_no_constant_trip_count() {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::mov(Operand::reg(Reg::R4), Operand::imm(0)));
        asm.label("loop");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R4),
            Operand::imm(1),
        ));
        asm.push(Inst::cmp(Operand::reg(Reg::R4), Operand::reg(Reg::R6)));
        asm.push_branch(Cond::Lt, "loop");
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let (f, l) = analyse_first_loop(&bin);
        let iv = find_induction(&f, &l).expect("induction found");
        assert_eq!(iv.trip_count, None);
        assert_eq!(iv.bound.as_ref().unwrap().bound, Operand::Reg(Reg::R6));
    }

    #[test]
    fn pointer_chasing_loop_has_no_induction() {
        // while (p != 0) p = *p;  — no constant-step update exists.
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.label("loop");
        asm.push(Inst::mov(
            Operand::reg(Reg::R1),
            Operand::mem(MemRef::base(Reg::R1)),
        ));
        asm.push(Inst::Test {
            lhs: Operand::reg(Reg::R1),
            rhs: Operand::reg(Reg::R1),
        });
        asm.push_branch(Cond::Ne, "loop");
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let (f, l) = analyse_first_loop(&bin);
        assert!(find_induction(&f, &l).is_none());
    }

    #[test]
    fn varref_from_operand_shapes() {
        assert_eq!(
            VarRef::from_operand(&Operand::reg(Reg::R3)),
            Some(VarRef::Reg(Reg::R3))
        );
        assert_eq!(
            VarRef::from_operand(&Operand::mem(MemRef::base_disp(Reg::FP, -16))),
            Some(VarRef::Stack(-16))
        );
        assert_eq!(
            VarRef::from_operand(&Operand::mem(MemRef::absolute(0x600008))),
            Some(VarRef::Global(0x600008))
        );
        assert_eq!(
            VarRef::from_operand(&Operand::mem(MemRef::base_index(Reg::R1, Reg::R2, 8))),
            None
        );
        assert_eq!(VarRef::from_operand(&Operand::imm(3)), None);
    }
}
