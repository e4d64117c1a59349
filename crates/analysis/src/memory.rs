//! Symbolic memory-access analysis and range propagation.
//!
//! Every explicit memory access inside a loop is abstracted into an
//! [`AccessPattern`] expressed in terms of the loop's induction variable and
//! loop-invariant base registers. The paper does this by canonicalising each
//! address into a symbolic polynomial over the SSA graph; here the same
//! result is obtained with a per-block symbolic evaluation that tracks how
//! scratch registers are computed from the induction variable (so that the
//! offset copies produced by unrolling, `a[i+1]`, `a[i+2]`, …, are still
//! recognised as affine walks). When the loop's trip count is known, the
//! range of addresses touched by an access can be computed and compared with
//! other accesses — this is the information behind both the static alias
//! analysis and the `MEM_BOUNDS_CHECK` runtime checks of the paper.

use crate::cfg::FunctionCfg;
use crate::induction::{InductionVar, VarRef};
use crate::loops::NaturalLoop;
use janus_ir::{AluOp, Inst, MemRef, Operand, Reg, RegSet};

/// The base object an affine access walks over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressBase {
    /// A statically known data address (a global array).
    Global(u64),
    /// A loop-invariant register holding an array base (e.g. a pointer
    /// parameter); its value is unknown statically.
    Reg(Reg),
}

/// The per-iteration addressing behaviour of one memory access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// `base + induction * scale + offset` — a strided array walk.
    Affine {
        /// Base object.
        base: AddressBase,
        /// Stride in bytes per induction-variable increment.
        scale: i64,
        /// Constant byte offset from the base.
        offset: i64,
    },
    /// The same address every iteration (scalar in memory, e.g. a reduction
    /// accumulator or a read-only operand).
    Invariant {
        /// Base object.
        base: AddressBase,
        /// Constant byte offset from the base.
        offset: i64,
    },
    /// A stack slot relative to the frame pointer (a named local variable).
    StackSlot {
        /// Frame-pointer-relative offset.
        offset: i64,
    },
    /// A transient stack-pointer-relative access used to stage call arguments
    /// or materialise constants; always written and consumed within a single
    /// iteration, so it never carries a dependence.
    Spill,
    /// The access could not be expressed in terms of the induction variable
    /// and loop-invariant bases.
    Unknown,
}

/// One memory access within a loop.
#[derive(Debug, Clone, PartialEq)]
pub struct MemAccess {
    /// Address of the accessing instruction.
    pub addr: u64,
    /// `true` for stores, `false` for loads.
    pub is_write: bool,
    /// The raw memory operand.
    pub mem: MemRef,
    /// Bytes transferred.
    pub width: u64,
    /// The recognised addressing pattern.
    pub pattern: AccessPattern,
}

impl MemAccess {
    /// The address range `[lo, hi)` touched over the whole loop, when it can
    /// be bounded statically. `trip_count` is the loop's trip count and
    /// `step` the induction step.
    #[must_use]
    pub fn static_range(&self, trip_count: Option<u64>, step: i64) -> Option<(u64, u64)> {
        match self.pattern {
            AccessPattern::Affine {
                base: AddressBase::Global(g),
                scale,
                offset,
            } => {
                let trips = trip_count?;
                let start = g as i64 + offset;
                let span = (trips as i64 - 1).max(0) * scale * step;
                let (lo, hi) = if span >= 0 {
                    (start, start + span)
                } else {
                    (start + span, start)
                };
                Some((lo as u64, (hi + self.width as i64) as u64))
            }
            AccessPattern::Invariant {
                base: AddressBase::Global(g),
                offset,
            } => {
                let lo = (g as i64 + offset) as u64;
                Some((lo, lo + self.width))
            }
            _ => None,
        }
    }
}

/// Registers written anywhere inside the loop.
pub(crate) fn written_regs(func: &FunctionCfg, nl: &NaturalLoop) -> RegSet {
    nl.blocks
        .iter()
        .flat_map(|&bid| &func.blocks[bid].insts)
        .fold(RegSet::EMPTY, |written, d| written | d.inst.writes())
}

/// The symbolic value of a general-purpose register at one program point,
/// relative to the loop's induction variable.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SymVal {
    /// `coeff * induction + constant`.
    Lin {
        /// Multiplier of the induction variable.
        coeff: i64,
        /// Constant term.
        konst: i64,
    },
    /// `value(base) + constant` where `base` is loop-invariant.
    InvariantPlus {
        /// The invariant register.
        base: Reg,
        /// Constant term.
        konst: i64,
    },
    /// Anything else.
    Unknown,
}

/// The induction variable itself.
const INDUCTION: SymVal = SymVal::Lin { coeff: 1, konst: 0 };

/// The symbolic value of every register, indexed by [`Reg::raw`].
type SymState = [SymVal; 32];

/// Register values at the top of a block: the induction register is the
/// induction variable, a loop-invariant register other than the stack and
/// frame pointers is itself, anything else is unknown.
fn entry_state(ind_reg: Option<Reg>, invariant: RegSet) -> SymState {
    let mut state = [SymVal::Unknown; 32];
    for r in invariant
        .without(RegSet::from(Reg::FP) | RegSet::from(Reg::SP))
        .iter()
    {
        state[usize::from(r.raw())] = SymVal::InvariantPlus { base: r, konst: 0 };
    }
    if let Some(ind) = ind_reg {
        state[usize::from(ind.raw())] = INDUCTION;
    }
    state
}

/// Collects and classifies every explicit memory access inside a loop.
#[must_use]
pub fn collect_accesses(
    func: &FunctionCfg,
    nl: &NaturalLoop,
    induction: Option<&InductionVar>,
) -> Vec<MemAccess> {
    let ind_reg = induction.and_then(|iv| match iv.var {
        VarRef::Reg(r) => Some(r),
        _ => None,
    });
    let invariant = RegSet::all().without(written_regs(func, nl));
    let entry = entry_state(ind_reg, invariant);
    let mut out = Vec::new();
    for &bid in &nl.blocks {
        // Per-block symbolic state for scratch registers.
        let mut state = entry;
        for d in &func.blocks[bid].insts {
            // Classify memory operands using the state *before* this
            // instruction updates it.
            if !matches!(
                d.inst,
                Inst::Push { .. } | Inst::Pop { .. } | Inst::Call { .. } | Inst::Ret
            ) {
                let width = d.inst.access_width().max(8);
                if let Some(m) = d.inst.mem_read() {
                    out.push(MemAccess {
                        addr: d.addr,
                        is_write: false,
                        mem: m,
                        width,
                        pattern: pattern_with_state(&m, &state),
                    });
                }
                if let Some(m) = d.inst.mem_write() {
                    out.push(MemAccess {
                        addr: d.addr,
                        is_write: true,
                        mem: m,
                        width,
                        pattern: pattern_with_state(&m, &state),
                    });
                }
            }
            step_symbolic_state(&d.inst, ind_reg, &mut state);
        }
    }
    out
}

fn step_symbolic_state(inst: &Inst, ind_reg: Option<Reg>, state: &mut SymState) {
    let resolve = |state: &SymState, r: Reg| state[usize::from(r.raw())];
    match inst {
        Inst::Mov {
            dst: Operand::Reg(d),
            src,
        } if d.is_gpr() => {
            let v = match src {
                Operand::Imm(v) => SymVal::Lin {
                    coeff: 0,
                    konst: *v,
                },
                Operand::Reg(s) if s.is_gpr() => resolve(state, *s),
                _ => SymVal::Unknown,
            };
            state[usize::from(d.raw())] = v;
        }
        Inst::Lea { dst, mem } if dst.is_gpr() => {
            // lea dst, [base + index*scale + disp]
            let mut val = SymVal::Lin {
                coeff: 0,
                konst: mem.disp,
            };
            if let Some(b) = mem.base {
                val = sym_add(val, resolve(state, b));
            }
            if let Some(i) = mem.index {
                val = sym_add(val, sym_mul(resolve(state, i), i64::from(mem.scale)));
            }
            state[usize::from(dst.raw())] = val;
        }
        Inst::Alu {
            op,
            dst: Operand::Reg(d),
            src,
        } if d.is_gpr() => {
            let cur = resolve(state, *d);
            let rhs = match src {
                Operand::Imm(v) => Some(SymVal::Lin {
                    coeff: 0,
                    konst: *v,
                }),
                Operand::Reg(s) if s.is_gpr() => Some(resolve(state, *s)),
                _ => None,
            };
            let new = match (op, rhs) {
                (AluOp::Add, Some(r)) => sym_add(cur, r),
                (AluOp::Sub, Some(r)) => sym_add(cur, sym_mul(r, -1)),
                (AluOp::Mul, Some(SymVal::Lin { coeff: 0, konst })) => sym_mul(cur, konst),
                (AluOp::Shl, Some(SymVal::Lin { coeff: 0, konst })) if (0..63).contains(&konst) => {
                    sym_mul(cur, 1i64 << konst)
                }
                _ => SymVal::Unknown,
            };
            state[usize::from(d.raw())] = new;
        }
        _ => {
            for w in inst.writes().iter() {
                if w.is_gpr() {
                    state[usize::from(w.raw())] = SymVal::Unknown;
                }
            }
        }
    }
    // Uses of the induction register always see the canonical induction
    // value, even after `ind += step` (offset copies within one iteration
    // are what matter for addressing).
    if let Some(ind) = ind_reg {
        state[usize::from(ind.raw())] = INDUCTION;
    }
}

fn sym_add(a: SymVal, b: SymVal) -> SymVal {
    match (a, b) {
        (
            SymVal::Lin {
                coeff: c1,
                konst: k1,
            },
            SymVal::Lin {
                coeff: c2,
                konst: k2,
            },
        ) => SymVal::Lin {
            coeff: c1 + c2,
            konst: k1 + k2,
        },
        (SymVal::InvariantPlus { base, konst }, SymVal::Lin { coeff: 0, konst: k })
        | (SymVal::Lin { coeff: 0, konst: k }, SymVal::InvariantPlus { base, konst }) => {
            SymVal::InvariantPlus {
                base,
                konst: konst + k,
            }
        }
        _ => SymVal::Unknown,
    }
}

fn sym_mul(a: SymVal, m: i64) -> SymVal {
    match a {
        SymVal::Lin { coeff, konst } => SymVal::Lin {
            coeff: coeff * m,
            konst: konst * m,
        },
        _ => SymVal::Unknown,
    }
}

/// Classifies one memory operand using the current symbolic register state.
fn pattern_with_state(m: &MemRef, state: &SymState) -> AccessPattern {
    // Stack accesses are classified structurally.
    if m.base == Some(Reg::SP) && m.index.is_none() {
        return AccessPattern::Spill;
    }
    if (m.base == Some(Reg::FP) || m.base == Some(Reg::SP)) && m.index.is_none() {
        return AccessPattern::StackSlot { offset: m.disp };
    }
    if m.base == Some(Reg::FP) && m.index.is_some() {
        return AccessPattern::Unknown;
    }

    // Accumulate the address as base? + coeff*induction + constant.
    let mut base_reg: Option<Reg> = None;
    let mut coeff: i64 = 0;
    let mut konst: i64 = m.disp;
    let mut unknown = false;

    let mut absorb = |r: Reg, mult: i64| match state[usize::from(r.raw())] {
        SymVal::Lin { coeff: c, konst: k } => {
            coeff += c * mult;
            konst += k * mult;
        }
        SymVal::InvariantPlus { base, konst: k } => {
            if mult != 1 || base_reg.is_some() {
                unknown = true;
            } else {
                base_reg = Some(base);
                konst += k;
            }
        }
        SymVal::Unknown => unknown = true,
    };

    if let Some(b) = m.base {
        if b == Reg::FP || b == Reg::SP {
            return AccessPattern::Unknown;
        }
        absorb(b, 1);
    }
    if let Some(i) = m.index {
        absorb(i, i64::from(m.scale));
    }
    if unknown {
        return AccessPattern::Unknown;
    }
    let base = match base_reg {
        Some(r) => AddressBase::Reg(r),
        None => AddressBase::Global(konst as u64),
    };
    let offset = match base {
        AddressBase::Global(_) => 0,
        AddressBase::Reg(_) => konst,
    };
    if coeff == 0 {
        AccessPattern::Invariant { base, offset }
    } else {
        AccessPattern::Affine {
            base,
            scale: coeff,
            offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_ir::{MemRef, Operand};

    fn inv(regs: &[Reg]) -> RegSet {
        regs.iter().copied().collect()
    }

    /// Classifies one memory operand from a block's entry state, with no
    /// scratch registers derived yet.
    fn classify_pattern(m: &MemRef, induction: Option<Reg>, invariant: RegSet) -> AccessPattern {
        pattern_with_state(m, &entry_state(induction, invariant))
    }

    #[test]
    fn global_affine_access() {
        let m = MemRef {
            base: None,
            index: Some(Reg::R4),
            scale: 8,
            disp: 0x600100,
        };
        let p = classify_pattern(&m, Some(Reg::R4), inv(&[]));
        assert_eq!(
            p,
            AccessPattern::Affine {
                base: AddressBase::Global(0x600100),
                scale: 8,
                offset: 0
            }
        );
    }

    #[test]
    fn pointer_affine_access() {
        let m = MemRef::base_index(Reg::R8, Reg::R4, 8).with_disp(16);
        let p = classify_pattern(&m, Some(Reg::R4), inv(&[Reg::R8]));
        assert_eq!(
            p,
            AccessPattern::Affine {
                base: AddressBase::Reg(Reg::R8),
                scale: 8,
                offset: 16
            }
        );
    }

    #[test]
    fn stack_slot_spill_and_invariant_accesses() {
        let m = MemRef::base_disp(Reg::FP, -24);
        assert_eq!(
            classify_pattern(&m, Some(Reg::R4), inv(&[])),
            AccessPattern::StackSlot { offset: -24 }
        );
        let m = MemRef::base_disp(Reg::SP, 0);
        assert_eq!(
            classify_pattern(&m, Some(Reg::R4), inv(&[])),
            AccessPattern::Spill
        );
        let m = MemRef::absolute(0x600040);
        assert_eq!(
            classify_pattern(&m, Some(Reg::R4), inv(&[])),
            AccessPattern::Invariant {
                base: AddressBase::Global(0x600040),
                offset: 0
            }
        );
        let m = MemRef::base_disp(Reg::R9, 8);
        assert_eq!(
            classify_pattern(&m, Some(Reg::R4), inv(&[Reg::R9])),
            AccessPattern::Invariant {
                base: AddressBase::Reg(Reg::R9),
                offset: 8
            }
        );
    }

    #[test]
    fn non_invariant_index_is_unknown() {
        // a[b[i]] style indirect access: index register is written in the loop
        // and not derived from the induction variable.
        let m = MemRef {
            base: None,
            index: Some(Reg::R5),
            scale: 8,
            disp: 0x600000,
        };
        assert_eq!(
            classify_pattern(&m, Some(Reg::R4), inv(&[])),
            AccessPattern::Unknown
        );
    }

    #[test]
    fn scratch_register_derived_from_induction_is_affine() {
        // mov r10, r4 ; sub r10, 1 ; mov ..., [0x600000 + r10*8]
        use crate::cfg::recover_functions;
        use crate::dom::Dominators;
        use crate::induction::find_induction;
        use crate::loops::find_loops;
        use janus_ir::{AsmBuilder, Cond};

        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::mov(Operand::reg(Reg::R4), Operand::imm(1)));
        asm.label("loop");
        asm.push(Inst::mov(Operand::reg(Reg::R10), Operand::reg(Reg::R4)));
        asm.push(Inst::alu(
            AluOp::Sub,
            Operand::reg(Reg::R10),
            Operand::imm(1),
        ));
        asm.push(Inst::mov(
            Operand::reg(Reg::R11),
            Operand::mem(MemRef {
                base: None,
                index: Some(Reg::R10),
                scale: 8,
                disp: 0x600000,
            }),
        ));
        asm.push(Inst::mov(
            Operand::mem(MemRef {
                base: None,
                index: Some(Reg::R4),
                scale: 8,
                disp: 0x600000,
            }),
            Operand::reg(Reg::R11),
        ));
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R4),
            Operand::imm(1),
        ));
        asm.push(Inst::cmp(Operand::reg(Reg::R4), Operand::imm(64)));
        asm.push_branch(Cond::Lt, "loop");
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let f = recover_functions(&bin).unwrap().remove(0);
        let doms = Dominators::compute(&f);
        let loops = find_loops(&f, &doms);
        let iv = find_induction(&f, &loops[0]).unwrap();
        let accesses = collect_accesses(&f, &loops[0], Some(&iv));
        let read = accesses.iter().find(|a| !a.is_write).unwrap();
        assert_eq!(
            read.pattern,
            AccessPattern::Affine {
                base: AddressBase::Global(0x600000 - 8),
                scale: 8,
                offset: 0
            },
            "a[i-1] is an affine walk starting 8 bytes below the array base"
        );
    }

    #[test]
    fn static_range_of_affine_access() {
        let acc = MemAccess {
            addr: 0x400100,
            is_write: true,
            mem: MemRef::absolute(0),
            width: 8,
            pattern: AccessPattern::Affine {
                base: AddressBase::Global(0x600000),
                scale: 8,
                offset: 0,
            },
        };
        let (lo, hi) = acc.static_range(Some(100), 1).unwrap();
        assert_eq!(lo, 0x600000);
        assert_eq!(hi, 0x600000 + 99 * 8 + 8);
        assert!(acc.static_range(None, 1).is_none());

        let inv_acc = MemAccess {
            pattern: AccessPattern::Invariant {
                base: AddressBase::Global(0x600800),
                offset: 0,
            },
            ..acc
        };
        assert_eq!(inv_acc.static_range(Some(5), 1), Some((0x600800, 0x600808)));
    }

    #[test]
    fn vector_access_width_is_respected() {
        let _ = Operand::imm(0);
        let acc = MemAccess {
            addr: 0,
            is_write: false,
            mem: MemRef::absolute(0x600000),
            width: 32,
            pattern: AccessPattern::Affine {
                base: AddressBase::Global(0x600000),
                scale: 8,
                offset: 0,
            },
        };
        let (_, hi) = acc.static_range(Some(4), 4).unwrap();
        // last iteration starts at 0x600000 + 3*4*8 and touches 32 bytes.
        assert_eq!(hi, 0x600000 + 96 + 32);
    }
}
