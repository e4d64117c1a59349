//! Cross-iteration dependence analysis, reduction recognition and
//! bounds-check generation.

use crate::cfg::FunctionCfg;
use crate::induction::{InductionVar, VarRef};
use crate::liveness::Liveness;
use crate::loops::NaturalLoop;
use crate::memory::{written_regs, AccessPattern, AddressBase, MemAccess};
use janus_ir::{AluOp, FpuOp, Inst, Operand, Reg};
use std::collections::BTreeMap;

/// Two statically-addressed (global) affine walks whose base addresses differ
/// by at most this many bytes are treated as the *same* array accessed at a
/// shifted index (`a[i]` vs `a[i-1]`); larger separations are different
/// objects. Real binaries resolve this through section/symbol extents; the
/// threshold plays that role here.
const SAME_ARRAY_NEIGHBOUR_THRESHOLD: i64 = 256;

/// The kind of a cross-iteration dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependenceKind {
    /// Read-after-write across iterations (true dependence).
    ReadAfterWrite,
    /// Write-after-read across iterations (anti dependence).
    WriteAfterRead,
    /// Write-after-write across iterations (output dependence).
    WriteAfterWrite,
    /// A loop-carried scalar (register or stack) value.
    Scalar,
}

/// One discovered cross-iteration dependence.
#[derive(Debug, Clone, PartialEq)]
pub struct Dependence {
    /// Kind of dependence.
    pub kind: DependenceKind,
    /// Instruction address of the source access.
    pub from_addr: u64,
    /// Instruction address of the sink access.
    pub to_addr: u64,
    /// Byte distance between the two address expressions, when meaningful.
    pub distance: Option<i64>,
}

/// The reduction operation recognised on an accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionOp {
    /// Integer or floating-point addition.
    Add,
    /// Integer or floating-point subtraction.
    Sub,
}

/// A recognised reduction variable (register, stack slot or global scalar
/// accumulated with `+=` / `-=`).
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    /// Where the accumulator lives.
    pub var: VarRef,
    /// The accumulate operation.
    pub op: ReductionOp,
    /// Addresses of the accumulate instructions.
    pub addrs: Vec<u64>,
    /// `true` for floating-point accumulation.
    pub is_float: bool,
}

/// One side of a runtime array-bounds check: the base object and the stride
/// with which the loop walks it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaseExtent {
    /// The array base.
    pub base: AddressBase,
    /// Stride in bytes per iteration.
    pub scale: i64,
    /// Constant byte offset from the base.
    pub offset: i64,
    /// Access width in bytes.
    pub width: u64,
}

/// A pair of array walks whose independence must be verified at runtime
/// (the paper's `MEM_BOUNDS_CHECK`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundsCheckPair {
    /// The written range.
    pub write: BaseExtent,
    /// The other (read or written) range.
    pub other: BaseExtent,
}

/// The complete result of dependence analysis over one loop.
#[derive(Debug, Clone, Default)]
pub struct DependenceResult {
    /// Proved cross-iteration dependences.
    pub dependences: Vec<Dependence>,
    /// Recognised reductions (these do *not* count as dependences).
    pub reductions: Vec<Reduction>,
    /// Array pairs that need runtime bounds checks.
    pub bounds_checks: Vec<BoundsCheckPair>,
    /// Loop-carried scalar registers (excluding induction and reductions).
    pub scalar_carried: Vec<Reg>,
    /// Stack slots that are only read inside the loop (redirected to the main
    /// stack by `MEM_MAIN_STACK` when parallelised).
    pub read_only_stack_slots: Vec<i64>,
    /// Stack slots written in a way that carries a dependence.
    pub carried_stack_slots: Vec<i64>,
    /// `true` if some access could not be analysed at all.
    pub has_unknown_access: bool,
}

fn effective_offset(base: &AddressBase, offset: i64) -> i64 {
    match base {
        AddressBase::Global(g) => *g as i64 + offset,
        AddressBase::Reg(_) => offset,
    }
}

fn same_base(a: &AddressBase, b: &AddressBase) -> bool {
    match (a, b) {
        (AddressBase::Reg(x), AddressBase::Reg(y)) => x == y,
        (AddressBase::Global(_), AddressBase::Global(_)) => true,
        _ => false,
    }
}

fn base_extent(pattern: &AccessPattern, width: u64) -> Option<BaseExtent> {
    match pattern {
        AccessPattern::Affine {
            base,
            scale,
            offset,
        } => Some(BaseExtent {
            base: *base,
            scale: *scale,
            offset: *offset,
            width,
        }),
        AccessPattern::Invariant { base, offset } => Some(BaseExtent {
            base: *base,
            scale: 0,
            offset: *offset,
            width,
        }),
        _ => None,
    }
}

/// Analyses all cross-iteration dependences of one loop.
#[must_use]
pub fn analyze_dependences(
    func: &FunctionCfg,
    nl: &NaturalLoop,
    induction: Option<&InductionVar>,
    accesses: &[MemAccess],
    live: &Liveness,
) -> DependenceResult {
    let mut result = DependenceResult::default();
    let trip = induction.and_then(|iv| iv.trip_count);
    let step = induction.map_or(1, |iv| iv.step);

    result.has_unknown_access = accesses
        .iter()
        .any(|a| matches!(a.pattern, AccessPattern::Unknown));

    analyze_memory_pairs(accesses, trip, step, &mut result);
    analyze_stack_slots(func, nl, accesses, &mut result);
    analyze_scalars(func, nl, induction, live, &mut result);
    dedup_bounds_checks(&mut result);
    result
}

fn analyze_memory_pairs(
    accesses: &[MemAccess],
    trip: Option<u64>,
    step: i64,
    result: &mut DependenceResult,
) {
    let writes: Vec<&MemAccess> = accesses.iter().filter(|a| a.is_write).collect();
    for w in &writes {
        for o in accesses {
            if std::ptr::eq(*w, o) {
                continue;
            }
            // Only write/any pairs matter; stack slots are handled separately
            // and spill traffic never carries a dependence.
            if matches!(
                w.pattern,
                AccessPattern::StackSlot { .. } | AccessPattern::Spill | AccessPattern::Unknown
            ) || matches!(
                o.pattern,
                AccessPattern::StackSlot { .. } | AccessPattern::Spill | AccessPattern::Unknown
            ) {
                continue;
            }
            let kind = if o.is_write {
                DependenceKind::WriteAfterWrite
            } else {
                DependenceKind::ReadAfterWrite
            };
            match (&w.pattern, &o.pattern) {
                (
                    AccessPattern::Affine {
                        base: wb,
                        scale: ws,
                        offset: wo,
                    },
                    AccessPattern::Affine {
                        base: ob,
                        scale: os,
                        offset: oo,
                    },
                ) => {
                    let delta = effective_offset(wb, *wo) - effective_offset(ob, *oo);
                    if same_base(wb, ob) && delta == 0 && ws == os {
                        // Same element every iteration: intra-iteration only.
                        continue;
                    }
                    // Decide whether the two walks touch the same object.
                    let same_object = match (wb, ob) {
                        (AddressBase::Reg(x), AddressBase::Reg(y)) if x == y => Some(true),
                        (AddressBase::Global(_), AddressBase::Global(_)) => {
                            if delta.abs() <= SAME_ARRAY_NEIGHBOUR_THRESHOLD {
                                // A shifted index into the same array.
                                Some(true)
                            } else if let (Some(rw), Some(ro)) =
                                (w.static_range(trip, step), o.static_range(trip, step))
                            {
                                Some(ranges_overlap(rw, ro))
                            } else {
                                // Distinct static bases with unknown extents:
                                // resolved by a runtime bounds check.
                                None
                            }
                        }
                        _ => None,
                    };
                    match same_object {
                        Some(true) => {
                            // Addresses collide in *different* iterations only
                            // when their offset difference is a non-zero
                            // multiple of the per-iteration stride.
                            let stride = (ws * step).abs().max(1);
                            let collides = if ws != os {
                                true // differing strides: be conservative
                            } else {
                                delta != 0 && delta.abs() % stride == 0
                            };
                            if collides {
                                result.dependences.push(Dependence {
                                    kind,
                                    from_addr: w.addr,
                                    to_addr: o.addr,
                                    distance: Some(delta),
                                });
                            }
                            // Otherwise the unrolled copies interleave but
                            // never touch the same address across iterations.
                        }
                        Some(false) => {}
                        None => {
                            if let (Some(a), Some(b)) = (
                                base_extent(&w.pattern, w.width),
                                base_extent(&o.pattern, o.width),
                            ) {
                                result
                                    .bounds_checks
                                    .push(BoundsCheckPair { write: a, other: b });
                            }
                        }
                    }
                }
                (
                    AccessPattern::Affine { base: wb, .. },
                    AccessPattern::Invariant { base: ob, .. },
                )
                | (
                    AccessPattern::Invariant { base: wb, .. },
                    AccessPattern::Affine { base: ob, .. },
                ) => {
                    // A strided walk against a fixed location: check overlap
                    // statically when possible, otherwise require a runtime
                    // check if the bases cannot be proved distinct.
                    let disjoint = match (w.static_range(trip, step), o.static_range(trip, step)) {
                        (Some(rw), Some(ro)) => !ranges_overlap(rw, ro),
                        _ => false,
                    };
                    if disjoint {
                        continue;
                    }
                    if same_base(wb, ob)
                        || matches!(
                            (wb, ob),
                            (AddressBase::Reg(_), _) | (_, AddressBase::Reg(_))
                        )
                    {
                        if let (Some(a), Some(b)) = (
                            base_extent(&w.pattern, w.width),
                            base_extent(&o.pattern, o.width),
                        ) {
                            result
                                .bounds_checks
                                .push(BoundsCheckPair { write: a, other: b });
                        }
                    }
                }
                (
                    AccessPattern::Invariant {
                        base: wb,
                        offset: wo,
                    },
                    AccessPattern::Invariant {
                        base: ob,
                        offset: oo,
                    },
                ) if same_base(wb, ob)
                    && effective_offset(wb, *wo) == effective_offset(ob, *oo) =>
                {
                    // Same scalar location accessed every iteration;
                    // reduction recognition decides whether this is
                    // acceptable (handled in analyze_stack_slots-like
                    // pass below via globals).
                    result.dependences.push(Dependence {
                        kind,
                        from_addr: w.addr,
                        to_addr: o.addr,
                        distance: Some(0),
                    });
                }
                _ => {}
            }
        }
    }
}

fn ranges_overlap(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// Classifies stack-slot usage inside the loop: read-only slots, reduction
/// accumulators and genuinely carried slots, each in ascending offset order.
fn analyze_stack_slots(
    func: &FunctionCfg,
    nl: &NaturalLoop,
    accesses: &[MemAccess],
    result: &mut DependenceResult,
) {
    let mut slots: BTreeMap<i64, (bool, bool)> = BTreeMap::new(); // offset -> (read, written)
    for a in accesses {
        if let AccessPattern::StackSlot { offset } = a.pattern {
            let e = slots.entry(offset).or_insert((false, false));
            if a.is_write {
                e.1 = true;
            } else {
                e.0 = true;
            }
        }
    }
    for (offset, (read, written)) in slots {
        if !written {
            if read {
                result.read_only_stack_slots.push(offset);
            }
            continue;
        }
        // Written: a reduction if every write to this slot is an accumulate
        // (add/sub read-modify-write of the same slot).
        let mut all_accumulate = true;
        let mut addrs = Vec::new();
        let mut op = ReductionOp::Add;
        let mut is_float = false;
        for &bid in &nl.blocks {
            for d in &func.blocks[bid].insts {
                let writes_slot = d
                    .inst
                    .mem_write()
                    .and_then(|m| crate::induction::VarRef::from_memref(&m))
                    .map(|v| v == VarRef::Stack(offset))
                    .unwrap_or(false);
                if !writes_slot {
                    continue;
                }
                match &d.inst {
                    Inst::Alu { op: AluOp::Add, .. } => {
                        addrs.push(d.addr);
                        op = ReductionOp::Add;
                    }
                    Inst::Alu { op: AluOp::Sub, .. } => {
                        addrs.push(d.addr);
                        op = ReductionOp::Sub;
                    }
                    Inst::Fpu { op: FpuOp::Add, .. } => {
                        addrs.push(d.addr);
                        op = ReductionOp::Add;
                        is_float = true;
                    }
                    Inst::Fpu { op: FpuOp::Sub, .. } => {
                        addrs.push(d.addr);
                        op = ReductionOp::Sub;
                        is_float = true;
                    }
                    _ => all_accumulate = false,
                }
            }
        }
        if all_accumulate && !addrs.is_empty() && read {
            result.reductions.push(Reduction {
                var: VarRef::Stack(offset),
                op,
                addrs,
                is_float,
            });
        } else if read {
            result.carried_stack_slots.push(offset);
            result.dependences.push(Dependence {
                kind: DependenceKind::Scalar,
                from_addr: 0,
                to_addr: 0,
                distance: Some(0),
            });
        }
        // Written but never read inside the loop: privatisable, not carried.
    }
}

/// Finds loop-carried scalar registers and register reductions, in register
/// order.
fn analyze_scalars(
    func: &FunctionCfg,
    nl: &NaturalLoop,
    induction: Option<&InductionVar>,
    live: &Liveness,
    result: &mut DependenceResult,
) {
    let induction_reg = induction.and_then(|iv| match iv.var {
        VarRef::Reg(r) => Some(r),
        _ => None,
    });
    // Registers not live into the header are private to one iteration.
    let live_in = live.live_in(nl.header);
    for r in written_regs(func, nl)
        .iter()
        .filter(|&r| live_in.contains(r))
    {
        if r == Reg::SP || r == Reg::FP || Some(r) == induction_reg {
            continue;
        }
        // Candidate loop-carried register: a reduction if all its writes are
        // accumulations of the form `op r, x` (add/sub/fadd/fsub).
        let mut all_accumulate = true;
        let mut addrs = Vec::new();
        let mut op = ReductionOp::Add;
        let mut is_float = false;
        for &bid in &nl.blocks {
            for d in &func.blocks[bid].insts {
                if !d.inst.writes().contains(r) {
                    continue;
                }
                match &d.inst {
                    Inst::Alu {
                        op: aop @ (AluOp::Add | AluOp::Sub),
                        dst: Operand::Reg(dr),
                        ..
                    } if *dr == r => {
                        addrs.push(d.addr);
                        op = if *aop == AluOp::Add {
                            ReductionOp::Add
                        } else {
                            ReductionOp::Sub
                        };
                    }
                    Inst::Fpu {
                        op: fop @ (FpuOp::Add | FpuOp::Sub),
                        dst: Operand::Reg(dr),
                        ..
                    } if *dr == r => {
                        addrs.push(d.addr);
                        op = if *fop == FpuOp::Add {
                            ReductionOp::Add
                        } else {
                            ReductionOp::Sub
                        };
                        is_float = true;
                    }
                    _ => all_accumulate = false,
                }
            }
        }
        if all_accumulate && !addrs.is_empty() {
            result.reductions.push(Reduction {
                var: VarRef::Reg(r),
                op,
                addrs,
                is_float,
            });
        } else {
            result.scalar_carried.push(r);
            result.dependences.push(Dependence {
                kind: DependenceKind::Scalar,
                from_addr: 0,
                to_addr: 0,
                distance: None,
            });
        }
    }
}

fn dedup_bounds_checks(result: &mut DependenceResult) {
    let mut seen: Vec<BoundsCheckPair> = Vec::new();
    for p in std::mem::take(&mut result.bounds_checks) {
        let dup = seen.iter().any(|q| {
            (q.write.base == p.write.base && q.other.base == p.other.base)
                || (q.write.base == p.other.base && q.other.base == p.write.base)
        });
        if !dup {
            seen.push(p);
        }
    }
    result.bounds_checks = seen;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AccessPattern;
    use janus_ir::MemRef;

    fn access(pattern: AccessPattern, is_write: bool, addr: u64) -> MemAccess {
        MemAccess {
            addr,
            is_write,
            mem: MemRef::absolute(0),
            width: 8,
            pattern,
        }
    }

    #[test]
    fn disjoint_global_arrays_have_no_dependence() {
        let accesses = vec![
            access(
                AccessPattern::Affine {
                    base: AddressBase::Global(0x600000),
                    scale: 8,
                    offset: 0,
                },
                true,
                0x400100,
            ),
            access(
                AccessPattern::Affine {
                    base: AddressBase::Global(0x700000),
                    scale: 8,
                    offset: 0,
                },
                false,
                0x400120,
            ),
        ];
        let mut result = DependenceResult::default();
        analyze_memory_pairs(&accesses, Some(100), 1, &mut result);
        assert!(result.dependences.is_empty());
        assert!(result.bounds_checks.is_empty());
    }

    #[test]
    fn overlapping_global_walk_is_a_static_dependence() {
        // write a[i], read a[i+1] (8 bytes apart, same array).
        let accesses = vec![
            access(
                AccessPattern::Affine {
                    base: AddressBase::Global(0x600000),
                    scale: 8,
                    offset: 0,
                },
                true,
                0x400100,
            ),
            access(
                AccessPattern::Affine {
                    base: AddressBase::Global(0x600008),
                    scale: 8,
                    offset: 0,
                },
                false,
                0x400120,
            ),
        ];
        let mut result = DependenceResult::default();
        analyze_memory_pairs(&accesses, Some(100), 1, &mut result);
        assert_eq!(result.dependences.len(), 1);
        assert_eq!(result.dependences[0].kind, DependenceKind::ReadAfterWrite);
        assert_eq!(result.dependences[0].distance, Some(-8));
    }

    #[test]
    fn same_element_access_is_not_cross_iteration() {
        let accesses = vec![
            access(
                AccessPattern::Affine {
                    base: AddressBase::Global(0x600000),
                    scale: 8,
                    offset: 0,
                },
                true,
                0x400100,
            ),
            access(
                AccessPattern::Affine {
                    base: AddressBase::Global(0x600000),
                    scale: 8,
                    offset: 0,
                },
                false,
                0x400090,
            ),
        ];
        let mut result = DependenceResult::default();
        analyze_memory_pairs(&accesses, Some(100), 1, &mut result);
        assert!(result.dependences.is_empty());
    }

    #[test]
    fn distinct_pointer_bases_need_a_bounds_check() {
        let accesses = vec![
            access(
                AccessPattern::Affine {
                    base: AddressBase::Reg(Reg::R4),
                    scale: 8,
                    offset: 0,
                },
                true,
                0x400100,
            ),
            access(
                AccessPattern::Affine {
                    base: AddressBase::Reg(Reg::R5),
                    scale: 8,
                    offset: 0,
                },
                false,
                0x400120,
            ),
        ];
        let mut result = DependenceResult::default();
        analyze_memory_pairs(&accesses, None, 1, &mut result);
        assert!(result.dependences.is_empty());
        assert_eq!(result.bounds_checks.len(), 1);
        assert_eq!(
            result.bounds_checks[0].write.base,
            AddressBase::Reg(Reg::R4)
        );
    }

    #[test]
    fn duplicate_bounds_checks_are_merged() {
        let w = access(
            AccessPattern::Affine {
                base: AddressBase::Reg(Reg::R4),
                scale: 8,
                offset: 0,
            },
            true,
            0x400100,
        );
        let r1 = access(
            AccessPattern::Affine {
                base: AddressBase::Reg(Reg::R5),
                scale: 8,
                offset: 0,
            },
            false,
            0x400120,
        );
        let r2 = access(
            AccessPattern::Affine {
                base: AddressBase::Reg(Reg::R5),
                scale: 8,
                offset: 8,
            },
            false,
            0x400140,
        );
        let accesses = vec![w, r1, r2];
        let mut result = DependenceResult::default();
        analyze_memory_pairs(&accesses, None, 1, &mut result);
        dedup_bounds_checks(&mut result);
        assert_eq!(result.bounds_checks.len(), 1);
    }

    #[test]
    fn same_pointer_base_with_shifted_offset_is_a_dependence() {
        let accesses = vec![
            access(
                AccessPattern::Affine {
                    base: AddressBase::Reg(Reg::R4),
                    scale: 8,
                    offset: 0,
                },
                true,
                0x400100,
            ),
            access(
                AccessPattern::Affine {
                    base: AddressBase::Reg(Reg::R4),
                    scale: 8,
                    offset: 8,
                },
                false,
                0x400120,
            ),
        ];
        let mut result = DependenceResult::default();
        analyze_memory_pairs(&accesses, None, 1, &mut result);
        assert_eq!(result.dependences.len(), 1);
    }
}
