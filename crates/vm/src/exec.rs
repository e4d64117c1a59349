//! Lowered instructions and the one executor that runs them.
//!
//! [`Op::lower`] resolves one decoded [`Inst`] into an [`Op`]: every operand
//! becomes a register of a known file, an immediate or a memory reference of
//! a known addressing form, with registers as bare file indices, and an
//! instruction whose operands the executor cannot run (an immediate
//! destination, a register of the wrong file, a vector register in an
//! address) is refused. [`exec_op`] executes one lowered op against a CPU
//! context and a [`GuestMemory`] implementation and reports how control flow
//! should continue. It is the only executor: the plain VM, the profiler and
//! every dispatch loop of the dynamic binary modifier step it through
//! [`crate::plan::step_run`], the DBM with its own memory views so that
//! rewritten instructions can be redirected to private storage or a software
//! transaction.
//!
//! The core and its operand accessors are `#[inline(always)]`: every
//! dispatch loop gets its own copy, specialised to its memory view, with no
//! call per retired instruction or per operand — a measured choice, see
//! "Decode once" in `docs/ARCHITECTURE.md`.

use crate::cpu::Cpu;
use crate::error::{Result, VmError};
use crate::memory::GuestMemory;
use janus_ir::{AluOp, Cond, FpuOp, Inst, MemRef, Operand, Reg, RegClass, NUM_GPR, NUM_VREG};

#[cfg(test)]
use crate::cost::cost;

#[cfg(test)]
mod reference;

/// The control-flow outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Execution continues at the next sequential instruction.
    Continue,
    /// Execution continues at the given address.
    Jump(u64),
    /// A call through the PLT; the return address has already been pushed.
    External {
        /// Index into the binary's PLT.
        plt: u32,
    },
    /// A system call must be serviced by the host.
    Syscall {
        /// The system call number.
        num: u32,
    },
    /// The program has terminated.
    Halt,
}

/// Computes the effective address of a memory reference.
///
/// # Panics
///
/// Panics if `m` names a vector register, which no loaded instruction does.
#[must_use]
pub fn effective_addr(cpu: &Cpu, m: &MemRef) -> u64 {
    let mut addr = m.disp;
    if let Some(b) = m.base {
        addr = addr.wrapping_add(cpu.read_gpr(b));
    }
    if let Some(i) = m.index {
        addr = addr.wrapping_add(cpu.read_gpr(i).wrapping_mul(i64::from(m.scale)));
    }
    addr as u64
}

/// A lowered operand: where its value lives, resolved once.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Loc {
    /// General-purpose register `gpr[n]`.
    Gpr(u8),
    /// Lane 0 of vector register `vreg[n]` (all lanes for packed ops).
    Vreg(u8),
    /// An immediate (a float's bit pattern for float reads).
    Imm(i64),
    /// `[disp]`.
    Abs(i64),
    /// `[gpr[base] + disp]`.
    Base { base: u8, disp: i64 },
    /// `[gpr[index] * scale + disp]`.
    Index { index: u8, scale: u8, disp: i64 },
    /// `[gpr[base] + gpr[index] * scale + disp]`.
    BaseIndex {
        base: u8,
        index: u8,
        scale: u8,
        disp: i64,
    },
}

impl Loc {
    fn is_mem(self) -> bool {
        !matches!(self, Loc::Gpr(_) | Loc::Vreg(_) | Loc::Imm(_))
    }
}

/// What a lowered op does; its operands are [`Op`]'s `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Nop,
    Halt,
    /// `a = b`, integer.
    Mov,
    /// `gpr[a] = address of b`.
    Lea,
    /// `a = a op b`, integer; sets flags.
    Alu(AluOp),
    /// `a = b`, scalar float.
    FMov,
    /// `a = a op b`, scalar float.
    Fpu(FpuOp),
    /// `a = b` over this many lanes (at most four).
    VMov(u8),
    /// `vreg[a] = vreg[a] op b` over this many lanes (at most four).
    Vec(FpuOp, u8),
    /// `vreg[a][0] = b as f64`.
    CvtIntToFloat,
    /// `gpr[a] = b as i64`.
    CvtFloatToInt,
    Cmp,
    FCmp,
    Test,
    /// `if cond { gpr[a] = b }`.
    CMov(Cond),
    /// Jump to the immediate `a`.
    Jmp,
    /// Jump to the target `a` holds.
    JmpInd,
    /// Jump to `a` if the condition holds.
    Jcc(Cond),
    /// Push the return address, jump to the immediate `a`.
    Call,
    /// Push the return address, jump to the target `a` holds.
    CallInd,
    /// Push the return address, call PLT entry `a`.
    CallExt,
    Ret,
    Push,
    Pop,
    /// System call number `a`.
    Syscall,
}

/// One instruction slot, lowered once by [`Op::lower`] for [`exec_op`]:
/// what it does and its (at most two) operands with their forms resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op(Form);

/// The shapes that dominate the dynamic mix, spelled out so that they run
/// with no kind match and no operand match beyond an address's form, and
/// the general form for everything else.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(u8)]
enum Form {
    /// `gpr[dst] = gpr[src]`.
    MovRR { dst: u8, src: u8 },
    /// `gpr[dst] = imm`.
    MovRI { dst: u8, imm: i64 },
    /// `gpr[dst] = gpr[dst] op gpr[src]`; sets flags.
    AluRR { op: AluOp, dst: u8, src: u8 },
    /// `gpr[dst] = gpr[dst] op imm`; sets flags.
    AluRI { op: AluOp, dst: u8, imm: i64 },
    /// Compare `gpr[lhs]` with `gpr[rhs]`.
    CmpRR { lhs: u8, rhs: u8 },
    /// Compare `gpr[lhs]` with `imm`.
    CmpRI { lhs: u8, imm: i64 },
    /// `vreg[dst][0] = vreg[dst][0] op vreg[src][0]`.
    FpuVV { op: FpuOp, dst: u8, src: u8 },
    /// `gpr[dst] = [src]`.
    Load { dst: u8, src: Loc },
    /// `[dst] = gpr[src]`.
    Store { dst: Loc, src: u8 },
    /// `vreg[dst][0] = [src]`.
    FLoad { dst: u8, src: Loc },
    /// `[dst] = vreg[src][0]`.
    FStore { dst: Loc, src: u8 },
    /// Push `gpr[src]`.
    PushR { src: u8 },
    /// Pop into `gpr[dst]`.
    PopR { dst: u8 },
    /// Jump to `target` if the condition holds.
    Jcc { cond: Cond, target: u64 },
    /// Any instruction: what it does and its operands.
    Any { kind: Kind, a: Loc, b: Loc },
}

/// The register file an operand is read from or written to.
const GPR: RegClass = RegClass::Gpr;
const VEC: RegClass = RegClass::Vec;

#[inline]
fn reg(r: Reg, class: RegClass) -> std::result::Result<Loc, &'static str> {
    if r.class() != class {
        return Err("a register of the wrong file");
    }
    Ok(match class {
        RegClass::Gpr => Loc::Gpr(r.index()),
        RegClass::Vec => Loc::Vreg(r.index()),
    })
}

#[inline]
fn addr(m: &MemRef) -> std::result::Result<Loc, &'static str> {
    let gpr = |r: Option<Reg>| match r {
        Some(r) if r.class() != GPR => Err("a vector register in an address"),
        r => Ok(r.map(Reg::index)),
    };
    let (scale, disp) = (m.scale, m.disp);
    Ok(match (gpr(m.base)?, gpr(m.index)?) {
        (None, None) => Loc::Abs(disp),
        (Some(base), None) => Loc::Base { base, disp },
        (None, Some(index)) => Loc::Index { index, scale, disp },
        (Some(base), Some(index)) => Loc::BaseIndex {
            base,
            index,
            scale,
            disp,
        },
    })
}

/// An operand that is only read: a register of either file (read across
/// files, as the executor always has), an immediate or memory.
#[inline]
fn src(op: &Operand) -> std::result::Result<Loc, &'static str> {
    match op {
        Operand::Reg(r) => reg(*r, r.class()),
        Operand::Imm(v) => Ok(Loc::Imm(*v)),
        Operand::Mem(m) => addr(m),
    }
}

/// An operand that is written: a register of `class` or memory.
#[inline]
fn dst(op: &Operand, class: RegClass) -> std::result::Result<Loc, &'static str> {
    match op {
        Operand::Reg(r) => reg(*r, class),
        Operand::Imm(_) => Err("an immediate destination"),
        Operand::Mem(m) => addr(m),
    }
}

/// An operand read as whole lanes: a vector register, an immediate or memory.
#[inline]
fn lanes_src(op: &Operand) -> std::result::Result<Loc, &'static str> {
    match op {
        Operand::Reg(r) => reg(*r, VEC),
        _ => src(op),
    }
}

impl Op {
    /// Lowers `inst`, or says why the executor cannot run it: an immediate
    /// destination, a register of the wrong file, a vector register in an
    /// address or more than four lanes into a vector register.
    ///
    /// # Errors
    ///
    /// Returns the reason `inst` does not lower.
    pub fn lower(inst: &Inst) -> std::result::Result<Op, &'static str> {
        let none = Loc::Imm(0);
        let target = |t: u64| Loc::Imm(t as i64);
        let (kind, a, b) = match inst {
            Inst::Nop => (Kind::Nop, none, none),
            Inst::Halt => (Kind::Halt, none, none),
            Inst::Mov { dst: d, src: s } => (Kind::Mov, dst(d, GPR)?, src(s)?),
            Inst::Lea { dst: d, mem } => (Kind::Lea, reg(*d, GPR)?, addr(mem)?),
            Inst::Alu { op, dst: d, src: s } => (Kind::Alu(*op), dst(d, GPR)?, src(s)?),
            Inst::FMov { dst: d, src: s } => (Kind::FMov, dst(d, VEC)?, src(s)?),
            Inst::Fpu { op, dst: d, src: s } => (Kind::Fpu(*op), dst(d, VEC)?, src(s)?),
            Inst::VMov {
                dst: d,
                src: s,
                lanes,
            } => {
                if d.as_reg().is_some() && *lanes > 4 {
                    return Err("more than four lanes");
                }
                // Memory and immediates only ever move four lanes at most.
                let lanes = (*lanes).min(4);
                (Kind::VMov(lanes), dst(d, VEC)?, lanes_src(s)?)
            }
            Inst::Vec {
                op,
                dst: d,
                src: s,
                lanes,
            } => {
                if *lanes > 4 {
                    return Err("more than four lanes");
                }
                (Kind::Vec(*op, *lanes), reg(*d, VEC)?, lanes_src(s)?)
            }
            Inst::CvtIntToFloat { dst: d, src: s } => (Kind::CvtIntToFloat, reg(*d, VEC)?, src(s)?),
            Inst::CvtFloatToInt { dst: d, src: s } => (Kind::CvtFloatToInt, reg(*d, GPR)?, src(s)?),
            Inst::Cmp { lhs, rhs } => (Kind::Cmp, src(lhs)?, src(rhs)?),
            Inst::FCmp { lhs, rhs } => (Kind::FCmp, src(lhs)?, src(rhs)?),
            Inst::Test { lhs, rhs } => (Kind::Test, src(lhs)?, src(rhs)?),
            Inst::CMov {
                cond,
                dst: d,
                src: s,
            } => (Kind::CMov(*cond), reg(*d, GPR)?, src(s)?),
            Inst::Jmp { target: t } => (Kind::Jmp, target(*t), none),
            Inst::Jcc { cond, target: t } => (Kind::Jcc(*cond), target(*t), none),
            Inst::JmpInd { target: t } => (Kind::JmpInd, src(t)?, none),
            Inst::Call { target: t } => (Kind::Call, target(*t), none),
            Inst::CallInd { target: t } => (Kind::CallInd, src(t)?, none),
            Inst::CallExt { plt } => (Kind::CallExt, Loc::Imm(i64::from(*plt)), none),
            Inst::Ret => (Kind::Ret, none, none),
            Inst::Push { src: s } => (Kind::Push, src(s)?, none),
            Inst::Pop { dst: d } => (Kind::Pop, dst(d, GPR)?, none),
            Inst::Syscall { num } => (Kind::Syscall, Loc::Imm(i64::from(*num)), none),
        };
        Ok(Op(match (kind, a, b) {
            (Kind::Mov, Loc::Gpr(dst), Loc::Gpr(src)) => Form::MovRR { dst, src },
            (Kind::Mov, Loc::Gpr(dst), Loc::Imm(imm)) => Form::MovRI { dst, imm },
            (Kind::Alu(op), Loc::Gpr(dst), Loc::Gpr(src)) => Form::AluRR { op, dst, src },
            (Kind::Alu(op), Loc::Gpr(dst), Loc::Imm(imm)) => Form::AluRI { op, dst, imm },
            (Kind::Cmp, Loc::Gpr(lhs), Loc::Gpr(rhs)) => Form::CmpRR { lhs, rhs },
            (Kind::Cmp, Loc::Gpr(lhs), Loc::Imm(imm)) => Form::CmpRI { lhs, imm },
            (Kind::Fpu(op), Loc::Vreg(dst), Loc::Vreg(src)) => Form::FpuVV { op, dst, src },
            (Kind::Mov, Loc::Gpr(dst), src) if src.is_mem() => Form::Load { dst, src },
            (Kind::Mov, dst, Loc::Gpr(src)) if dst.is_mem() => Form::Store { dst, src },
            (Kind::FMov, Loc::Vreg(dst), src) if src.is_mem() => Form::FLoad { dst, src },
            (Kind::FMov, dst, Loc::Vreg(src)) if dst.is_mem() => Form::FStore { dst, src },
            (Kind::Push, Loc::Gpr(src), _) => Form::PushR { src },
            (Kind::Pop, Loc::Gpr(dst), _) => Form::PopR { dst },
            (Kind::Jcc(cond), Loc::Imm(target), _) => Form::Jcc {
                cond,
                target: target as u64,
            },
            (kind, a, b) => Form::Any { kind, a, b },
        }))
    }

    /// Whether this op can transfer control: a straight-line run ends at it.
    pub(crate) fn ends_run(&self) -> bool {
        let kind = match self.0 {
            Form::Jcc { .. } => return true,
            Form::Any { kind, .. } => kind,
            _ => return false,
        };
        matches!(
            kind,
            Kind::Halt
                | Kind::Jmp
                | Kind::JmpInd
                | Kind::Jcc(_)
                | Kind::Call
                | Kind::CallInd
                | Kind::CallExt
                | Kind::Ret
                | Kind::Syscall
        )
    }

    /// Whether this op transfers control to a target only known at run
    /// time: an indirect jump or call, a PLT call or a return.
    #[must_use]
    pub fn is_indirect(&self) -> bool {
        matches!(
            self.0,
            Form::Any {
                kind: Kind::JmpInd | Kind::CallInd | Kind::CallExt | Kind::Ret,
                ..
            }
        )
    }
}

// Register indices come from `Reg::index`, so they are in range; the masks
// below only let the compiler see that, and drop the bounds checks.
const _: () = assert!(NUM_GPR.is_power_of_two() && NUM_VREG.is_power_of_two());

#[inline(always)]
fn gpr(cpu: &Cpu, r: u8) -> i64 {
    cpu.gpr[usize::from(r) % NUM_GPR]
}

#[inline(always)]
fn gpr_mut(cpu: &mut Cpu, r: u8) -> &mut i64 {
    &mut cpu.gpr[usize::from(r) % NUM_GPR]
}

#[inline(always)]
fn vreg_mut(cpu: &mut Cpu, r: u8) -> &mut [f64; 4] {
    &mut cpu.vreg[usize::from(r) % NUM_VREG]
}

/// The address a memory operand names.
#[inline(always)]
fn ea(cpu: &Cpu, loc: Loc) -> u64 {
    let scaled = |index: u8, scale: u8| gpr(cpu, index).wrapping_mul(i64::from(scale));
    (match loc {
        Loc::Abs(disp) => disp,
        Loc::Base { base, disp } => disp.wrapping_add(gpr(cpu, base)),
        Loc::Index { index, scale, disp } => disp.wrapping_add(scaled(index, scale)),
        Loc::BaseIndex {
            base,
            index,
            scale,
            disp,
        } => disp
            .wrapping_add(gpr(cpu, base))
            .wrapping_add(scaled(index, scale)),
        Loc::Gpr(_) | Loc::Vreg(_) | Loc::Imm(_) => unreachable!("not a memory operand"),
    }) as u64
}

#[inline(always)]
fn read_int<M: GuestMemory>(cpu: &Cpu, mem: &mut M, loc: Loc) -> i64 {
    match loc {
        Loc::Gpr(r) => gpr(cpu, r),
        Loc::Vreg(r) => cpu.vreg[usize::from(r) % NUM_VREG][0] as i64,
        Loc::Imm(v) => v,
        _ => mem.read_i64(ea(cpu, loc)),
    }
}

/// `loc` is a general-purpose register or memory ([`Op::lower`]).
#[inline(always)]
fn write_int<M: GuestMemory>(cpu: &mut Cpu, mem: &mut M, loc: Loc, value: i64) {
    match loc {
        Loc::Gpr(r) => *gpr_mut(cpu, r) = value,
        _ => mem.write_i64(ea(cpu, loc), value),
    }
}

#[inline(always)]
fn read_float<M: GuestMemory>(cpu: &Cpu, mem: &mut M, loc: Loc) -> f64 {
    match loc {
        Loc::Vreg(r) => cpu.vreg[usize::from(r) % NUM_VREG][0],
        Loc::Gpr(r) => gpr(cpu, r) as f64,
        Loc::Imm(v) => f64::from_bits(v as u64),
        _ => mem.read_f64(ea(cpu, loc)),
    }
}

/// `loc` is a vector register or memory ([`Op::lower`]).
#[inline(always)]
fn write_float<M: GuestMemory>(cpu: &mut Cpu, mem: &mut M, loc: Loc, value: f64) {
    match loc {
        Loc::Vreg(r) => vreg_mut(cpu, r)[0] = value,
        _ => mem.write_f64(ea(cpu, loc), value),
    }
}

/// `loc` is a vector register, an immediate or memory ([`Op::lower`]).
fn read_lanes<M: GuestMemory>(cpu: &Cpu, mem: &mut M, loc: Loc, lanes: u8) -> [f64; 4] {
    match loc {
        Loc::Vreg(r) => cpu.vreg[usize::from(r) % NUM_VREG],
        Loc::Imm(v) => [f64::from_bits(v as u64); 4],
        _ => {
            let base = ea(cpu, loc);
            let mut out = [0.0; 4];
            for (i, o) in out.iter_mut().enumerate().take(usize::from(lanes)) {
                *o = mem.read_f64(base.wrapping_add(i as u64 * 8));
            }
            out
        }
    }
}

/// `loc` is a vector register or memory, `lanes` at most four
/// ([`Op::lower`]).
fn write_lanes<M: GuestMemory>(cpu: &mut Cpu, mem: &mut M, loc: Loc, value: [f64; 4], lanes: u8) {
    let lanes = usize::from(lanes);
    match loc {
        Loc::Vreg(r) => vreg_mut(cpu, r)[..lanes].copy_from_slice(&value[..lanes]),
        _ => {
            let base = ea(cpu, loc);
            for (i, v) in value.iter().enumerate().take(lanes) {
                mem.write_f64(base.wrapping_add(i as u64 * 8), *v);
            }
        }
    }
}

#[inline(always)]
fn alu_apply(pc: u64, op: AluOp, a: i64, b: i64) -> Result<i64> {
    Ok(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                return Err(VmError::DivisionByZero { pc });
            }
            a.wrapping_div(b)
        }
        AluOp::Rem => {
            if b == 0 {
                return Err(VmError::DivisionByZero { pc });
            }
            a.wrapping_rem(b)
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::Shr => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
        AluOp::Sar => a.wrapping_shr((b & 63) as u32),
    })
}

#[inline(always)]
fn fpu_apply(op: FpuOp, a: f64, b: f64) -> f64 {
    match op {
        FpuOp::Add => a + b,
        FpuOp::Sub => a - b,
        FpuOp::Mul => a * b,
        FpuOp::Div => a / b,
        FpuOp::Min => a.min(b),
        FpuOp::Max => a.max(b),
        FpuOp::Sqrt => b.sqrt(),
    }
}

/// Lowers and executes one instruction at `cpu.pc`, charging its
/// [`cost`]. `next_pc` is the return address a call pushes. The
/// interpreter loops step lowered runs instead ([`crate::plan::step_run`]).
#[cfg(test)]
fn exec_inst<M: GuestMemory>(
    cpu: &mut Cpu,
    mem: &mut M,
    inst: &Inst,
    next_pc: u64,
) -> Result<Effect> {
    let op = Op::lower(inst).map_err(|why| VmError::Load {
        reason: format!("{:#x}: `{inst}`: {why}", cpu.pc),
    })?;
    cpu.cycles += cost(inst);
    cpu.retired += 1;
    exec_op(cpu, mem, &op, cpu.pc, next_pc)
}

/// Executes one lowered op at `pc`. `next_pc` is the address of the
/// instruction that sequentially follows it in the *original* program (the
/// return address of calls). Charging cycles and retirements is the
/// caller's: [`crate::plan::step_run`] charges a whole run at once.
///
/// # Errors
///
/// Returns [`VmError::DivisionByZero`] on division by zero.
#[inline(always)]
pub fn exec_op<M: GuestMemory>(
    cpu: &mut Cpu,
    mem: &mut M,
    op: &Op,
    pc: u64,
    next_pc: u64,
) -> Result<Effect> {
    match op.0 {
        Form::MovRR { dst, src } => *gpr_mut(cpu, dst) = gpr(cpu, src),
        Form::MovRI { dst, imm } => *gpr_mut(cpu, dst) = imm,
        Form::AluRR { op, dst, src } => {
            let r = alu_apply(pc, op, gpr(cpu, dst), gpr(cpu, src))?;
            cpu.flags.set_result(r);
            *gpr_mut(cpu, dst) = r;
        }
        Form::AluRI { op, dst, imm } => {
            let r = alu_apply(pc, op, gpr(cpu, dst), imm)?;
            cpu.flags.set_result(r);
            *gpr_mut(cpu, dst) = r;
        }
        Form::CmpRR { lhs, rhs } => cpu.flags.set_cmp(gpr(cpu, lhs), gpr(cpu, rhs)),
        Form::CmpRI { lhs, imm } => cpu.flags.set_cmp(gpr(cpu, lhs), imm),
        Form::FpuVV { op, dst, src } => {
            let y = cpu.vreg[usize::from(src) % NUM_VREG][0];
            let x = &mut vreg_mut(cpu, dst)[0];
            *x = fpu_apply(op, *x, y);
        }
        Form::Load { dst, src } => {
            let v = mem.read_i64(ea(cpu, src));
            *gpr_mut(cpu, dst) = v;
        }
        Form::Store { dst, src } => mem.write_i64(ea(cpu, dst), gpr(cpu, src)),
        Form::FLoad { dst, src } => {
            let v = mem.read_f64(ea(cpu, src));
            vreg_mut(cpu, dst)[0] = v;
        }
        Form::FStore { dst, src } => {
            let v = cpu.vreg[usize::from(src) % NUM_VREG][0];
            mem.write_f64(ea(cpu, dst), v);
        }
        Form::PushR { src } => {
            let v = gpr(cpu, src);
            push_value(cpu, mem, v);
        }
        Form::PopR { dst } => {
            let v = pop_value(cpu, mem);
            *gpr_mut(cpu, dst) = v;
        }
        Form::Jcc { cond, target } => {
            if cpu.flags.eval(cond) {
                return Ok(Effect::Jump(target));
            }
        }
        Form::Any { kind, a, b } => return exec_any(cpu, mem, kind, a, b, pc, next_pc),
    }
    Ok(Effect::Continue)
}

/// [`exec_op`] of the general form.
#[inline(always)]
fn exec_any<M: GuestMemory>(
    cpu: &mut Cpu,
    mem: &mut M,
    kind: Kind,
    a: Loc,
    b: Loc,
    pc: u64,
    next_pc: u64,
) -> Result<Effect> {
    let index = |loc: Loc| match loc {
        Loc::Gpr(r) | Loc::Vreg(r) => r,
        _ => unreachable!("not a register operand"),
    };
    match kind {
        Kind::Nop => {}
        Kind::Halt => return Ok(Effect::Halt),
        Kind::Mov => {
            let v = read_int(cpu, mem, b);
            write_int(cpu, mem, a, v);
        }
        Kind::Lea => *gpr_mut(cpu, index(a)) = ea(cpu, b) as i64,
        Kind::Alu(alu) => {
            let x = read_int(cpu, mem, a);
            let y = read_int(cpu, mem, b);
            let r = alu_apply(pc, alu, x, y)?;
            cpu.flags.set_result(r);
            write_int(cpu, mem, a, r);
        }
        Kind::FMov => {
            let v = read_float(cpu, mem, b);
            write_float(cpu, mem, a, v);
        }
        Kind::Fpu(fpu) => {
            let x = read_float(cpu, mem, a);
            let y = read_float(cpu, mem, b);
            write_float(cpu, mem, a, fpu_apply(fpu, x, y));
        }
        Kind::VMov(lanes) => {
            let v = read_lanes(cpu, mem, b, lanes);
            write_lanes(cpu, mem, a, v, lanes);
        }
        Kind::Vec(fpu, lanes) => {
            let x = *vreg_mut(cpu, index(a));
            let y = read_lanes(cpu, mem, b, lanes);
            let mut r = x;
            for i in 0..usize::from(lanes) {
                r[i] = fpu_apply(fpu, x[i], y[i]);
            }
            *vreg_mut(cpu, index(a)) = r;
        }
        Kind::CvtIntToFloat => {
            let v = read_int(cpu, mem, b);
            vreg_mut(cpu, index(a))[0] = v as f64;
        }
        Kind::CvtFloatToInt => {
            let v = read_float(cpu, mem, b);
            *gpr_mut(cpu, index(a)) = v as i64;
        }
        Kind::Cmp => {
            let x = read_int(cpu, mem, a);
            let y = read_int(cpu, mem, b);
            cpu.flags.set_cmp(x, y);
        }
        Kind::FCmp => {
            let x = read_float(cpu, mem, a);
            let y = read_float(cpu, mem, b);
            cpu.flags.set_fcmp(x, y);
        }
        Kind::Test => {
            let x = read_int(cpu, mem, a);
            let y = read_int(cpu, mem, b);
            cpu.flags.set_result(x & y);
        }
        Kind::CMov(cond) => {
            if cpu.flags.eval(cond) {
                let v = read_int(cpu, mem, b);
                *gpr_mut(cpu, index(a)) = v;
            }
        }
        Kind::Jmp | Kind::JmpInd => return Ok(Effect::Jump(read_int(cpu, mem, a) as u64)),
        Kind::Jcc(cond) => {
            if cpu.flags.eval(cond) {
                return Ok(Effect::Jump(read_int(cpu, mem, a) as u64));
            }
        }
        Kind::Call | Kind::CallInd => {
            let t = read_int(cpu, mem, a) as u64;
            push_value(cpu, mem, next_pc as i64);
            return Ok(Effect::Jump(t));
        }
        Kind::CallExt => {
            let plt = read_int(cpu, mem, a) as u32;
            push_value(cpu, mem, next_pc as i64);
            return Ok(Effect::External { plt });
        }
        Kind::Ret => return Ok(Effect::Jump(pop_value(cpu, mem) as u64)),
        Kind::Push => {
            let v = read_int(cpu, mem, a);
            push_value(cpu, mem, v);
        }
        Kind::Pop => {
            let v = pop_value(cpu, mem);
            write_int(cpu, mem, a, v);
        }
        Kind::Syscall => {
            let num = read_int(cpu, mem, a) as u32;
            return Ok(Effect::Syscall { num });
        }
    }
    Ok(Effect::Continue)
}

/// Pushes a 64-bit value onto the guest stack.
#[inline(always)]
pub fn push_value<M: GuestMemory>(cpu: &mut Cpu, mem: &mut M, value: i64) {
    let sp = cpu.sp().wrapping_sub(8);
    cpu.set_sp(sp);
    mem.write_i64(sp, value);
}

/// Pops a 64-bit value from the guest stack.
#[inline(always)]
pub fn pop_value<M: GuestMemory>(cpu: &mut Cpu, mem: &mut M) -> i64 {
    let sp = cpu.sp();
    let v = mem.read_i64(sp);
    cpu.set_sp(sp.wrapping_add(8));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::FlatMemory;
    use janus_ir::{Cond, Reg};

    fn ctx() -> (Cpu, FlatMemory) {
        let mut cpu = Cpu::new();
        cpu.set_sp(0x7fff_0000);
        (cpu, FlatMemory::new())
    }

    #[test]
    fn mov_and_alu_register_forms() {
        let (mut cpu, mut mem) = ctx();
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::mov(Operand::reg(Reg::R1), Operand::imm(5)),
            0,
        )
        .unwrap();
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::alu(AluOp::Mul, Operand::reg(Reg::R1), Operand::imm(7)),
            0,
        )
        .unwrap();
        assert_eq!(cpu.read_gpr(Reg::R1), 35);
        assert_eq!(cpu.retired, 2);
        assert!(cpu.cycles >= 2);
    }

    #[test]
    fn memory_operand_read_modify_write() {
        let (mut cpu, mut mem) = ctx();
        mem.write_i64(0x600020, 10);
        cpu.write_gpr(Reg::R2, 0x600000);
        let inst = Inst::alu(
            AluOp::Add,
            Operand::mem(MemRef::base_disp(Reg::R2, 0x20)),
            Operand::imm(32),
        );
        exec_inst(&mut cpu, &mut mem, &inst, 0).unwrap();
        assert_eq!(mem.read_i64(0x600020), 42);
    }

    #[test]
    fn lea_computes_address_without_memory_access() {
        let (mut cpu, mut mem) = ctx();
        cpu.write_gpr(Reg::R3, 0x1000);
        cpu.write_gpr(Reg::R4, 5);
        let loads_before = mem.loads;
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::Lea {
                dst: Reg::R5,
                mem: MemRef::base_index(Reg::R3, Reg::R4, 8).with_disp(16),
            },
            0,
        )
        .unwrap();
        assert_eq!(cpu.read_gpr(Reg::R5), 0x1000 + 40 + 16);
        assert_eq!(mem.loads, loads_before);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let (mut cpu, mut mem) = ctx();
        let err = exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::alu(AluOp::Div, Operand::reg(Reg::R0), Operand::imm(0)),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, VmError::DivisionByZero { .. }));
    }

    #[test]
    fn conditional_jump_follows_flags() {
        let (mut cpu, mut mem) = ctx();
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::cmp(Operand::imm(3), Operand::imm(4)),
            0,
        )
        .unwrap();
        let taken = exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::Jcc {
                cond: Cond::Lt,
                target: 0x400100,
            },
            0,
        )
        .unwrap();
        assert_eq!(taken, Effect::Jump(0x400100));
        let not_taken = exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::Jcc {
                cond: Cond::Gt,
                target: 0x400100,
            },
            0,
        )
        .unwrap();
        assert_eq!(not_taken, Effect::Continue);
    }

    #[test]
    fn call_and_ret_use_the_stack() {
        let (mut cpu, mut mem) = ctx();
        let sp0 = cpu.sp();
        let eff = exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::Call { target: 0x401000 },
            0x400040,
        )
        .unwrap();
        assert_eq!(eff, Effect::Jump(0x401000));
        assert_eq!(cpu.sp(), sp0 - 8);
        assert_eq!(mem.read_u64(cpu.sp()), 0x400040);
        let eff = exec_inst(&mut cpu, &mut mem, &Inst::Ret, 0).unwrap();
        assert_eq!(eff, Effect::Jump(0x400040));
        assert_eq!(cpu.sp(), sp0);
    }

    #[test]
    fn external_call_pushes_return_address() {
        let (mut cpu, mut mem) = ctx();
        let eff = exec_inst(&mut cpu, &mut mem, &Inst::CallExt { plt: 2 }, 0x400080).unwrap();
        assert_eq!(eff, Effect::External { plt: 2 });
        assert_eq!(mem.read_u64(cpu.sp()), 0x400080);
    }

    #[test]
    fn indirect_jump_reads_target_from_register_or_memory() {
        let (mut cpu, mut mem) = ctx();
        cpu.write_gpr(Reg::R9, 0x400200);
        let eff = exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::JmpInd {
                target: Operand::reg(Reg::R9),
            },
            0,
        )
        .unwrap();
        assert_eq!(eff, Effect::Jump(0x400200));

        mem.write_u64(0x600100, 0x400300);
        let eff = exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::CallInd {
                target: Operand::mem(MemRef::absolute(0x600100)),
            },
            0x400084,
        )
        .unwrap();
        assert_eq!(eff, Effect::Jump(0x400300));
    }

    #[test]
    fn float_and_vector_operations() {
        let (mut cpu, mut mem) = ctx();
        cpu.write_f64(Reg::V0, 2.0);
        cpu.write_f64(Reg::V1, 8.0);
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::fpu(FpuOp::Mul, Operand::reg(Reg::V0), Operand::reg(Reg::V1)),
            0,
        )
        .unwrap();
        assert_eq!(cpu.read_f64(Reg::V0), 16.0);

        // sqrt uses the source operand.
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::fpu(FpuOp::Sqrt, Operand::reg(Reg::V0), Operand::reg(Reg::V0)),
            0,
        )
        .unwrap();
        assert_eq!(cpu.read_f64(Reg::V0), 4.0);

        // Packed: load 4 lanes from memory, add, store back.
        for i in 0..4 {
            mem.write_f64(0x600000 + i * 8, i as f64);
        }
        cpu.write_gpr(Reg::R2, 0x600000);
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::VMov {
                dst: Operand::reg(Reg::V2),
                src: Operand::mem(MemRef::base(Reg::R2)),
                lanes: 4,
            },
            0,
        )
        .unwrap();
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::Vec {
                op: FpuOp::Add,
                dst: Reg::V2,
                src: Operand::reg(Reg::V2),
                lanes: 4,
            },
            0,
        )
        .unwrap();
        assert_eq!(cpu.vreg[2], [0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn conversions_between_int_and_float() {
        let (mut cpu, mut mem) = ctx();
        cpu.write_gpr(Reg::R1, 7);
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::CvtIntToFloat {
                dst: Reg::V3,
                src: Operand::reg(Reg::R1),
            },
            0,
        )
        .unwrap();
        assert_eq!(cpu.read_f64(Reg::V3), 7.0);
        cpu.write_f64(Reg::V4, -2.9);
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::CvtFloatToInt {
                dst: Reg::R2,
                src: Operand::reg(Reg::V4),
            },
            0,
        )
        .unwrap();
        assert_eq!(cpu.read_gpr(Reg::R2), -2);
    }

    #[test]
    fn cmov_only_moves_when_condition_holds() {
        let (mut cpu, mut mem) = ctx();
        cpu.write_gpr(Reg::R1, 1);
        cpu.write_gpr(Reg::R2, 99);
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::cmp(Operand::imm(1), Operand::imm(2)),
            0,
        )
        .unwrap();
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::CMov {
                cond: Cond::Gt,
                dst: Reg::R1,
                src: Operand::reg(Reg::R2),
            },
            0,
        )
        .unwrap();
        assert_eq!(cpu.read_gpr(Reg::R1), 1, "condition false: no move");
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::CMov {
                cond: Cond::Lt,
                dst: Reg::R1,
                src: Operand::reg(Reg::R2),
            },
            0,
        )
        .unwrap();
        assert_eq!(cpu.read_gpr(Reg::R1), 99);
    }

    #[test]
    fn push_pop_round_trip() {
        let (mut cpu, mut mem) = ctx();
        cpu.write_gpr(Reg::R1, 1234);
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::Push {
                src: Operand::reg(Reg::R1),
            },
            0,
        )
        .unwrap();
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::Pop {
                dst: Operand::reg(Reg::R2),
            },
            0,
        )
        .unwrap();
        assert_eq!(cpu.read_gpr(Reg::R2), 1234);
    }

    #[test]
    fn syscall_and_halt_effects() {
        let (mut cpu, mut mem) = ctx();
        assert_eq!(
            exec_inst(&mut cpu, &mut mem, &Inst::Syscall { num: 1 }, 0).unwrap(),
            Effect::Syscall { num: 1 }
        );
        assert_eq!(
            exec_inst(&mut cpu, &mut mem, &Inst::Halt, 0).unwrap(),
            Effect::Halt
        );
    }
}

/// Lower + [`exec_op`] against the executor over `Inst` it replaced
/// (`reference`), over every instruction variant and operand form that
/// lowers, random registers and flags, and memory words where the operands
/// point.
#[cfg(test)]
mod equivalence {
    use super::*;
    use crate::memory::FlatMemory;
    use janus_ir::INST_SIZE;
    use proptest::prelude::*;

    /// A splitmix64 stream: every choice below is drawn from it.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, options: &[T]) -> T {
            options[self.below(options.len() as u64) as usize]
        }

        fn reg(&mut self) -> Reg {
            Reg::from_raw(self.below(32) as u8).expect("32 registers")
        }

        /// Mostly the data window, sometimes anywhere.
        fn value(&mut self) -> i64 {
            match self.below(4) {
                0 => self.next() as i64,
                1 => self.below(64) as i64 - 8,
                _ => (DATA + 8 * self.below(32)) as i64,
            }
        }

        fn mem(&mut self) -> MemRef {
            let reg = |d: &mut Draw| {
                let r = d.reg();
                d.pick(&[None, Some(r)])
            };
            MemRef {
                base: reg(self),
                index: reg(self),
                scale: self.pick(&[1, 2, 4, 8]),
                disp: {
                    let v = self.value();
                    self.pick(&[0, 8, -8, 16, DATA as i64, v])
                },
            }
        }

        fn operand(&mut self) -> Operand {
            match self.below(3) {
                0 => Operand::Reg(self.reg()),
                1 => Operand::Imm(self.value()),
                _ => Operand::Mem(self.mem()),
            }
        }

        fn inst(&mut self) -> Inst {
            let alu = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::Mul,
                AluOp::Div,
                AluOp::Rem,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Shl,
                AluOp::Shr,
                AluOp::Sar,
            ];
            let fpu = [
                FpuOp::Add,
                FpuOp::Sub,
                FpuOp::Mul,
                FpuOp::Div,
                FpuOp::Min,
                FpuOp::Max,
                FpuOp::Sqrt,
            ];
            let cond = [
                Cond::Eq,
                Cond::Ne,
                Cond::Lt,
                Cond::Le,
                Cond::Gt,
                Cond::Ge,
                Cond::Below,
                Cond::AboveEq,
            ];
            let (dst, src) = (self.operand(), self.operand());
            let lanes = self.pick(&[0, 1, 2, 3, 4, 5, 8]);
            let target = self.value() as u64;
            match self.below(25) {
                0 => Inst::Nop,
                1 => Inst::Halt,
                2 => Inst::Mov { dst, src },
                3 => Inst::Lea {
                    dst: self.reg(),
                    mem: self.mem(),
                },
                4 => Inst::Alu {
                    op: self.pick(&alu),
                    dst,
                    src,
                },
                5 => Inst::FMov { dst, src },
                6 => Inst::Fpu {
                    op: self.pick(&fpu),
                    dst,
                    src,
                },
                7 => Inst::VMov { dst, src, lanes },
                8 => Inst::Vec {
                    op: self.pick(&fpu),
                    dst: self.reg(),
                    src,
                    lanes,
                },
                9 => Inst::CvtIntToFloat {
                    dst: self.reg(),
                    src,
                },
                10 => Inst::CvtFloatToInt {
                    dst: self.reg(),
                    src,
                },
                11 => Inst::Cmp { lhs: dst, rhs: src },
                12 => Inst::FCmp { lhs: dst, rhs: src },
                13 => Inst::Test { lhs: dst, rhs: src },
                14 => Inst::CMov {
                    cond: self.pick(&cond),
                    dst: self.reg(),
                    src,
                },
                15 => Inst::Jmp { target },
                16 => Inst::Jcc {
                    cond: self.pick(&cond),
                    target,
                },
                17 => Inst::JmpInd { target: src },
                18 => Inst::Call { target },
                19 => Inst::CallInd { target: src },
                20 => Inst::CallExt {
                    plt: self.below(8) as u32,
                },
                21 => Inst::Ret,
                22 => Inst::Push { src },
                23 => Inst::Pop { dst },
                _ => Inst::Syscall {
                    num: self.below(8) as u32,
                },
            }
        }
    }

    /// Where the drawn addresses mostly point.
    const DATA: u64 = 0x60_0000;

    /// Everything the executor can change, floats as bits.
    fn state(cpu: &Cpu, mem: &FlatMemory) -> impl PartialEq + std::fmt::Debug {
        let bits = |v: &[f64; 4]| v.map(f64::to_bits);
        (
            cpu.gpr,
            cpu.vreg.iter().map(bits).collect::<Vec<_>>(),
            cpu.flags,
            (cpu.pc, cpu.cycles, cpu.retired),
            (mem.image_digest(), mem.loads, mem.stores),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn lowered_ops_execute_as_the_reference(seed in any::<u64>()) {
            let mut draw = Draw(seed);
            let mut cpu = Cpu::new();
            for r in 0..16 {
                cpu.gpr[r] = draw.value();
            }
            for v in &mut cpu.vreg {
                *v = [0; 4].map(|_| draw.value() as f64 / 3.0);
            }
            cpu.flags.set_cmp(draw.value(), draw.value());
            cpu.pc = 0x40_0000 + INST_SIZE as u64 * draw.below(64);
            let mut mem = FlatMemory::new();
            for i in 0..40 {
                mem.write_i64(DATA - 64 + 8 * i, draw.value());
            }
            let mut lowered = 0;
            for _ in 0..32 {
                let inst = draw.inst();
                if Op::lower(&inst).is_err() {
                    continue;
                }
                lowered += 1;
                let next_pc = cpu.pc + INST_SIZE as u64;
                let cost = cost(&inst);
                let (mut old_cpu, mut old_mem) = (cpu.clone(), mem.clone());
                let old = reference::exec_inst_costed(&mut old_cpu, &mut old_mem, &inst, cost, next_pc);
                let new = exec_inst(&mut cpu, &mut mem, &inst, next_pc);
                prop_assert_eq!(&new, &old, "{}", inst);
                prop_assert_eq!(state(&cpu, &mem), state(&old_cpu, &old_mem), "{}", inst);
            }
            prop_assert!(lowered > 0);
        }
    }

    #[test]
    fn only_runtime_targets_are_indirect() {
        let r1 = Operand::reg(Reg::R1);
        let target = Operand::imm(0x40_0040);
        let indirect = [
            Inst::JmpInd { target },
            Inst::JmpInd { target: r1 },
            Inst::CallInd { target },
            Inst::CallExt { plt: 0 },
            Inst::Ret,
        ];
        let direct = [
            Inst::Jmp { target: 0x40_0040 },
            Inst::Call { target: 0x40_0040 },
            Inst::Jcc {
                cond: Cond::Eq,
                target: 0x40_0040,
            },
            Inst::Syscall { num: 0 },
            Inst::mov(r1, target),
        ];
        for inst in indirect {
            let op = Op::lower(&inst).unwrap();
            assert!(op.is_indirect() && op.ends_run(), "{inst}");
        }
        for inst in direct {
            assert!(!Op::lower(&inst).unwrap().is_indirect(), "{inst}");
        }
    }

    #[test]
    fn an_op_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 40);
    }

    #[test]
    fn every_kind_of_op_is_drawn() {
        use std::mem::discriminant;
        let mut draw = Draw(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            if let Ok(op) = Op::lower(&draw.inst()) {
                let form = std::mem::discriminant(&op.0);
                match op.0 {
                    Form::Any { kind, a, .. } => {
                        seen.insert((form, Some((discriminant(&kind), discriminant(&a)))))
                    }
                    _ => seen.insert((form, None)),
                };
            }
        }
        // 25 kinds by first operand form, the operand-less ones with only a
        // placeholder, plus the fourteen specialised forms.
        assert!(seen.len() > 80, "{} forms", seen.len());
    }
}
