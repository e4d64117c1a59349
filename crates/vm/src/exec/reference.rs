//! The executor over decoded `Inst`s that [`super::exec_op`] replaced, kept
//! as the reference the lowered executor is property-tested against (see
//! `tests` in `exec.rs`). It differs from the original only in forming
//! lane addresses with wrapping arithmetic, as a release build always did,
//! so that a debug test over random registers cannot overflow.

use super::{alu_apply, fpu_apply, pop_value, push_value, Effect};
use crate::cpu::Cpu;
use crate::error::Result;
use crate::memory::GuestMemory;
use janus_ir::{Inst, MemRef, Operand, Reg, RegClass};

fn read_vec(cpu: &Cpu, reg: Reg) -> [f64; 4] {
    assert_eq!(reg.class(), RegClass::Vec, "expected a vector register");
    cpu.vreg[reg.index() as usize]
}

fn write_vec(cpu: &mut Cpu, reg: Reg, value: [f64; 4]) {
    assert_eq!(reg.class(), RegClass::Vec, "expected a vector register");
    cpu.vreg[reg.index() as usize] = value;
}

fn effective_addr(cpu: &Cpu, m: &MemRef) -> u64 {
    let mut addr = m.disp;
    if let Some(b) = m.base {
        addr = addr.wrapping_add(cpu.read_gpr(b));
    }
    if let Some(i) = m.index {
        addr = addr.wrapping_add(cpu.read_gpr(i).wrapping_mul(i64::from(m.scale)));
    }
    addr as u64
}

fn read_int<M: GuestMemory>(cpu: &Cpu, mem: &mut M, op: &Operand) -> i64 {
    match op {
        Operand::Reg(r) => match r.class() {
            RegClass::Gpr => cpu.read_gpr(*r),
            RegClass::Vec => cpu.read_f64(*r) as i64,
        },
        Operand::Imm(v) => *v,
        Operand::Mem(m) => mem.read_i64(effective_addr(cpu, m)),
    }
}

fn write_int<M: GuestMemory>(cpu: &mut Cpu, mem: &mut M, op: &Operand, value: i64) {
    match op {
        Operand::Reg(r) => cpu.write_gpr(*r, value),
        Operand::Mem(m) => {
            let addr = effective_addr(cpu, m);
            mem.write_i64(addr, value);
        }
        Operand::Imm(_) => panic!("cannot write to an immediate operand"),
    }
}

fn read_float<M: GuestMemory>(cpu: &Cpu, mem: &mut M, op: &Operand) -> f64 {
    match op {
        Operand::Reg(r) => match r.class() {
            RegClass::Vec => cpu.read_f64(*r),
            RegClass::Gpr => cpu.read_gpr(*r) as f64,
        },
        Operand::Imm(v) => f64::from_bits(*v as u64),
        Operand::Mem(m) => mem.read_f64(effective_addr(cpu, m)),
    }
}

fn write_float<M: GuestMemory>(cpu: &mut Cpu, mem: &mut M, op: &Operand, value: f64) {
    match op {
        Operand::Reg(r) => cpu.write_f64(*r, value),
        Operand::Mem(m) => {
            let addr = effective_addr(cpu, m);
            mem.write_f64(addr, value);
        }
        Operand::Imm(_) => panic!("cannot write to an immediate operand"),
    }
}

fn read_lanes<M: GuestMemory>(cpu: &Cpu, mem: &mut M, op: &Operand, lanes: u8) -> [f64; 4] {
    match op {
        Operand::Reg(r) => read_vec(cpu, *r),
        Operand::Mem(m) => {
            let base = effective_addr(cpu, m);
            let mut out = [0.0; 4];
            for (i, o) in out.iter_mut().enumerate().take(lanes as usize) {
                *o = mem.read_f64(base.wrapping_add((i as u64) * 8));
            }
            out
        }
        Operand::Imm(v) => [f64::from_bits(*v as u64); 4],
    }
}

fn write_lanes<M: GuestMemory>(
    cpu: &mut Cpu,
    mem: &mut M,
    op: &Operand,
    value: [f64; 4],
    lanes: u8,
) {
    match op {
        Operand::Reg(r) => {
            let mut cur = read_vec(cpu, *r);
            cur[..lanes as usize].copy_from_slice(&value[..lanes as usize]);
            write_vec(cpu, *r, cur);
        }
        Operand::Mem(m) => {
            let base = effective_addr(cpu, m);
            for (i, v) in value.iter().enumerate().take(lanes as usize) {
                mem.write_f64(base.wrapping_add((i as u64) * 8), *v);
            }
        }
        Operand::Imm(_) => panic!("cannot write to an immediate operand"),
    }
}

/// Executes one instruction and charges it `cost` cycles.
///
/// `next_pc` is the address of the instruction that sequentially follows
/// `inst` in the *original* program (used as the return address of calls);
/// the caller decides where the instruction physically lives (e.g. in a DBM
/// code cache).
///
/// # Errors
///
/// Returns an error on division by zero.
pub(crate) fn exec_inst_costed<M: GuestMemory>(
    cpu: &mut Cpu,
    mem: &mut M,
    inst: &Inst,
    cost: u64,
    next_pc: u64,
) -> Result<Effect> {
    cpu.cycles += cost;
    cpu.retired += 1;
    let pc = cpu.pc;
    let effect = match inst {
        Inst::Nop => Effect::Continue,
        Inst::Halt => Effect::Halt,
        Inst::Mov { dst, src } => {
            // Integer move unless both sides involve vector registers.
            let value = read_int(cpu, mem, src);
            write_int(cpu, mem, dst, value);
            Effect::Continue
        }
        Inst::Lea { dst, mem: m } => {
            let addr = effective_addr(cpu, m);
            cpu.write_gpr(*dst, addr as i64);
            Effect::Continue
        }
        Inst::Alu { op, dst, src } => {
            let a = read_int(cpu, mem, dst);
            let b = read_int(cpu, mem, src);
            let r = alu_apply(pc, *op, a, b)?;
            cpu.flags.set_result(r);
            write_int(cpu, mem, dst, r);
            Effect::Continue
        }
        Inst::FMov { dst, src } => {
            let v = read_float(cpu, mem, src);
            write_float(cpu, mem, dst, v);
            Effect::Continue
        }
        Inst::Fpu { op, dst, src } => {
            let a = read_float(cpu, mem, dst);
            let b = read_float(cpu, mem, src);
            let r = fpu_apply(*op, a, b);
            write_float(cpu, mem, dst, r);
            Effect::Continue
        }
        Inst::VMov { dst, src, lanes } => {
            let v = read_lanes(cpu, mem, src, *lanes);
            write_lanes(cpu, mem, dst, v, *lanes);
            Effect::Continue
        }
        Inst::Vec {
            op,
            dst,
            src,
            lanes,
        } => {
            let a = read_vec(cpu, *dst);
            let b = read_lanes(cpu, mem, src, *lanes);
            let mut r = a;
            for i in 0..(*lanes as usize) {
                r[i] = fpu_apply(*op, a[i], b[i]);
            }
            write_vec(cpu, *dst, r);
            Effect::Continue
        }
        Inst::CvtIntToFloat { dst, src } => {
            let v = read_int(cpu, mem, src);
            cpu.write_f64(*dst, v as f64);
            Effect::Continue
        }
        Inst::CvtFloatToInt { dst, src } => {
            let v = read_float(cpu, mem, src);
            cpu.write_gpr(*dst, v as i64);
            Effect::Continue
        }
        Inst::Cmp { lhs, rhs } => {
            let a = read_int(cpu, mem, lhs);
            let b = read_int(cpu, mem, rhs);
            cpu.flags.set_cmp(a, b);
            Effect::Continue
        }
        Inst::FCmp { lhs, rhs } => {
            let a = read_float(cpu, mem, lhs);
            let b = read_float(cpu, mem, rhs);
            cpu.flags.set_fcmp(a, b);
            Effect::Continue
        }
        Inst::Test { lhs, rhs } => {
            let a = read_int(cpu, mem, lhs);
            let b = read_int(cpu, mem, rhs);
            cpu.flags.set_result(a & b);
            Effect::Continue
        }
        Inst::CMov { cond, dst, src } => {
            if cpu.flags.eval(*cond) {
                let v = read_int(cpu, mem, src);
                cpu.write_gpr(*dst, v);
            }
            Effect::Continue
        }
        Inst::Jmp { target } => Effect::Jump(*target),
        Inst::Jcc { cond, target } => {
            if cpu.flags.eval(*cond) {
                Effect::Jump(*target)
            } else {
                Effect::Continue
            }
        }
        Inst::JmpInd { target } => {
            let t = read_int(cpu, mem, target) as u64;
            Effect::Jump(t)
        }
        Inst::Call { target } => {
            push_value(cpu, mem, next_pc as i64);
            Effect::Jump(*target)
        }
        Inst::CallInd { target } => {
            let t = read_int(cpu, mem, target) as u64;
            push_value(cpu, mem, next_pc as i64);
            Effect::Jump(t)
        }
        Inst::CallExt { plt } => {
            push_value(cpu, mem, next_pc as i64);
            Effect::External { plt: *plt }
        }
        Inst::Ret => {
            let addr = pop_value(cpu, mem) as u64;
            Effect::Jump(addr)
        }
        Inst::Push { src } => {
            let v = read_int(cpu, mem, src);
            push_value(cpu, mem, v);
            Effect::Continue
        }
        Inst::Pop { dst } => {
            let v = pop_value(cpu, mem);
            write_int(cpu, mem, dst, v);
            Effect::Continue
        }
        Inst::Syscall { num } => Effect::Syscall { num: *num },
    };
    Ok(effect)
}
