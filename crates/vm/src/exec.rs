//! Single-step execution of JVA instructions.
//!
//! [`exec_inst_costed`] executes exactly one instruction against a CPU
//! context and a [`GuestMemory`] implementation and reports how control flow
//! should continue. Both the plain VM and the dynamic binary modifier drive
//! this function; the DBM additionally substitutes its own memory views so
//! that rewritten instructions can be redirected to private storage or a
//! software transaction.
//!
//! The core and its scalar operand accessors are `#[inline(always)]`: every
//! dispatch loop gets its own copy, specialised to its memory view, with no
//! call per retired instruction or per operand — a measured choice, see
//! "Decode once" in `docs/ARCHITECTURE.md`.

use crate::cost::CostModel;
use crate::cpu::Cpu;
use crate::error::{Result, VmError};
use crate::memory::GuestMemory;
use janus_ir::{AluOp, FpuOp, Inst, MemRef, Operand, RegClass};

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
#[must_use]
#[inline(always)]
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

#[inline(always)]
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

#[inline(always)]
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

#[inline(always)]
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

#[inline(always)]
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
        Operand::Reg(r) => cpu.read_vec(*r),
        Operand::Mem(m) => {
            let base = effective_addr(cpu, m);
            let mut out = [0.0; 4];
            for (i, o) in out.iter_mut().enumerate().take(lanes as usize) {
                *o = mem.read_f64(base + (i as u64) * 8);
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
            let mut cur = cpu.read_vec(*r);
            cur[..lanes as usize].copy_from_slice(&value[..lanes as usize]);
            cpu.write_vec(*r, cur);
        }
        Operand::Mem(m) => {
            let base = effective_addr(cpu, m);
            for (i, v) in value.iter().enumerate().take(lanes as usize) {
                mem.write_f64(base + (i as u64) * 8, *v);
            }
        }
        Operand::Imm(_) => panic!("cannot write to an immediate operand"),
    }
}

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

/// [`exec_inst_costed`] with the cost computed on the spot, for one-off
/// instructions and tests; dispatch loops pass [`crate::Process::cost`].
///
/// # Errors
///
/// Returns an error on division by zero.
pub fn exec_inst<M: GuestMemory>(
    cpu: &mut Cpu,
    mem: &mut M,
    inst: &Inst,
    next_pc: u64,
) -> Result<Effect> {
    exec_inst_costed(cpu, mem, inst, CostModel::default().cost(inst), next_pc)
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
#[inline(always)]
pub fn exec_inst_costed<M: GuestMemory>(
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
            let a = cpu.read_vec(*dst);
            let b = read_lanes(cpu, mem, src, *lanes);
            let mut r = a;
            for i in 0..(*lanes as usize) {
                r[i] = fpu_apply(*op, a[i], b[i]);
            }
            cpu.write_vec(*dst, r);
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

/// Pushes a 64-bit value onto the guest stack.
pub fn push_value<M: GuestMemory>(cpu: &mut Cpu, mem: &mut M, value: i64) {
    let sp = cpu.sp().wrapping_sub(8);
    cpu.set_sp(sp);
    mem.write_i64(sp, value);
}

/// Pops a 64-bit value from the guest stack.
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
        assert_eq!(cpu.read_vec(Reg::V2), [0.0, 2.0, 4.0, 6.0]);
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
