//! Property-based tests of the guest machine: memory round trips, flag
//! semantics against a reference model, and ALU execution against native
//! Rust arithmetic.

use janus_ir::{AluOp, Cond, Inst, Operand, Reg};
use janus_vm::{exec_op, Cpu, Effect, FlatMemory, GuestMemory, Op};
use proptest::prelude::*;

/// Lowers one well-typed instruction and executes it at `cpu.pc`.
fn exec_inst(
    cpu: &mut Cpu,
    mem: &mut FlatMemory,
    inst: &Inst,
    next_pc: u64,
) -> janus_vm::Result<Effect> {
    let op = Op::lower(inst).expect("the generated instructions are well typed");
    let pc = cpu.pc;
    exec_op(cpu, mem, &op, pc, next_pc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memory_round_trips_arbitrary_words(addr in 0u64..0x7fff_0000, value in any::<u64>()) {
        let mut mem = FlatMemory::new();
        mem.write_u64(addr, value);
        prop_assert_eq!(mem.read_u64(addr), value);
        // Neighbouring, untouched words still read as zero.
        prop_assert_eq!(mem.read_u64(addr + 4096), 0);
    }

    #[test]
    fn byte_writes_compose_into_words(addr in 0u64..0x1000_0000, bytes in proptest::array::uniform8(any::<u8>())) {
        let mut mem = FlatMemory::new();
        for (i, b) in bytes.iter().enumerate() {
            mem.write_u8(addr + i as u64, *b);
        }
        prop_assert_eq!(mem.read_u64(addr), u64::from_le_bytes(bytes));
    }

    #[test]
    fn compare_and_branch_agree_with_native_comparison(a in any::<i64>(), b in any::<i64>()) {
        let mut cpu = Cpu::new();
        cpu.set_sp(0x7fff_0000);
        let mut mem = FlatMemory::new();
        cpu.write_gpr(Reg::R1, a);
        cpu.write_gpr(Reg::R2, b);
        exec_inst(
            &mut cpu,
            &mut mem,
            &Inst::cmp(Operand::reg(Reg::R1), Operand::reg(Reg::R2)),
            0,
        )
        .unwrap();
        prop_assert_eq!(cpu.flags.eval(Cond::Eq), a == b);
        prop_assert_eq!(cpu.flags.eval(Cond::Ne), a != b);
        prop_assert_eq!(cpu.flags.eval(Cond::Lt), a < b);
        prop_assert_eq!(cpu.flags.eval(Cond::Le), a <= b);
        prop_assert_eq!(cpu.flags.eval(Cond::Gt), a > b);
        prop_assert_eq!(cpu.flags.eval(Cond::Ge), a >= b);
        prop_assert_eq!(cpu.flags.eval(Cond::Below), (a as u64) < (b as u64));
        prop_assert_eq!(cpu.flags.eval(Cond::AboveEq), (a as u64) >= (b as u64));
    }

    #[test]
    fn alu_execution_matches_reference_arithmetic(a in any::<i64>(), b in any::<i64>()) {
        let cases: Vec<(AluOp, Option<i64>)> = vec![
            (AluOp::Add, Some(a.wrapping_add(b))),
            (AluOp::Sub, Some(a.wrapping_sub(b))),
            (AluOp::Mul, Some(a.wrapping_mul(b))),
            (AluOp::And, Some(a & b)),
            (AluOp::Or, Some(a | b)),
            (AluOp::Xor, Some(a ^ b)),
            (AluOp::Div, (b != 0).then(|| a.wrapping_div(b))),
            (AluOp::Rem, (b != 0).then(|| a.wrapping_rem(b))),
        ];
        for (op, expected) in cases {
            let mut cpu = Cpu::new();
            cpu.set_sp(0x7fff_0000);
            let mut mem = FlatMemory::new();
            cpu.write_gpr(Reg::R1, a);
            cpu.write_gpr(Reg::R2, b);
            let result = exec_inst(
                &mut cpu,
                &mut mem,
                &Inst::alu(op, Operand::reg(Reg::R1), Operand::reg(Reg::R2)),
                0,
            );
            match expected {
                Some(v) => {
                    prop_assert!(result.is_ok());
                    prop_assert_eq!(cpu.read_gpr(Reg::R1), v);
                }
                None => prop_assert!(result.is_err(), "division by zero must error"),
            }
        }
    }

    #[test]
    fn push_pop_is_the_identity(values in proptest::collection::vec(any::<i64>(), 1..16)) {
        let mut cpu = Cpu::new();
        cpu.set_sp(0x7fff_0000);
        let mut mem = FlatMemory::new();
        for v in &values {
            cpu.write_gpr(Reg::R3, *v);
            exec_inst(&mut cpu, &mut mem, &Inst::Push { src: Operand::reg(Reg::R3) }, 0).unwrap();
        }
        for v in values.iter().rev() {
            exec_inst(&mut cpu, &mut mem, &Inst::Pop { dst: Operand::reg(Reg::R4) }, 0).unwrap();
            prop_assert_eq!(cpu.read_gpr(Reg::R4), *v);
        }
        prop_assert_eq!(cpu.sp(), 0x7fff_0000);
    }
}
