//! Property-based tests for the JVA instruction encoding and the JBin
//! container: any instruction the generators can produce must survive an
//! encode/decode round trip, and any binary must survive serialisation.

use janus_ir::{
    decode, encode, AluOp, AsmBuilder, Cond, FpuOp, Inst, JBinary, MemRef, Operand, Reg, INST_SIZE,
};
use proptest::prelude::*;

fn arb_gpr() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg::gpr)
}

fn arb_vreg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg::vreg)
}

fn arb_scale() -> impl Strategy<Value = u8> {
    prop_oneof![Just(1u8), Just(2), Just(4), Just(8)]
}

fn arb_memref() -> impl Strategy<Value = MemRef> {
    (
        proptest::option::of(arb_gpr()),
        proptest::option::of(arb_gpr()),
        arb_scale(),
        -0x7fff_ffff_ffffi64..0x7fff_ffff_ffff,
    )
        .prop_map(|(base, index, scale, disp)| MemRef {
            base,
            index,
            scale,
            disp,
        })
}

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        arb_gpr().prop_map(Operand::Reg),
        arb_vreg().prop_map(Operand::Reg),
        any::<i64>().prop_map(Operand::Imm),
        arb_memref().prop_map(Operand::Mem),
    ]
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::Div),
        Just(AluOp::Rem),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Shr),
        Just(AluOp::Sar),
    ]
}

fn arb_fpu_op() -> impl Strategy<Value = FpuOp> {
    prop_oneof![
        Just(FpuOp::Add),
        Just(FpuOp::Sub),
        Just(FpuOp::Mul),
        Just(FpuOp::Div),
        Just(FpuOp::Min),
        Just(FpuOp::Max),
        Just(FpuOp::Sqrt),
    ]
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Eq),
        Just(Cond::Ne),
        Just(Cond::Lt),
        Just(Cond::Le),
        Just(Cond::Gt),
        Just(Cond::Ge),
        Just(Cond::Below),
        Just(Cond::AboveEq),
    ]
}

fn arb_lanes() -> impl Strategy<Value = u8> {
    prop_oneof![Just(2u8), Just(4u8)]
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        Just(Inst::Nop),
        Just(Inst::Halt),
        Just(Inst::Ret),
        (arb_operand(), arb_operand()).prop_map(|(dst, src)| Inst::Mov { dst, src }),
        (arb_gpr(), arb_memref()).prop_map(|(dst, mem)| Inst::Lea { dst, mem }),
        (arb_alu_op(), arb_operand(), arb_operand()).prop_map(|(op, dst, src)| Inst::Alu {
            op,
            dst,
            src
        }),
        (arb_operand(), arb_operand()).prop_map(|(dst, src)| Inst::FMov { dst, src }),
        (arb_fpu_op(), arb_operand(), arb_operand()).prop_map(|(op, dst, src)| Inst::Fpu {
            op,
            dst,
            src
        }),
        (arb_operand(), arb_operand(), arb_lanes()).prop_map(|(dst, src, lanes)| Inst::VMov {
            dst,
            src,
            lanes
        }),
        (arb_fpu_op(), arb_vreg(), arb_operand(), arb_lanes()).prop_map(|(op, dst, src, lanes)| {
            Inst::Vec {
                op,
                dst,
                src,
                lanes,
            }
        }),
        (arb_vreg(), arb_operand()).prop_map(|(dst, src)| Inst::CvtIntToFloat { dst, src }),
        (arb_gpr(), arb_operand()).prop_map(|(dst, src)| Inst::CvtFloatToInt { dst, src }),
        (arb_operand(), arb_operand()).prop_map(|(lhs, rhs)| Inst::Cmp { lhs, rhs }),
        (arb_operand(), arb_operand()).prop_map(|(lhs, rhs)| Inst::FCmp { lhs, rhs }),
        (arb_operand(), arb_operand()).prop_map(|(lhs, rhs)| Inst::Test { lhs, rhs }),
        (arb_cond(), arb_gpr(), arb_operand()).prop_map(|(cond, dst, src)| Inst::CMov {
            cond,
            dst,
            src
        }),
        any::<u32>().prop_map(|t| Inst::Jmp {
            target: u64::from(t)
        }),
        (arb_cond(), any::<u32>()).prop_map(|(cond, t)| Inst::Jcc {
            cond,
            target: u64::from(t)
        }),
        arb_operand().prop_map(|target| Inst::JmpInd { target }),
        any::<u32>().prop_map(|t| Inst::Call {
            target: u64::from(t)
        }),
        arb_operand().prop_map(|target| Inst::CallInd { target }),
        any::<u16>().prop_map(|plt| Inst::CallExt {
            plt: u32::from(plt)
        }),
        arb_operand().prop_map(|src| Inst::Push { src }),
        arb_operand().prop_map(|dst| Inst::Pop { dst }),
        (0u32..6).prop_map(|num| Inst::Syscall { num }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_instruction_round_trips_through_the_encoder(inst in arb_inst()) {
        let bytes = encode(&inst);
        prop_assert_eq!(bytes.len(), INST_SIZE);
        let decoded = decode(0x40_0000, &bytes).expect("generated instructions always decode");
        prop_assert_eq!(decoded, inst);
    }

    #[test]
    fn decoding_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), INST_SIZE)) {
        // Arbitrary byte patterns either decode to some instruction or return
        // an error; they must never panic.
        let _ = decode(0x40_0000, &bytes);
    }

    #[test]
    fn reads_and_writes_never_report_invalid_registers(inst in arb_inst()) {
        for r in inst.reads().iter().chain(inst.writes().iter()) {
            prop_assert!(Reg::from_raw(r.raw()).is_some());
        }
    }

    #[test]
    fn binaries_round_trip_through_serialisation(
        insts in proptest::collection::vec(arb_inst(), 1..40),
        data in proptest::collection::vec(any::<u8>(), 0..128),
        plt_names in proptest::collection::vec("[a-z]{1,8}", 0..4),
        strip in any::<bool>(),
    ) {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        let _ = asm.data_object("blob", &data);
        for inst in &insts {
            // Branch targets of generated instructions may point anywhere;
            // that is fine for container round-tripping.
            asm.push(inst.clone());
        }
        asm.push(Inst::Halt);
        for name in &plt_names {
            asm.plt_index(name.clone());
        }
        let mut bin = asm.finish_binary("main").expect("assembles");
        if strip {
            bin.strip();
        }
        let bytes = bin.to_bytes();
        let back = JBinary::from_bytes(&bytes).expect("deserialises");
        prop_assert_eq!(back, bin);
    }
}
