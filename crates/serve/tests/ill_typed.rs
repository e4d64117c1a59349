//! Ill-typed instructions are a load error, never a host panic.
//!
//! Each guest below is a checksum-valid binary — it assembles, encodes and
//! decodes — holding one instruction whose operands the executor cannot run:
//! an immediate destination, a register of the wrong file, or a vector
//! register used in an address. `Process::load` refuses it with a typed
//! `VmError::Load` naming its address, reachable or not, so the plain
//! interpreter, the whole pipeline and a serving session each report an
//! error, and the session goes on serving the next well-formed job.

use janus_core::Janus;
use janus_ir::{AsmBuilder, FpuOp, Inst, JBinary, MemRef, Operand, Reg, SyscallNum};
use janus_serve::{JobSpec, ServeConfig, ServeSession};
use janus_vm::{Process, VmError};
use std::sync::Arc;

/// `main: <bad>; halt`, round-tripped through its byte encoding. Returns the
/// binary and the address of the bad instruction.
fn guest(bad: Inst) -> (JBinary, u64) {
    let mut asm = AsmBuilder::new();
    asm.function("main");
    asm.push(bad);
    asm.push(Inst::Halt);
    let binary = asm.finish_binary("main").expect("assembles");
    let entry = binary.entry();
    let binary = JBinary::from_bytes(&binary.to_bytes()).expect("round-trips");
    (binary, entry)
}

fn ill_typed() -> Vec<(&'static str, Inst)> {
    vec![
        ("mov imm, imm", Inst::mov(Operand::imm(1), Operand::imm(2))),
        (
            "pop imm",
            Inst::Pop {
                dst: Operand::imm(3),
            },
        ),
        (
            "lea v0, [r1]",
            Inst::Lea {
                dst: Reg::V0,
                mem: MemRef::base(Reg::R1),
            },
        ),
        (
            "cvtf2i v0, v1",
            Inst::CvtFloatToInt {
                dst: Reg::V0,
                src: Operand::reg(Reg::V1),
            },
        ),
        (
            "vec.add r0, v1",
            Inst::Vec {
                op: FpuOp::Add,
                dst: Reg::R0,
                src: Operand::reg(Reg::V1),
                lanes: 4,
            },
        ),
        (
            "mov r0, [v3]",
            Inst::mov(Operand::reg(Reg::R0), Operand::mem(MemRef::base(Reg::V3))),
        ),
    ]
}

/// A well-formed guest that prints 42.
fn well_formed() -> JBinary {
    let mut asm = AsmBuilder::new();
    asm.function("main");
    asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(42)));
    asm.push(Inst::Syscall {
        num: SyscallNum::WriteInt.as_u32(),
    });
    asm.push(Inst::Halt);
    asm.finish_binary("main").expect("assembles")
}

#[test]
fn process_load_names_the_ill_typed_instruction() {
    for (what, inst) in ill_typed() {
        let (binary, addr) = guest(inst);
        match Process::load(&binary) {
            Err(VmError::Load { reason }) => assert!(
                reason.contains(&format!("{addr:#x}")),
                "{what}: reason `{reason}` names no pc"
            ),
            other => panic!("{what}: expected a load error, got {other:?}"),
        }
    }
}

#[test]
fn an_unreachable_ill_typed_instruction_is_refused_too() {
    for (what, inst) in ill_typed() {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::Halt);
        asm.push(inst);
        let binary = asm.finish_binary("main").expect("assembles");
        assert!(
            matches!(Process::load(&binary), Err(VmError::Load { .. })),
            "{what}"
        );
    }
}

#[test]
fn the_pipeline_reports_an_error() {
    let janus = Janus::new();
    for (what, inst) in ill_typed() {
        let (binary, _) = guest(inst);
        assert!(janus.run(&binary, &[]).is_err(), "{what}");
    }
}

#[test]
fn a_serving_session_fails_each_job_and_keeps_serving() {
    let handle = Janus::new().serve(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let bad: Vec<_> = ill_typed()
        .into_iter()
        .map(|(what, inst)| {
            let (binary, _) = guest(inst);
            let id = handle
                .submit(JobSpec::new(Arc::new(binary)))
                .expect("admitted");
            (id, what)
        })
        .collect();
    let good = handle
        .submit(JobSpec::new(Arc::new(well_formed())))
        .expect("admitted");
    let outcomes = handle.join();
    assert_eq!(outcomes.len(), bad.len() + 1);
    for (id, outcome) in &outcomes {
        if *id == good {
            let report = outcome.as_ref().expect("the well-formed job runs");
            assert_eq!(report.output_ints, vec![42]);
        } else {
            let what = bad.iter().find(|(b, _)| b == id).expect("submitted").1;
            assert!(outcome.is_err(), "{what}: {outcome:?}");
        }
    }
    let _ = handle.shutdown();
}
