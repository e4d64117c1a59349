//! Run boundaries are invisible: every interpreter loop steps a whole
//! straight-line run at a time, and nothing a guest or a caller can observe
//! tells that apart from stepping one instruction at a time. Each guest is
//! hand-assembled and compared against per-instruction stepping: each
//! instruction lowered on its own, charged its default cost and executed
//! through `exec_op`:
//!
//! * a cycle limit that falls inside a run stops at the same instruction,
//!   with the same error and the same `pc`, `cycles` and `retired`;
//! * a division by zero in the middle of a run reports the same pc and
//!   leaves the same counters;
//! * a main text whose last instruction is not a branch runs off its end
//!   into `BadPc`, never into the system library;
//! * an indirect jump into the middle of a run lands where it points;
//! * a guest function called on behalf of a native service
//!   (`call_guest_function`, which `par_for` runs each chunk through)
//!   returns to the sentinel and no further;
//! * a DBM chunk that faults mid-run reports the same error on both
//!   backends, at the same pc as the plain interpreter.

use janus_core::{BackendKind, DbmConfig, PreparedDbm, VarSpec};
use janus_dbm::DbmError;
use janus_ir::{AluOp, AsmBuilder, Cond, Inst, JBinary, Operand, Reg, INST_SIZE};
use janus_schedule::{RewriteRule, RewriteSchedule, RuleId};
use janus_vm::{cost, exec_op, Cpu, Effect, FlatMemory, Op, Process, Vm, VmConfig, VmError};

const STEP: u64 = INST_SIZE as u64;

/// Steps `cpu` one instruction at a time until it halts or exits, reaches
/// `stop`, faults or exceeds `limit` — the loop every interpreter ran before
/// runs, minus the calls these guests do not make.
fn step_each(
    process: &Process,
    cpu: &mut Cpu,
    mem: &mut FlatMemory,
    limit: u64,
    stop: Option<u64>,
) -> Result<(), VmError> {
    loop {
        if cpu.cycles > limit {
            return Err(VmError::CycleLimitExceeded { limit });
        }
        if stop == Some(cpu.pc) {
            return Ok(());
        }
        let inst = process.inst_at(cpu.pc)?;
        let op = Op::lower(&inst).expect("these guests are well typed");
        cpu.cycles += cost(&inst);
        cpu.retired += 1;
        let next = cpu.pc + STEP;
        match exec_op(cpu, mem, &op, cpu.pc, next)? {
            Effect::Continue => cpu.pc = next,
            Effect::Jump(target) => cpu.pc = target,
            Effect::Halt | Effect::Syscall { .. } => return Ok(()),
            Effect::External { .. } => panic!("these guests make no external calls"),
        }
    }
}

/// `Vm::run` under `limit` and per-instruction stepping of the same
/// process: the outcomes and the machines they leave must be equal.
fn assert_same_as_stepping(binary: &JBinary, limit: u64) -> Result<(), VmError> {
    let process = Process::load(binary).expect("loads");
    let mut vm = Vm::with_config(process.clone(), VmConfig { cycle_limit: limit });
    let ran = vm.run().map(|_| ());

    let mut cpu = Cpu::new();
    cpu.pc = process.entry();
    cpu.set_sp(process.initial_sp());
    let mut mem = process.initial_memory();
    let stepped = step_each(&process, &mut cpu, &mut mem, limit, None);

    assert_eq!(ran, stepped, "limit {limit}");
    assert_eq!(vm.cpu, cpu, "limit {limit}");
    assert_eq!(vm.mem.image_digest(), mem.image_digest(), "limit {limit}");
    assert_eq!((vm.mem.loads, vm.mem.stores), (mem.loads, mem.stores));
    ran
}

/// `r0 = r1 = 0; loop: 12 × (r0 += 1; push r0; pop r2); r1 += 1; r1 < 40 → loop; halt`:
/// one 39-instruction run per iteration, two thirds of it stack traffic.
fn long_runs() -> JBinary {
    let mut asm = AsmBuilder::new();
    asm.function("main");
    asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
    asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(0)));
    asm.label("loop");
    for _ in 0..12 {
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R0),
            Operand::imm(1),
        ));
        asm.push(Inst::Push {
            src: Operand::reg(Reg::R0),
        });
        asm.push(Inst::Pop {
            dst: Operand::reg(Reg::R2),
        });
    }
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R1),
        Operand::imm(1),
    ));
    asm.push(Inst::cmp(Operand::reg(Reg::R1), Operand::imm(40)));
    asm.push_branch(Cond::Lt, "loop");
    asm.push(Inst::Halt);
    asm.finish_binary("main").expect("assembles")
}

#[test]
fn a_cycle_limit_inside_a_run_stops_where_stepping_stops() {
    let binary = long_runs();
    assert_eq!(assert_same_as_stepping(&binary, u64::MAX), Ok(()));
    let mut vm = Vm::new(Process::load(&binary).unwrap());
    let total = vm.run().unwrap().cycles;
    // Every limit up to a few iterations in, so it falls on every slot of
    // the loop's run, then a spread over the rest. The last test is before
    // the one-cycle `halt`.
    for limit in (0..600).chain((600..total + 8).step_by(37)) {
        let outcome = assert_same_as_stepping(&binary, limit);
        assert_eq!(
            matches!(outcome, Err(VmError::CycleLimitExceeded { .. })),
            limit + 1 < total,
            "limit {limit}: {outcome:?}"
        );
    }
}

#[test]
fn a_division_by_zero_mid_run_leaves_what_stepping_leaves() {
    let mut asm = AsmBuilder::new();
    asm.function("main");
    asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(0)));
    asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(7)));
    asm.push(Inst::alu(
        AluOp::Mul,
        Operand::reg(Reg::R0),
        Operand::imm(3),
    ));
    let div = asm.push(Inst::alu(
        AluOp::Div,
        Operand::reg(Reg::R0),
        Operand::reg(Reg::R1),
    ));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R0),
        Operand::imm(1),
    ));
    asm.push(Inst::Halt);
    let binary = asm.finish_binary("main").expect("assembles");
    let outcome = assert_same_as_stepping(&binary, u64::MAX);
    assert_eq!(outcome, Err(VmError::DivisionByZero { pc: div }));
}

#[test]
fn running_off_the_main_text_is_a_bad_pc() {
    let mut asm = AsmBuilder::new();
    asm.function("main");
    asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(1)));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R0),
        Operand::imm(2),
    ));
    let binary = asm.finish_binary("main").expect("assembles");
    let outcome = assert_same_as_stepping(&binary, u64::MAX);
    let end = binary.text_base() + binary.text_len();
    assert_eq!(outcome, Err(VmError::BadPc { pc: end }));
}

#[test]
fn an_indirect_jump_lands_in_the_middle_of_a_run() {
    let build = |target: i64| {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
        asm.push(Inst::mov(Operand::reg(Reg::R9), Operand::imm(target)));
        asm.push(Inst::JmpInd {
            target: Operand::reg(Reg::R9),
        });
        for k in 0..8 {
            if k == 5 {
                asm.label("middle");
            }
            asm.push(Inst::alu(
                AluOp::Add,
                Operand::reg(Reg::R0),
                Operand::imm(1 << k),
            ));
        }
        asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::reg(Reg::R0)));
        asm.push(Inst::Halt);
        let middle = asm.label_addr("middle").expect("label exists");
        (asm.finish_binary("main").expect("assembles"), middle)
    };
    let (_, middle) = build(0);
    let (binary, _) = build(middle as i64);
    assert_eq!(assert_same_as_stepping(&binary, u64::MAX), Ok(()));
    let mut vm = Vm::new(Process::load(&binary).unwrap());
    vm.run().unwrap();
    assert_eq!(vm.cpu.read_gpr(Reg::R0), (1 << 5) + (1 << 6) + (1 << 7));
}

#[test]
fn a_called_guest_function_returns_to_the_sentinel() {
    // body(r0, r1): r2 = 0; while r0 < r1 { r2 += r0; r0 += 1 }; r0 = r2; ret
    let mut asm = AsmBuilder::new();
    asm.function("main");
    asm.push(Inst::Halt);
    asm.function("body");
    asm.push(Inst::mov(Operand::reg(Reg::R2), Operand::imm(0)));
    asm.label("top");
    asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::reg(Reg::R1)));
    asm.push_branch(Cond::Ge, "done");
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R2),
        Operand::reg(Reg::R0),
    ));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R0),
        Operand::imm(1),
    ));
    asm.push_jmp("top");
    asm.label("done");
    asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::reg(Reg::R2)));
    asm.push(Inst::Ret);
    let body = asm.label_addr("body").expect("label exists");
    let binary = asm.finish_binary("main").expect("assembles");
    let process = Process::load(&binary).unwrap();

    let mut vm = Vm::new(process.clone());
    let before = vm.cpu.clone();
    assert_eq!(vm.call_guest_function(body, &[3, 10]), Ok(42));

    // The same call stepped by hand: arguments, the sentinel return address
    // (any address without a slot), then the body until it returns there.
    let sentinel = 0xffff_ffff_ffff_0000;
    let mut cpu = before.clone();
    let mut mem = process.initial_memory();
    cpu.write_gpr(Reg::R0, 3);
    cpu.write_gpr(Reg::R1, 10);
    janus_vm::exec::push_value(&mut cpu, &mut mem, sentinel as i64);
    cpu.pc = body;
    step_each(&process, &mut cpu, &mut mem, u64::MAX, Some(sentinel)).unwrap();
    assert_eq!((vm.cpu.cycles, vm.cpu.retired), (cpu.cycles, cpu.retired));
    assert_eq!(vm.cpu.gpr, cpu.gpr);
    assert_eq!(vm.cpu.pc, before.pc, "the caller's pc is restored");
}

/// `for (r0 = 0; r0 < 64; r0++) { r5 = 1000 / (r0 - 40); … }` with the
/// division in the middle of the body's run: iteration 40 faults.
fn faulting_loop() -> (JBinary, u64, u64, u64) {
    let mut asm = AsmBuilder::new();
    asm.function("main");
    asm.push(Inst::mov(Operand::reg(Reg::FP), Operand::reg(Reg::SP)));
    asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
    asm.label("header");
    asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(64)));
    asm.push_branch(Cond::Ge, "exit");
    asm.push(Inst::mov(Operand::reg(Reg::R4), Operand::reg(Reg::R0)));
    asm.push(Inst::alu(
        AluOp::Sub,
        Operand::reg(Reg::R4),
        Operand::imm(40),
    ));
    asm.push(Inst::mov(Operand::reg(Reg::R5), Operand::imm(1000)));
    let div = asm.push(Inst::alu(
        AluOp::Div,
        Operand::reg(Reg::R5),
        Operand::reg(Reg::R4),
    ));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R5),
        Operand::imm(1),
    ));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R0),
        Operand::imm(1),
    ));
    asm.push_jmp("header");
    asm.label("exit");
    asm.push(Inst::Halt);
    let header = asm.label_addr("header").expect("label exists");
    let exit = asm.label_addr("exit").expect("label exists");
    (
        asm.finish_binary("main").expect("assembles"),
        header,
        exit,
        div,
    )
}

#[test]
fn a_chunk_faulting_mid_run_fails_alike_on_both_backends() {
    let (binary, header, exit, div) = faulting_loop();
    assert_eq!(
        assert_same_as_stepping(&binary, u64::MAX),
        Err(VmError::DivisionByZero { pc: div })
    );
    let (kind, value) = VarSpec::Reg(Reg::R0).encode();
    let mut schedule = RewriteSchedule::new("run-boundaries");
    schedule.push(
        RewriteRule::new(header, RuleId::LoopInit)
            .with_data(0, 0)
            .with_data(1, kind)
            .with_data(2, value)
            .with_data(3, 1)
            .with_data(4, header as i64)
            .with_data(5, i64::from(Cond::Lt.code())),
    );
    schedule.push(RewriteRule::new(exit, RuleId::LoopFinish).with_data(0, 0));
    for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
        let config = DbmConfig {
            threads: 2,
            backend,
            adaptive: false,
            ..DbmConfig::default()
        };
        let prepared = PreparedDbm::new(Process::load(&binary).unwrap(), &schedule, config);
        assert_eq!(prepared.num_parallel_loops(), 1);
        let err = prepared
            .execute(&[])
            .expect_err("iteration 40 divides by zero");
        assert_eq!(
            err,
            DbmError::Vm(VmError::DivisionByZero { pc: div }),
            "{backend:?}"
        );
    }
}
