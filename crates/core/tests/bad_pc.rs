//! A guest that jumps somewhere that is not an instruction gets
//! `VmError::BadPc` — from the plain interpreter, from the DBM's main
//! dispatch loop and from inside a parallel chunk, on both backends. A guest
//! whose frame pointer is no frame at a parallel loop gets that invocation
//! run sequentially, and so does one whose loop bounds put the trip count or
//! the last induction value outside an `i64`.
//!
//! Every per-instruction table of the DBM (code cache, lowered rules, loop
//! flags) is indexed by instruction slot, and `Process::slot_of` is the only
//! way to get one: a misaligned address, one outside both text sections and
//! one in the upper half of the address space must all come back as a typed
//! error, never as an index panic or a wrapped-around table access.

use janus_core::{BackendKind, DbmConfig, PreparedDbm, VarSpec};
use janus_dbm::DbmError;
use janus_ir::{AluOp, AsmBuilder, Cond, Inst, JBinary, Operand, Reg, HEAP_BASE, INST_SIZE};
use janus_schedule::{RewriteRule, RewriteSchedule, RuleId};
use janus_vm::{Process, Vm, VmError};

/// A counted loop `for (r0 = 0; r0 < 64; r0++)` whose iteration 40 jumps
/// through `r9`. `target` is what `r9` holds; `None` makes it the address of
/// the instruction after the jump, i.e. a well-behaved guest. `fp` is what
/// the frame pointer holds; `None` makes it the stack pointer. Returns the
/// binary plus the addresses of the loop header (also the bound compare) and
/// of the loop exit.
fn guest(target: Option<u64>, fp: Option<i64>) -> (JBinary, u64, u64) {
    let build = |target: u64| {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        let fp = fp.map_or_else(|| Operand::reg(Reg::SP), Operand::imm);
        asm.push(Inst::mov(Operand::reg(Reg::FP), fp));
        asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
        asm.push(Inst::mov(
            Operand::reg(Reg::R9),
            Operand::imm(target as i64),
        ));
        asm.label("header");
        asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(64)));
        asm.push_branch(Cond::Ge, "exit");
        asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(40)));
        asm.push_branch(Cond::Ne, "skip");
        asm.push(Inst::JmpInd {
            target: Operand::reg(Reg::R9),
        });
        asm.label("skip");
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R0),
            Operand::imm(1),
        ));
        asm.push_jmp("header");
        asm.label("exit");
        asm.push(Inst::Halt);
        let addrs = ["header", "skip", "exit"].map(|l| asm.label_addr(l).expect("label exists"));
        (asm.finish_binary("main").expect("assembles"), addrs)
    };
    // Label addresses do not depend on the immediate: assemble once to learn
    // where `skip` is, then again with the real target.
    let (_, [_, skip, _]) = build(0);
    let (binary, [header, _, exit]) = build(target.unwrap_or(skip));
    (binary, header, exit)
}

/// The schedule that parallelises the guest's loop as a static DOALL:
/// induction variable `r0`, `r0 += step` while `r0 cond bound`.
fn doall_schedule(header: u64, exit: u64, step: i64, cond: Cond) -> RewriteSchedule {
    let (kind, value) = VarSpec::Reg(Reg::R0).encode();
    let mut schedule = RewriteSchedule::new("bad-pc");
    schedule.push(
        RewriteRule::new(header, RuleId::LoopInit)
            .with_data(0, 0)
            .with_data(1, kind)
            .with_data(2, value)
            .with_data(3, step)
            .with_data(4, header as i64) // the bound compare
            .with_data(5, i64::from(cond.code())),
    );
    schedule.push(RewriteRule::new(exit, RuleId::LoopFinish).with_data(0, 0));
    schedule
}

fn run_dbm(
    binary: &JBinary,
    schedule: &RewriteSchedule,
    backend: BackendKind,
) -> Result<janus_dbm::DbmRunResult, DbmError> {
    run_dbm_limited(binary, schedule, backend, DbmConfig::default().cycle_limit)
}

fn run_dbm_limited(
    binary: &JBinary,
    schedule: &RewriteSchedule,
    backend: BackendKind,
    cycle_limit: u64,
) -> Result<janus_dbm::DbmRunResult, DbmError> {
    let config = DbmConfig {
        threads: 2,
        backend,
        adaptive: false,
        cycle_limit,
        ..DbmConfig::default()
    };
    PreparedDbm::new(Process::load(binary).expect("loads"), schedule, config).execute(&[])
}

/// Misaligned inside the text, just past the text, in the data segment, on
/// the heap, in the upper half of the address space (bare, and aliasing the
/// text modulo 2⁶³), and at the very top.
fn bad_targets(binary: &JBinary) -> [u64; 7] {
    [
        binary.text_base() + INST_SIZE as u64 + 1,
        binary.text_base() + binary.text_len(),
        binary.data_base(),
        HEAP_BASE,
        1 << 63,
        (1 << 63) + binary.text_base(),
        u64::MAX - (INST_SIZE as u64 - 1),
    ]
}

#[test]
fn the_well_behaved_guest_runs_its_loop_in_chunks() {
    // The control: with a valid jump target the same guest, under the same
    // schedule, executes its loop as one parallel invocation — so the faults
    // below, taken at iteration 40, are taken inside a chunk.
    let (binary, header, exit) = guest(None, None);
    let mut vm = Vm::new(Process::load(&binary).unwrap());
    vm.run().expect("the interpreter finishes");
    for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
        let run = run_dbm(&binary, &doall_schedule(header, exit, 1, Cond::Lt), backend)
            .expect("finishes");
        assert_eq!(run.stats.parallel_invocations, 1, "{backend}");
        assert_eq!(run.stats.sequential_fallbacks, 0, "{backend}");
        assert_eq!(run.exit_code, 0, "{backend}");
    }
}

#[test]
fn bad_jump_targets_are_bad_pc_everywhere() {
    let (probe, ..) = guest(None, None);
    for target in bad_targets(&probe) {
        let (binary, header, exit) = guest(Some(target), None);

        let mut vm = Vm::new(Process::load(&binary).unwrap());
        assert_eq!(
            vm.run(),
            Err(VmError::BadPc { pc: target }),
            "Vm::run, target {target:#x}"
        );

        for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
            // No rules: the main dispatch loop takes the jump.
            let main = run_dbm(&binary, &RewriteSchedule::new("bad-pc"), backend);
            assert_eq!(
                main.map(|r| r.cycles),
                Err(DbmError::Vm(VmError::BadPc { pc: target })),
                "DBM main thread on {backend}, target {target:#x}"
            );
            // Parallelised: iteration 40 runs in the second of two chunks.
            let chunk = run_dbm(&binary, &doall_schedule(header, exit, 1, Cond::Lt), backend);
            assert_eq!(
                chunk.map(|r| r.cycles),
                Err(DbmError::Vm(VmError::BadPc { pc: target })),
                "DBM chunk on {backend}, target {target:#x}"
            );
        }
    }
}

#[test]
fn implausible_frame_pointers_run_the_loop_sequentially() {
    // Chunks copy the frame window [SP - 256, FP + 768) onto their private
    // stacks. Below SP, a whole address space above it, and at the very top
    // (FP + 768 wraps) are no frame: the invocation falls back to the main
    // thread and the run ends as the interpreter's does.
    for fp in [0, 1 << 40, -1] {
        let (binary, header, exit) = guest(None, Some(fp));
        let mut vm = Vm::new(Process::load(&binary).unwrap());
        vm.run().expect("the interpreter finishes");
        for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
            let run = run_dbm(&binary, &doall_schedule(header, exit, 1, Cond::Lt), backend)
                .unwrap_or_else(|e| panic!("fp {fp:#x} on {backend}: {e}"));
            assert_eq!(run.output_ints, vm.output_ints(), "fp {fp:#x} on {backend}");
            assert_eq!(
                run.output_floats,
                vm.output_floats(),
                "fp {fp:#x} on {backend}"
            );
            assert_eq!(
                run.memory_digest,
                vm.mem.image_digest(),
                "fp {fp:#x} on {backend}"
            );
            assert_eq!(run.stats.parallel_invocations, 0, "fp {fp:#x} on {backend}");
            assert_eq!(run.stats.sequential_fallbacks, 1, "fp {fp:#x} on {backend}");
        }
    }
}

/// `for (r0 = start; r0 cond bound; r0 += step) {}` with the loop header
/// (also the bound compare) and exit addresses.
fn counted_guest(start: i64, bound: i64, step: i64, cond: Cond) -> (JBinary, u64, u64) {
    let mut asm = AsmBuilder::new();
    asm.function("main");
    asm.push(Inst::mov(Operand::reg(Reg::FP), Operand::reg(Reg::SP)));
    asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(start)));
    asm.label("header");
    asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(bound)));
    asm.push_branch(cond.negate(), "exit");
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R0),
        Operand::imm(step),
    ));
    asm.push_jmp("header");
    asm.label("exit");
    asm.push(Inst::Halt);
    let [header, exit] = ["header", "exit"].map(|l| asm.label_addr(l).expect("label exists"));
    (asm.finish_binary("main").expect("assembles"), header, exit)
}

#[test]
fn extreme_loop_bounds_run_out_of_cycles_not_into_a_panic() {
    // Trip counts of 2^63 + 59, 2^63, 2^63 - 1 and 2^62 - 1: the first two
    // do not fit in an `i64` and run sequentially, the last two are exact
    // and run in chunks whose bounds must not overflow either. None of them
    // ends within the cycle budget.
    let limit = 100_000;
    for (start, bound, step, cond) in [
        (i64::MIN + 5, 64, 1, Cond::Lt),
        (0, i64::MAX, 1, Cond::Le),
        (0, i64::MAX, 1, Cond::Lt),
        (0, i64::MAX - 1, 2, Cond::Lt),
    ] {
        let (binary, header, exit) = counted_guest(start, bound, step, cond);
        let schedule = doall_schedule(header, exit, step, cond);
        for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
            assert!(
                matches!(
                    run_dbm_limited(&binary, &schedule, backend, limit),
                    Err(DbmError::CycleLimitExceeded { .. })
                ),
                "start {start}, bound {bound}, step {step}, {cond:?} on {backend}"
            );
        }
    }
}
