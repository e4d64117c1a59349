//! A parallel chunk stops only where its own loop says: at its loop's
//! `LOOP_FINISH`, never at another selected loop's, and it runs its own
//! loop's bound compare specialised to the chunk's bound wherever
//! `LOOP_INIT` names that compare, with or without a `LOOP_UPDATE_BOUND`
//! rule there. Each guest is hand-assembled and run on both backends at two
//! and four threads: outputs, memory image and modelled counts agree across
//! backends, and the outputs are the plain interpreter's.

use janus_core::{BackendKind, DbmConfig, PreparedDbm, VarSpec};
use janus_dbm::DbmRunResult;
use janus_ir::{AluOp, AsmBuilder, Cond, Inst, JBinary, MemRef, Operand, Reg};
use janus_schedule::{RewriteRule, RewriteSchedule, RuleId};
use janus_vm::{Process, Vm};

const OUTER: i64 = 32;
const INNER: i64 = 8;

/// `arr[r2]`, the word array at `base` indexed by `r2`.
fn element(base: u64, index: Reg) -> Operand {
    Operand::mem(MemRef {
        base: None,
        index: Some(index),
        scale: 8,
        disp: base as i64,
    })
}

/// `LOOP_INIT` for loop `id`: induction register `reg`, `reg += 1` while
/// `reg < bound`, the bound compared at `bound_cmp`.
fn loop_init(header: u64, id: i64, reg: Reg, bound_cmp: u64) -> RewriteRule {
    let (kind, value) = VarSpec::Reg(reg).encode();
    RewriteRule::new(header, RuleId::LoopInit)
        .with_data(0, id)
        .with_data(1, kind)
        .with_data(2, value)
        .with_data(3, 1)
        .with_data(4, bound_cmp as i64)
        .with_data(5, i64::from(Cond::Lt.code()))
}

/// Sums the `len` words at `arr` into `r0` and prints it, then halts.
fn print_sum(asm: &mut AsmBuilder, arr: u64, len: i64) {
    asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
    asm.push(Inst::mov(Operand::reg(Reg::R2), Operand::imm(0)));
    asm.label("sum");
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R0),
        element(arr, Reg::R2),
    ));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R2),
        Operand::imm(1),
    ));
    asm.push(Inst::cmp(Operand::reg(Reg::R2), Operand::imm(len)));
    asm.push_branch(Cond::Lt, "sum");
    asm.push_call_ext("print_i64");
    asm.push(Inst::Halt);
}

/// `for (r0 = 0; r0 < OUTER; r0++) for (r1 = 0; r1 < INNER; r1++)
/// arr[r0 * INNER + r1] = r0 + 3 * r1`, then the sum of `arr` printed,
/// with both loops selected: the inner loop's `LOOP_FINISH` sits in the
/// outer loop's body, which the outer loop's chunks run through.
fn nested() -> (JBinary, RewriteSchedule) {
    let mut asm = AsmBuilder::new();
    let arr = asm.i64_array("arr", (OUTER * INNER) as usize, &[]);
    let mov = |dst: Reg, src: Operand| Inst::mov(Operand::reg(dst), src);
    let alu = |op: AluOp, dst: Reg, src: Operand| Inst::alu(op, Operand::reg(dst), src);
    asm.function("main");
    asm.push(mov(Reg::FP, Operand::reg(Reg::SP)));
    asm.push(mov(Reg::R0, Operand::imm(0)));
    asm.label("outer");
    asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(OUTER)));
    asm.push_branch(Cond::Ge, "outer_exit");
    asm.push(mov(Reg::R1, Operand::imm(0)));
    asm.label("inner");
    asm.push(Inst::cmp(Operand::reg(Reg::R1), Operand::imm(INNER)));
    asm.push_branch(Cond::Ge, "inner_exit");
    asm.push(mov(Reg::R2, Operand::reg(Reg::R0)));
    asm.push(alu(AluOp::Mul, Reg::R2, Operand::imm(INNER)));
    asm.push(alu(AluOp::Add, Reg::R2, Operand::reg(Reg::R1)));
    asm.push(mov(Reg::R3, Operand::reg(Reg::R1)));
    asm.push(alu(AluOp::Mul, Reg::R3, Operand::imm(3)));
    asm.push(alu(AluOp::Add, Reg::R3, Operand::reg(Reg::R0)));
    asm.push(Inst::mov(element(arr, Reg::R2), Operand::reg(Reg::R3)));
    asm.push(alu(AluOp::Add, Reg::R1, Operand::imm(1)));
    asm.push_jmp("inner");
    asm.label("inner_exit");
    asm.push(alu(AluOp::Add, Reg::R0, Operand::imm(1)));
    asm.push_jmp("outer");
    asm.label("outer_exit");
    print_sum(&mut asm, arr, OUTER * INNER);
    let [outer, outer_exit, inner, inner_exit] = ["outer", "outer_exit", "inner", "inner_exit"]
        .map(|l| asm.label_addr(l).expect("label exists"));
    let mut schedule = RewriteSchedule::new("nested");
    schedule.push(loop_init(outer, 0, Reg::R0, outer));
    schedule.push(RewriteRule::new(outer_exit, RuleId::LoopFinish).with_data(0, 0));
    schedule.push(loop_init(inner, 1, Reg::R1, inner));
    schedule.push(RewriteRule::new(inner_exit, RuleId::LoopFinish).with_data(0, 1));
    (asm.finish_binary("main").expect("assembles"), schedule)
}

/// `r0 = 0; do { arr[r0] += 2 * r0; r0++ } while (r0 < *bound)`, then the
/// sum of `arr` printed. The loop is bottom-tested: `LOOP_INIT` names the
/// latch compare, which reads its bound from memory, and no
/// `LOOP_UPDATE_BOUND` rule marks it.
fn bottom_tested() -> (JBinary, RewriteSchedule) {
    let mut asm = AsmBuilder::new();
    let bound = asm.i64_array("bound", 1, &[OUTER]);
    let arr = asm.i64_array("arr", OUTER as usize, &[]);
    asm.function("main");
    asm.push(Inst::mov(Operand::reg(Reg::FP), Operand::reg(Reg::SP)));
    asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
    asm.label("body");
    asm.push(Inst::mov(Operand::reg(Reg::R3), Operand::reg(Reg::R0)));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R3),
        Operand::reg(Reg::R0),
    ));
    asm.push(Inst::alu(
        AluOp::Add,
        element(arr, Reg::R0),
        Operand::reg(Reg::R3),
    ));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R0),
        Operand::imm(1),
    ));
    asm.label("latch");
    asm.push(Inst::cmp(
        Operand::reg(Reg::R0),
        Operand::mem(MemRef::absolute(bound)),
    ));
    asm.push_branch(Cond::Lt, "body");
    asm.label("exit");
    print_sum(&mut asm, arr, OUTER);
    let [body, latch, exit] = ["body", "latch", "exit"].map(|l| asm.label_addr(l).expect("label"));
    let mut schedule = RewriteSchedule::new("bottom-tested");
    schedule.push(loop_init(body, 0, Reg::R0, latch));
    schedule.push(RewriteRule::new(exit, RuleId::LoopFinish).with_data(0, 0));
    (asm.finish_binary("main").expect("assembles"), schedule)
}

/// Runs `binary` under `schedule` on both backends at two and four threads
/// and holds every run to the interpreter's outputs and to the other
/// backend's image and counts; returns the interpreter's retired count and
/// the runs with their thread counts (one chunk per thread, as the trip
/// counts divide evenly).
fn run_everywhere(binary: &JBinary, schedule: &RewriteSchedule) -> (u64, Vec<(u64, DbmRunResult)>) {
    let process = Process::load(binary).expect("loads");
    let mut vm = Vm::new(process.clone());
    let native = vm.run().expect("the interpreter finishes");
    let mut runs = Vec::new();
    for threads in [2, 4] {
        let [virt, real] = [BackendKind::VirtualTime, BackendKind::NativeThreads].map(|backend| {
            let config = DbmConfig {
                threads,
                backend,
                adaptive: false,
                ..DbmConfig::default()
            };
            let run = PreparedDbm::new(process.clone(), schedule, config)
                .execute(&[])
                .unwrap_or_else(|e| panic!("{backend} at T = {threads}: {e}"));
            assert_eq!(
                run.output_ints,
                vm.output_ints(),
                "{backend} at T = {threads}"
            );
            assert_eq!(run.output_floats, vm.output_floats());
            assert_eq!(
                run.stats.parallel_invocations, 1,
                "{backend} at T = {threads}"
            );
            run
        });
        assert_eq!(virt.memory_digest, real.memory_digest, "T = {threads}");
        assert_eq!(virt.cycles, real.cycles, "T = {threads}");
        assert_eq!(virt.stats.retired, real.stats.retired, "T = {threads}");
        assert_eq!(virt.stats.breakdown, real.stats.breakdown, "T = {threads}");
        assert_eq!(
            (virt.stats.blocks_translated, virt.stats.block_executions),
            (real.stats.blocks_translated, real.stats.block_executions),
            "T = {threads}"
        );
        runs.extend([(u64::from(threads), virt), (u64::from(threads), real)]);
    }
    (native.retired, runs)
}

#[test]
fn chunks_of_an_outer_loop_run_through_an_inner_loops_finish() {
    let (binary, schedule) = nested();
    let (native_retired, runs) = run_everywhere(&binary, &schedule);
    let want: i64 = (0..OUTER)
        .flat_map(|i| (0..INNER).map(move |j| i + 3 * j))
        .sum();
    for (chunks, run) in runs {
        assert_eq!(run.output_ints, [want]);
        // Every outer iteration ran its whole inner loop: each chunk retires
        // a final outer compare and exit branch, where the interpreter
        // retires one pair.
        assert_eq!(run.stats.retired, native_retired + 2 * (chunks - 1));
    }
}

#[test]
fn chunks_substitute_a_latch_compare_named_only_by_loop_init() {
    let (binary, schedule) = bottom_tested();
    let (native_retired, runs) = run_everywhere(&binary, &schedule);
    let want: i64 = (0..OUTER).map(|i| 2 * i).sum();
    for (_, run) in runs {
        assert_eq!(run.output_ints, [want]);
        // Each chunk stops at its own bound: together they retire the
        // interpreter's iterations exactly, no more.
        assert_eq!(run.stats.retired, native_retired);
    }
}
