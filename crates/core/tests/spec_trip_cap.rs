//! A speculative loop whose trip count the guest chooses cannot make the
//! host allocate in proportion to it. The speculation engine keeps a few
//! hundred bytes of state per iteration, so an invocation above
//! `MAX_SPECULATIVE_ITERATIONS` runs sequentially instead, counted as a
//! speculation fallback, before any engine state is built. Checked on both
//! backends.

use janus_core::{BackendKind, DbmConfig, PreparedDbm, VarSpec};
use janus_dbm::{DbmError, DbmRunResult, MAX_SPECULATIVE_ITERATIONS};
use janus_ir::{AluOp, AsmBuilder, Cond, Inst, JBinary, MemRef, Operand, Reg};
use janus_schedule::{RewriteRule, RewriteSchedule, RuleId};
use janus_vm::{Process, Vm};

const BINS: u64 = 64;

/// `for (r5 = 0; r5 < n; r5++) hist[(r5 * 7) % 64] += r5`, with `n` loaded
/// from a global before the loop, then prints `hist[0]` and `hist[63]`.
/// Returns the binary plus the addresses of the loop header (also the bound
/// compare) and of the loop exit.
fn histogram(n: i64) -> (JBinary, u64, u64) {
    let mut asm = AsmBuilder::new();
    let bound = asm.i64_array("n", 1, &[n]);
    let hist = asm.i64_array("hist", BINS as usize, &[]);
    let bin = Operand::mem(MemRef {
        base: None,
        index: Some(Reg::R1),
        scale: 8,
        disp: hist as i64,
    });
    let mov = |dst: Reg, src: Operand| Inst::mov(Operand::reg(dst), src);
    asm.function("main");
    asm.push(mov(Reg::FP, Operand::reg(Reg::SP)));
    asm.push(mov(Reg::R2, Operand::mem(MemRef::absolute(bound))));
    asm.push(mov(Reg::R5, Operand::imm(0)));
    asm.label("header");
    asm.push(Inst::cmp(Operand::reg(Reg::R5), Operand::reg(Reg::R2)));
    asm.push_branch(Cond::Ge, "exit");
    asm.push(mov(Reg::R1, Operand::reg(Reg::R5)));
    asm.push(Inst::alu(
        AluOp::Mul,
        Operand::reg(Reg::R1),
        Operand::imm(7),
    ));
    asm.push(Inst::alu(
        AluOp::And,
        Operand::reg(Reg::R1),
        Operand::imm(BINS as i64 - 1),
    ));
    asm.push(mov(Reg::R3, bin));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R3),
        Operand::reg(Reg::R5),
    ));
    asm.push(Inst::mov(bin, Operand::reg(Reg::R3)));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R5),
        Operand::imm(1),
    ));
    asm.push_jmp("header");
    asm.label("exit");
    for addr in [hist, hist + 8 * (BINS - 1)] {
        asm.push(mov(Reg::R0, Operand::mem(MemRef::absolute(addr))));
        asm.push_call_ext("print_i64");
    }
    asm.push(Inst::Halt);
    let [header, exit] = ["header", "exit"].map(|l| asm.label_addr(l).expect("label exists"));
    (asm.finish_binary("main").expect("assembles"), header, exit)
}

/// The schedule the rule generator emits for a may-dependent loop: a
/// `SPECULATE` loop on `r5`, `r5 += 1` while `r5 < bound`.
fn speculative_schedule(header: u64, exit: u64) -> RewriteSchedule {
    let (kind, value) = VarSpec::Reg(Reg::R5.raw()).encode();
    let mut schedule = RewriteSchedule::new("spec-trip-cap");
    schedule.push(
        RewriteRule::new(header, RuleId::LoopInit)
            .with_data(0, 0)
            .with_data(1, kind)
            .with_data(2, value)
            .with_data(3, 1)
            .with_data(4, header as i64) // the bound compare
            .with_data(5, Cond::Lt as i64),
    );
    schedule.push(RewriteRule::new(header, RuleId::Speculate).with_data(0, 0));
    schedule.push(RewriteRule::new(exit, RuleId::LoopFinish).with_data(0, 0));
    schedule
}

/// Every backend the DBM offers.
const MODES: [BackendKind; 2] = [BackendKind::VirtualTime, BackendKind::NativeThreads];

fn run(n: i64, backend: BackendKind, cycle_limit: u64) -> Result<DbmRunResult, DbmError> {
    let (binary, header, exit) = histogram(n);
    let config = DbmConfig {
        threads: 2,
        backend,
        adaptive: false,
        cycle_limit,
        ..DbmConfig::default()
    };
    let process = Process::load(&binary).expect("loads");
    PreparedDbm::new(process, &speculative_schedule(header, exit), config).execute(&[])
}

/// Runs `n` iterations on every backend, checks the guest result against
/// `Vm::run` and returns each mode's run.
fn run_everywhere(n: i64) -> Vec<DbmRunResult> {
    let (binary, ..) = histogram(n);
    let mut vm = Vm::new(Process::load(&binary).expect("loads"));
    vm.run().expect("the interpreter finishes");
    MODES
        .iter()
        .map(|&backend| {
            let run = run(n, backend, DbmConfig::default().cycle_limit)
                .unwrap_or_else(|e| panic!("n = {n} on {backend}: {e}"));
            assert_eq!(run.output_ints, vm.output_ints(), "{backend}");
            assert_eq!(run.memory_digest, vm.mem.image_digest(), "{backend}");
            assert_eq!(run.exit_code, 0, "{backend}");
            run
        })
        .collect()
}

#[test]
fn a_huge_guest_trip_count_runs_out_of_cycles_instead_of_memory() {
    // 2^40 iterations of engine state would be hundreds of TiB: the host
    // used to abort in the allocator. Sequentially the loop simply runs
    // until the cycle budget is spent.
    for backend in MODES {
        let result = run(1 << 40, backend, 50_000_000);
        assert!(
            matches!(result, Err(DbmError::CycleLimitExceeded { .. })),
            "{backend}: {:?}",
            result.map(|r| r.stats)
        );
    }
}

#[test]
fn one_iteration_over_the_cap_falls_back_to_sequential_execution() {
    let n = MAX_SPECULATIVE_ITERATIONS as i64 + 1;
    for run in run_everywhere(n) {
        assert_eq!(run.stats.spec_fallbacks, 1);
        assert_eq!(run.stats.sequential_fallbacks, 1);
        assert_eq!(run.stats.spec_invocations, 0);
        assert_eq!(run.stats.parallel_invocations, 0);
    }
}

#[test]
fn a_trip_count_below_the_cap_still_speculates() {
    for run in run_everywhere(5_000) {
        assert_eq!(run.stats.spec_invocations, 1);
        assert_eq!(run.stats.spec_iterations, 5_000);
        assert_eq!(run.stats.spec_fallbacks, 0);
    }
}
