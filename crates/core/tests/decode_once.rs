//! Decode once: what `Process::load` tabulates per slot is what the
//! interpreter loops charge, and the one instruction the DBM substitutes at
//! run time — the loop-bound compare — is charged as the instruction it runs.

use janus_compile::{CompileOptions, Compiler};
use janus_core::{BackendKind, DbmConfig, PreparedDbm, VarSpec};
use janus_ir::{AluOp, AsmBuilder, Cond, Inst, JBinary, MemRef, Operand, Reg};
use janus_schedule::{RewriteRule, RewriteSchedule, RuleId};
use janus_vm::{cost, Process, Vm};
use janus_workloads::{parallel_benchmarks, speculative_benchmarks, workload, ProgramSpec};

fn assert_costs_tabulated(what: &str, binary: &JBinary) {
    let process = Process::load(binary).expect("binary loads");
    for slot in 0..process.num_slots() {
        let inst = process.inst(slot);
        assert_eq!(
            process.cost(slot),
            cost(&inst),
            "{what}: slot {slot} ({inst:?})"
        );
    }
}

#[test]
fn every_slot_of_the_suite_binaries_carries_its_cost() {
    for name in parallel_benchmarks()
        .into_iter()
        .chain(speculative_benchmarks())
    {
        let w = workload(name).expect("known workload");
        let binary = Compiler::with_options(CompileOptions::gcc_o3())
            .compile(&w.program)
            .expect("workload compiles");
        assert_costs_tabulated(name, &binary);
    }
}

#[test]
fn every_slot_of_generated_programs_carries_its_cost() {
    for seed in 0..64 {
        let binary = Compiler::new()
            .compile(&ProgramSpec::generate(seed).lower())
            .expect("generated program compiles");
        assert_costs_tabulated(&format!("seed {seed}"), &binary);
    }
}

const ITERATIONS: u64 = 64;

/// `for (r0 = 0; r0 < *bound; r0++) arr[r0] = r0` with the bound compared
/// straight from memory. Returns the binary and the addresses of the loop
/// header (also the bound compare) and of the loop exit.
fn guest() -> (JBinary, u64, u64) {
    let mut asm = AsmBuilder::new();
    let bound = asm.i64_array("bound", 1, &[ITERATIONS as i64]);
    let arr = asm.i64_array("arr", ITERATIONS as usize, &[]);
    asm.function("main");
    asm.push(Inst::mov(Operand::reg(Reg::FP), Operand::reg(Reg::SP)));
    asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
    asm.label("header");
    asm.push(Inst::cmp(
        Operand::reg(Reg::R0),
        Operand::mem(MemRef::absolute(bound)),
    ));
    asm.push_branch(Cond::Ge, "exit");
    asm.push(Inst::mov(
        Operand::mem(MemRef {
            base: None,
            index: Some(Reg::R0),
            scale: 8,
            disp: arr as i64,
        }),
        Operand::reg(Reg::R0),
    ));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R0),
        Operand::imm(1),
    ));
    asm.push_jmp("header");
    asm.label("exit");
    asm.push(Inst::Halt);
    let [header, exit] = ["header", "exit"].map(|l| asm.label_addr(l).expect("label exists"));
    let binary = asm.finish_binary("main").expect("assembles");
    (binary, header, exit)
}

#[test]
fn vm_cycles_are_the_sum_of_the_retired_slots_costs() {
    let (binary, header, exit) = guest();
    let process = Process::load(&binary).unwrap();
    // How often each slot retires: the prologue once, compare and exit branch
    // once more than the body, the halt once.
    let first = process.slot_of(binary.entry()).unwrap();
    let header = process.slot_of(header).unwrap();
    let exit = process.slot_of(exit).unwrap();
    let retirements = |slot: usize| match slot {
        s if s < header => 1,
        s if s < header + 2 => ITERATIONS + 1,
        s if s < exit => ITERATIONS,
        _ => 1,
    };
    let expected: u64 = (first..=exit)
        .map(|slot| retirements(slot) * process.cost(slot))
        .sum();
    let retired: u64 = (first..=exit).map(retirements).sum();
    let run = Vm::new(process).run().unwrap();
    assert_eq!(run.retired, retired);
    assert_eq!(run.cycles, expected);
}

#[test]
fn the_specialised_bound_compare_is_charged_as_an_immediate_compare() {
    let (binary, header, exit) = guest();
    let (kind, value) = VarSpec::Reg(Reg::R0).encode();
    let mut schedule = RewriteSchedule::new("decode-once");
    schedule.push(
        RewriteRule::new(header, RuleId::LoopInit)
            .with_data(0, 0)
            .with_data(1, kind)
            .with_data(2, value)
            .with_data(3, 1) // step
            .with_data(4, header as i64) // the bound compare
            .with_data(5, i64::from(Cond::Lt.code())),
    );
    schedule.push(RewriteRule::new(exit, RuleId::LoopFinish).with_data(0, 0));

    let process = Process::load(&binary).unwrap();
    let native = Vm::new(process.clone()).run().unwrap();
    // In the table the compare pays for its memory operand; in a chunk it is
    // `cmp r0, imm`. A memory access costs 3 cycles.
    let cmp_slot = process.slot_of(header).unwrap();
    let in_table = process.cost(cmp_slot);
    let in_chunk = cost(&Inst::cmp(Operand::reg(Reg::R0), Operand::imm(0)));
    assert_eq!(in_table, in_chunk + 3);
    // Two chunks of 32 iterations on two lanes: each runs its body 32 times
    // and its compare and exit branch 33 times.
    let per_chunk = ITERATIONS / 2;
    let body: u64 = (cmp_slot + 1..process.slot_of(exit).unwrap())
        .map(|slot| process.cost(slot))
        .sum();
    let branch = process.cost(cmp_slot + 1);
    let chunk_cycles = per_chunk * (in_chunk + body) + in_chunk + branch;
    // This and the two totals below were recorded before the substitution was
    // hoisted out of the chunk loop (when every execution of the slot rebuilt
    // and re-costed it).
    assert_eq!(chunk_cycles, 258);
    assert_eq!(native.cycles, 712);

    let mut digests = Vec::new();
    for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
        let config = DbmConfig {
            threads: 2,
            backend,
            adaptive: false,
            ..DbmConfig::default()
        };
        let run = PreparedDbm::new(process.clone(), &schedule, config)
            .execute(&[])
            .expect("finishes");
        assert_eq!(run.stats.parallel_invocations, 1, "{backend}");
        assert_eq!(run.stats.breakdown.parallel, chunk_cycles, "{backend}");
        // Each chunk retires its own final compare and exit branch; the main
        // thread retires neither.
        assert_eq!(run.stats.retired, native.retired + 2, "{backend}");
        assert_eq!(run.cycles, 10_510, "{backend}");
        digests.push(run.memory_digest);
    }
    assert_eq!(digests[0], digests[1]);
}
