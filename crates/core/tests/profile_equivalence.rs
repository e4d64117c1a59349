//! The slot-addressed, stamp-based profiler against the hashed one it
//! replaced.
//!
//! `janus_profile::profile` looks rules up by instruction slot, keeps its
//! per-loop state in a `Vec`, answers the dependence question from iteration
//! stamps on a shadow page table and charges instructions to loops when the
//! loop stack switches; the implementation before it probed a
//! `HashMap<u64, Vec<RewriteRule>>` twice per instruction, a
//! `HashMap<usize, LoopProfile>` once, and collected four address sets per
//! loop. That older loop is kept here, verbatim but for building its own
//! address index, as the reference: on the thirteen suite binaries, on 256
//! generated programs and on hand-assembled guests for what compiled code
//! never does (unaligned accesses, a conflicting iteration that leaves
//! through the exit edge) both must report the same `ProfileData`, field for
//! field.
//!
//! On the same binaries, stamping Type C loops only must select the same
//! loops as the wider rule it replaced, which also stamped every loop with
//! an access of unknown shape.

use janus_analysis::{analyze, AccessPattern, BinaryAnalysis, LoopCategory};
use janus_compile::{CompileOptions, Compiler};
use janus_core::Janus;
use janus_ir::{
    AluOp, AsmBuilder, Cond, Inst, JBinary, MemRef, Operand, Reg, SyscallNum, INST_SIZE,
};
use janus_profile::{generate_profiling_schedule, profile, LoopProfile, ProfileData};
use janus_schedule::{RewriteRule, RewriteSchedule, RuleId};
use janus_vm::{cost, exec_op, Cpu, Effect, Op, Process, ResolvedPlt, VmError};
use janus_workloads::{parallel_benchmarks, speculative_benchmarks, workload, ProgramSpec};
use std::collections::{HashMap, HashSet, VecDeque};

/// `janus_profile::profile` as it was before the slot-addressed tables.
fn reference_profile(
    process: &Process,
    schedule: &RewriteSchedule,
    input: &[i64],
) -> Result<ProfileData, VmError> {
    let mut index: HashMap<u64, Vec<RewriteRule>> = HashMap::new();
    for r in schedule.rules() {
        index.entry(r.addr).or_default().push(*r);
    }
    let at = |pc: u64| index.get(&pc).map_or(&[][..], Vec::as_slice);
    let mut mem = process.initial_memory();
    let mut cpu = Cpu::new();
    cpu.pc = process.entry();
    cpu.set_sp(process.initial_sp());

    let mut data = ProfileData::default();
    let mut heap_brk = process.heap_base();
    let mut input: VecDeque<i64> = input.iter().copied().collect();

    let mut loop_stack: Vec<usize> = Vec::new();
    let mut iter_writes: HashMap<usize, HashSet<u64>> = HashMap::new();
    let mut prev_writes: HashMap<usize, HashSet<u64>> = HashMap::new();
    let mut prev_reads: HashMap<usize, HashSet<u64>> = HashMap::new();
    let mut iter_reads: HashMap<usize, HashSet<u64>> = HashMap::new();

    loop {
        let pc = cpu.pc;
        for rule in at(pc) {
            let id = rule.loop_id();
            match rule.id {
                RuleId::ProfLoopStart if loop_stack.last() != Some(&id) => {
                    loop_stack.push(id);
                    let entry = data.loops.entry(id).or_insert_with(|| LoopProfile {
                        loop_id: id,
                        ..LoopProfile::default()
                    });
                    entry.invocations += 1;
                    iter_writes.entry(id).or_default().clear();
                    iter_reads.entry(id).or_default().clear();
                    prev_writes.entry(id).or_default().clear();
                    prev_reads.entry(id).or_default().clear();
                }
                RuleId::ProfLoopFinish => {
                    if let Some(pos) = loop_stack.iter().rposition(|l| *l == id) {
                        loop_stack.truncate(pos);
                    }
                }
                RuleId::ProfLoopIter if loop_stack.last() == Some(&id) => {
                    let entry = data.loops.entry(id).or_default();
                    entry.loop_id = id;
                    entry.iterations += 1;
                    let writes = iter_writes.entry(id).or_default();
                    let reads = iter_reads.entry(id).or_default();
                    let pw = prev_writes.entry(id).or_default();
                    let pr = prev_reads.entry(id).or_default();
                    let conflict = writes.iter().any(|a| pw.contains(a) || pr.contains(a))
                        || reads.iter().any(|a| pw.contains(a));
                    if conflict {
                        data.loops.get_mut(&id).unwrap().observed_dependence = true;
                    }
                    let writes = std::mem::take(iter_writes.entry(id).or_default());
                    let reads = std::mem::take(iter_reads.entry(id).or_default());
                    prev_writes.entry(id).or_default().extend(writes);
                    prev_reads.entry(id).or_default().extend(reads);
                }
                _ => {}
            }
        }

        let inst = process.inst_at(pc)?;
        if let Some(&current) = loop_stack.last() {
            if at(pc).iter().any(|r| r.id == RuleId::ProfMemAccess) {
                if let Some(m) = inst.mem_read() {
                    let addr = janus_vm::exec::effective_addr(&cpu, &m);
                    iter_reads.entry(current).or_default().insert(addr);
                }
                if let Some(m) = inst.mem_write() {
                    let addr = janus_vm::exec::effective_addr(&cpu, &m);
                    iter_writes.entry(current).or_default().insert(addr);
                }
            }
        }

        let retired_before = cpu.retired;
        let next_pc = pc + INST_SIZE as u64;
        let op = Op::lower(&inst).map_err(|why| VmError::Load {
            reason: why.to_string(),
        })?;
        cpu.cycles += cost(&inst);
        cpu.retired += 1;
        let effect = exec_op(&mut cpu, &mut mem, &op, pc, next_pc)?;
        let retired_delta = cpu.retired - retired_before;
        data.total_instructions += retired_delta;
        if let Some(&current) = loop_stack.last() {
            let entry = data.loops.entry(current).or_default();
            entry.loop_id = current;
            entry.dyn_instructions += retired_delta;
        }

        match effect {
            Effect::Continue => cpu.pc = next_pc,
            Effect::Jump(t) => cpu.pc = t,
            Effect::Halt => break,
            Effect::External { plt } => match process.resolve_plt(plt)?.clone() {
                ResolvedPlt::Guest { addr, .. } => cpu.pc = addr,
                ResolvedPlt::Native { name } => {
                    if name == "par_for" {
                        return Err(VmError::UnknownExternal { name });
                    }
                    let ret = janus_vm::exec::pop_value(&mut cpu, &mut mem) as u64;
                    cpu.pc = ret;
                }
            },
            Effect::Syscall { num } => {
                let call = SyscallNum::from_u32(num).ok_or(VmError::UnknownSyscall { num })?;
                match call {
                    SyscallNum::Exit => break,
                    SyscallNum::WriteInt | SyscallNum::WriteFloat => {}
                    SyscallNum::Sbrk => {
                        let size = cpu.read_gpr(Reg::R1).max(0) as u64;
                        cpu.write_gpr(Reg::R0, heap_brk as i64);
                        heap_brk += (size + 7) & !7;
                    }
                    SyscallNum::Clock => {
                        let c = cpu.cycles;
                        cpu.write_gpr(Reg::R0, c as i64);
                    }
                    SyscallNum::ReadInt => {
                        let v = input.pop_front().unwrap_or(0);
                        cpu.write_gpr(Reg::R0, v);
                    }
                }
                cpu.pc = next_pc;
            }
        }
    }

    let total = data.total_instructions.max(1) as f64;
    for l in data.loops.values_mut() {
        l.coverage = l.dyn_instructions as f64 / total;
    }
    Ok(data)
}

/// Profiles `binary` both ways and returns how many loops were profiled.
fn assert_profiles_agree(what: &str, binary: &JBinary) -> usize {
    let analysis = analyze(binary).expect("analysis succeeds");
    let schedule = generate_profiling_schedule(&analysis, what);
    assert_schedule_profiles_agree(what, binary, &schedule).len()
}

/// Profiles `binary` under `schedule` both ways and returns the profile.
fn assert_schedule_profiles_agree(
    what: &str,
    binary: &JBinary,
    schedule: &RewriteSchedule,
) -> HashMap<usize, LoopProfile> {
    let process = Process::load(binary).expect("binary loads");
    let dense = profile(&process, schedule, &[]).expect("profiling succeeds");
    let hashed = reference_profile(&process, schedule, &[]).expect("reference succeeds");
    assert_eq!(
        dense.total_instructions, hashed.total_instructions,
        "{what}: total instructions"
    );
    // `LoopProfile` compares every field, coverage included (both sides
    // compute it from the same two integers).
    assert_eq!(dense.loops, hashed.loops, "{what}: per-loop profiles");
    dense.loops
}

/// The thirteen suite binaries, by name.
fn suite_binaries() -> Vec<(String, JBinary)> {
    parallel_benchmarks()
        .into_iter()
        .chain(speculative_benchmarks())
        .map(|name| {
            let w = workload(name).expect("known workload");
            let binary = Compiler::with_options(CompileOptions::gcc_o3())
                .compile(&w.train_program)
                .expect("workload compiles");
            (name.to_string(), binary)
        })
        .collect()
}

/// Generated programs 0..256, by seed.
fn generated_binaries() -> Vec<(String, JBinary)> {
    (0..256)
        .map(|seed| {
            let binary = Compiler::new()
                .compile(&ProgramSpec::generate(seed).lower())
                .expect("generated program compiles");
            (format!("seed {seed}"), binary)
        })
        .collect()
}

#[test]
fn suite_binaries_profile_identically() {
    let profiled: usize = suite_binaries()
        .iter()
        .map(|(name, binary)| assert_profiles_agree(name, binary))
        .sum();
    assert!(profiled >= 13, "every binary has a profiled loop");
}

#[test]
fn generated_programs_profile_identically() {
    let profiled: usize = generated_binaries()
        .iter()
        .map(|(name, binary)| assert_profiles_agree(name, binary))
        .sum();
    assert!(profiled > 256, "generated programs contain loops");
}

/// The profiling schedule as it was when every loop with an access of
/// unknown shape was stamped too: `PROF_MEM_ACCESS` for `DynamicDoall ||
/// has_unknown_access`, plus the loop events of today's schedule.
fn wide_profiling_schedule(analysis: &BinaryAnalysis, narrow: &RewriteSchedule) -> RewriteSchedule {
    let mut schedule = RewriteSchedule::new("wide");
    for rule in narrow.rules() {
        if rule.id != RuleId::ProfMemAccess {
            schedule.push(*rule);
        }
    }
    for l in &analysis.loops {
        let stamped = l.category == LoopCategory::DynamicDoall || l.has_unknown_access;
        if !stamped || l.category == LoopCategory::Incompatible {
            continue;
        }
        for a in &l.accesses {
            if !matches!(
                a.pattern,
                AccessPattern::Spill | AccessPattern::StackSlot { .. }
            ) {
                schedule.push(
                    RewriteRule::new(a.addr, RuleId::ProfMemAccess)
                        .with_data(0, l.id as i64)
                        .with_data(1, i64::from(a.is_write)),
                );
            }
        }
    }
    schedule
}

#[test]
fn stamping_type_c_loops_only_loses_no_decision() {
    let janus = Janus::new();
    for (what, binary) in suite_binaries().into_iter().chain(generated_binaries()) {
        let analysis = analyze(&binary).expect("analysis succeeds");
        let narrow = generate_profiling_schedule(&analysis, &what);
        for rule in narrow.rules() {
            assert!(
                !matches!(rule.id, RuleId::ProfExcallStart | RuleId::ProfExcallFinish),
                "{what}: no external-call accounting"
            );
            if rule.id == RuleId::ProfMemAccess {
                assert!(
                    analysis.loops[rule.loop_id()]
                        .category
                        .needs_dependence_profile(),
                    "{what}: stamp on loop {}",
                    rule.loop_id()
                );
            }
        }
        let wide = wide_profiling_schedule(&analysis, &narrow);
        let process = Process::load(&binary).expect("binary loads");
        let narrow = profile(&process, &narrow, &[]).expect("profiling succeeds");
        let wide = profile(&process, &wide, &[]).expect("profiling succeeds");
        assert_eq!(
            janus.select_loops(&analysis, Some(&narrow)),
            janus.select_loops(&analysis, Some(&wide)),
            "{what}: selected loops"
        );
        for l in &analysis.loops {
            if l.category.needs_dependence_profile() {
                let observed =
                    |p: &ProfileData| p.loop_profile(l.id).map(|lp| lp.observed_dependence);
                assert_eq!(observed(&narrow), observed(&wide), "{what}: loop {}", l.id);
            }
        }
    }
}

/// The profiling rules of a hand-assembled loop: entry, latch and exit by
/// label, and a `PROF_MEM_ACCESS` on every labelled access.
fn loop_rules(asm: &AsmBuilder, id: i64, suffix: &str, accesses: &[&str]) -> Vec<RewriteRule> {
    let at = |label: &str| {
        asm.label_addr(&format!("{label}{suffix}"))
            .expect("label exists")
    };
    let mut rules = vec![
        RewriteRule::new(at("header"), RuleId::ProfLoopStart).with_data(0, id),
        RewriteRule::new(at("latch"), RuleId::ProfLoopIter).with_data(0, id),
        RewriteRule::new(at("exit"), RuleId::ProfLoopFinish).with_data(0, id),
    ];
    for access in accesses {
        rules.push(RewriteRule::new(at(access), RuleId::ProfMemAccess).with_data(0, id));
    }
    rules
}

fn schedule_of(rules: Vec<RewriteRule>) -> RewriteSchedule {
    let mut schedule = RewriteSchedule::new("hand-assembled");
    for rule in rules {
        schedule.push(rule);
    }
    schedule
}

#[test]
fn unaligned_accesses_are_keyed_by_their_exact_address() {
    // Two loops of eight iterations over `buf`. In loop 0 iteration i stores
    // the word at `buf + 8 i` and loads the one at `buf + 8 i - 4`: half of
    // it is what iteration i - 1 stored, but no address repeats, and exact
    // addresses are what the reference compares. In loop 1 iteration i
    // stores at `buf + 8 i + 4` and loads at `buf + 8 i - 4`, the very
    // (unaligned) address iteration i - 1 stored to.
    let mut asm = AsmBuilder::new();
    let buf = asm.i64_array("buf", 12, &[]) + 8;
    asm.function("main");
    asm.push(Inst::mov(Operand::reg(Reg::FP), Operand::reg(Reg::SP)));
    for (suffix, store_disp) in [("0", 0), ("1", 4)] {
        let word = |disp: i64| {
            Operand::mem(MemRef {
                base: None,
                index: Some(Reg::R0),
                scale: 8,
                disp: buf as i64 + disp,
            })
        };
        asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
        asm.label(format!("header{suffix}"));
        asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(8)));
        asm.push_branch(Cond::Ge, format!("exit{suffix}"));
        asm.label(format!("load{suffix}"));
        asm.push(Inst::mov(Operand::reg(Reg::R1), word(-4)));
        asm.label(format!("store{suffix}"));
        asm.push(Inst::mov(word(store_disp), Operand::reg(Reg::R0)));
        asm.push(Inst::alu(
            AluOp::Add,
            Operand::reg(Reg::R0),
            Operand::imm(1),
        ));
        asm.label(format!("latch{suffix}"));
        asm.push_jmp(format!("header{suffix}"));
        asm.label(format!("exit{suffix}"));
    }
    asm.push(Inst::Halt);
    let mut rules = loop_rules(&asm, 0, "0", &["load", "store"]);
    rules.extend(loop_rules(&asm, 1, "1", &["load", "store"]));
    let binary = asm.finish_binary("main").expect("assembles");

    let loops = assert_schedule_profiles_agree("unaligned", &binary, &schedule_of(rules));
    assert_eq!((loops[&0].invocations, loops[&0].iterations), (1, 8));
    assert!(!loops[&0].observed_dependence, "overlap is not identity");
    assert_eq!((loops[&1].invocations, loops[&1].iterations), (1, 8));
    assert!(loops[&1].observed_dependence, "same unaligned address");
}

/// `for (r0 = 0;; r0++) { r1 = *cell; if (r0 >= bound) break; *cell = r0; }`:
/// every iteration after the first reads what the one before it wrote, and
/// the last one leaves through the exit edge before reaching the latch.
fn exit_edge_guest(bound: i64) -> (JBinary, RewriteSchedule) {
    let mut asm = AsmBuilder::new();
    let cell = Operand::mem(MemRef::absolute(asm.i64_array("cell", 1, &[])));
    asm.function("main");
    asm.push(Inst::mov(Operand::reg(Reg::FP), Operand::reg(Reg::SP)));
    asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
    asm.label("header");
    asm.label("load");
    asm.push(Inst::mov(Operand::reg(Reg::R1), cell));
    asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(bound)));
    asm.push_branch(Cond::Ge, "exit");
    asm.label("store");
    asm.push(Inst::mov(cell, Operand::reg(Reg::R0)));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R0),
        Operand::imm(1),
    ));
    asm.label("latch");
    asm.push_jmp("header");
    asm.label("exit");
    asm.push(Inst::Halt);
    let rules = loop_rules(&asm, 0, "", &["load", "store"]);
    (
        asm.finish_binary("main").expect("assembles"),
        schedule_of(rules),
    )
}

#[test]
fn an_iteration_that_leaves_through_the_exit_edge_is_never_checked() {
    // One full iteration, then the conflicting one exits: nothing observed.
    let (binary, schedule) = exit_edge_guest(1);
    let loops = assert_schedule_profiles_agree("exit edge", &binary, &schedule);
    assert_eq!((loops[&0].invocations, loops[&0].iterations), (1, 1));
    assert!(!loops[&0].observed_dependence);
    // One more and the second iteration reaches the latch.
    let (binary, schedule) = exit_edge_guest(2);
    let loops = assert_schedule_profiles_agree("latched", &binary, &schedule);
    assert_eq!((loops[&0].invocations, loops[&0].iterations), (1, 2));
    assert!(loops[&0].observed_dependence);
}
