//! # janus-profile — statically-driven profiling
//!
//! Janus optionally runs two profiling passes before parallelisation
//! (section II-C of the paper), both driven by rewrite schedules generated by
//! the static analyser so that only the loops of interest — and only the
//! instructions of interest within them — are instrumented:
//!
//! 1. **Loop-coverage profiling**: counts the dynamic instructions executed
//!    inside each candidate loop as a proxy for the time spent there, so that
//!    low-coverage loops can be filtered out of the parallelisation plan.
//! 2. **Memory-dependence profiling**: for Type C loops (DOALL modulo runtime
//!    checks, [`LoopCategory::needs_dependence_profile`]) only, stamps every
//!    instrumented address with the iteration that first read and first
//!    wrote it and reports whether a cross-iteration dependence actually
//!    occurred on the training input (Type C vs Type D classification). No
//!    other category's selection reads the answer, so no other loop pays
//!    for it.
//!
//! The profiler executes the *training* input through an instrumented
//! interpreter; profiling runs are not included in any timing figure. Its
//! per-loop state — the loop stack, instruction accounting at stack
//! switches and the iteration stamps on a shadow [`janus_vm::PageTable`] —
//! lives in the private `tracker` module, next to the address-set tracker
//! it replaced (test-only, the model its property test compares with).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod tracker;

use janus_analysis::{BinaryAnalysis, LoopCategory};
use janus_ir::{MemRef, INST_SIZE};
use janus_schedule::{RewriteRule, RewriteSchedule, RuleId};
use janus_vm::{step_run, Cpu, Effect, GuestOs, Limit, Process, ResolvedPlt, VmError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tracker::Tracker;

/// Profile data for one loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LoopProfile {
    /// The loop id from the static analysis.
    pub loop_id: usize,
    /// Number of times the loop was entered.
    pub invocations: u64,
    /// Total iterations executed.
    pub iterations: u64,
    /// Dynamic instructions executed inside the loop.
    pub dyn_instructions: u64,
    /// Fraction of all program instructions spent in this loop.
    pub coverage: f64,
    /// `true` if a cross-iteration memory dependence was observed. Meaningful
    /// for Type C loops only: no other loop's accesses are instrumented.
    pub observed_dependence: bool,
}

/// The result of profiling one binary on one input.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProfileData {
    /// Total dynamic instructions executed by the program.
    pub total_instructions: u64,
    /// Per-loop profiles, indexed by loop id.
    pub loops: HashMap<usize, LoopProfile>,
}

impl ProfileData {
    /// The profile of a given loop, if it was ever executed.
    #[must_use]
    pub fn loop_profile(&self, loop_id: usize) -> Option<&LoopProfile> {
        self.loops.get(&loop_id)
    }

    /// Coverage (fraction of dynamic instructions) of a loop, 0 when never
    /// executed.
    #[must_use]
    pub fn coverage(&self, loop_id: usize) -> f64 {
        self.loops.get(&loop_id).map_or(0.0, |l| l.coverage)
    }

    /// Execution-time fraction per loop category, used for the right-hand
    /// bars of Figure 6. Nested loops are accounted to the innermost loop
    /// containing each instruction, which matches how the profiling rules are
    /// emitted.
    #[must_use]
    pub fn category_time_fractions(&self, analysis: &BinaryAnalysis) -> [(LoopCategory, f64); 6] {
        let mut out = [
            (LoopCategory::StaticDoall, 0.0),
            (LoopCategory::StaticDependence, 0.0),
            (LoopCategory::DynamicDoall, 0.0),
            (LoopCategory::DynamicDependence, 0.0),
            (LoopCategory::Speculative, 0.0),
            (LoopCategory::Incompatible, 0.0),
        ];
        for l in &analysis.loops {
            let coverage = self.coverage(l.id);
            for (cat, acc) in &mut out {
                if *cat == l.category {
                    *acc += coverage;
                }
            }
        }
        out
    }
}

/// Generates the profiling rewrite schedule for the candidate loops of a
/// binary: `PROF_LOOP_START`/`FINISH` at loop entries and exits,
/// `PROF_LOOP_ITER` at the latch, and `PROF_MEM_ACCESS` on the heap and
/// global accesses of the loops whose selection reads the dependence answer
/// ([`LoopCategory::needs_dependence_profile`]).
#[must_use]
pub fn generate_profiling_schedule(analysis: &BinaryAnalysis, executable: &str) -> RewriteSchedule {
    let mut schedule = RewriteSchedule::new(executable);
    for l in &analysis.loops {
        if l.category == LoopCategory::Incompatible {
            continue;
        }
        let id = l.id as i64;
        schedule.push(RewriteRule::new(l.header_addr, RuleId::ProfLoopStart).with_data(0, id));
        for &exit in &l.exit_target_addrs {
            schedule.push(RewriteRule::new(exit, RuleId::ProfLoopFinish).with_data(0, id));
        }
        for &latch in &l.latch_branch_addrs {
            schedule.push(RewriteRule::new(latch, RuleId::ProfLoopIter).with_data(0, id));
        }
        if l.category.needs_dependence_profile() {
            for a in &l.accesses {
                // Stack-slot and spill traffic is iteration-private by
                // construction; only heap/global accesses are instrumented
                // (this is also what keeps statically-driven profiling cheap).
                if matches!(
                    a.pattern,
                    janus_analysis::AccessPattern::Spill
                        | janus_analysis::AccessPattern::StackSlot { .. }
                ) {
                    continue;
                }
                schedule.push(
                    RewriteRule::new(a.addr, RuleId::ProfMemAccess)
                        .with_data(0, id)
                        .with_data(1, i64::from(a.is_write)),
                );
            }
        }
    }
    schedule
}

/// Runs a binary with instrumentation driven by a profiling schedule.
///
/// # Errors
///
/// Returns an error if guest execution faults.
pub fn profile(
    process: &Process,
    schedule: &RewriteSchedule,
    input: &[i64],
) -> Result<ProfileData, VmError> {
    // Lower what the per-instruction path looks up, once: loops by position
    // in `loop_ids` (a wild id costs a table entry, not memory), rules by
    // slot with that position already in data word 0 — a memory access's
    // with its operands' index in `accesses` in word 1 — and runs that end
    // before every slot with rules, so rules are looked up only where a run
    // starts and a run without any pays for nothing below.
    let mut loop_ids: Vec<usize> = schedule.rules().iter().map(RewriteRule::loop_id).collect();
    loop_ids.sort_unstable();
    loop_ids.dedup();
    let mut accesses: Vec<[Option<MemRef>; 2]> = Vec::new();
    let mut events = RewriteSchedule::new("");
    for rule in schedule.rules() {
        let Some(slot) = process.slot_of(rule.addr) else {
            continue; // can never fire
        };
        let dense = loop_ids
            .binary_search(&rule.loop_id())
            .expect("collected above");
        let mut event = rule.with_data(0, dense as i64);
        if rule.id == RuleId::ProfMemAccess {
            let inst = process.inst(slot);
            event = event.with_data(1, accesses.len() as i64);
            accesses.push([inst.mem_read(), inst.mem_write()]);
        }
        events.push(event);
    }
    let events = events.lower(process.num_slots(), |addr| process.slot_of(addr));
    let plan = process.plan();
    let runs = plan.runs_ending_before(|slot| !events.at(slot).is_empty());
    let mut tracker = Tracker::new(loop_ids.len());

    let mut mem = process.initial_memory();
    let mut cpu = Cpu::new();
    cpu.pc = process.entry();
    cpu.set_sp(process.initial_sp());

    let mut os = GuestOs::new(process, input);

    let guard = Limit::Retired(50_000_000_000);
    loop {
        guard.check(&cpu)?;
        let slot = process.slot(cpu.pc)?;
        let rules = events.at(slot);
        if !rules.is_empty() {
            // Loop events attached to this address move the loop stack; the
            // instruction itself is then charged to whichever loop ends up
            // on top.
            let mut access = None;
            for rule in rules {
                let id = rule.loop_id();
                match rule.id {
                    RuleId::ProfLoopStart => tracker.start(id, cpu.retired),
                    RuleId::ProfLoopFinish => tracker.finish(id, cpu.retired),
                    RuleId::ProfLoopIter => tracker.latch(id),
                    RuleId::ProfMemAccess => access = Some(&accesses[rule.data[1] as usize]),
                    _ => {}
                }
            }
            // PROF_MEM_ACCESS: stamp the addresses for dependence detection,
            // once however many loops instrument the access.
            if let (Some([read, write]), Some(l)) = (access, tracker.tracked()) {
                if let Some(m) = read {
                    l.touch(janus_vm::exec::effective_addr(&cpu, m), false);
                }
                if let Some(m) = write {
                    l.touch(janus_vm::exec::effective_addr(&cpu, m), true);
                }
            }
        }

        match step_run(&mut cpu, &mut mem, plan, &runs, slot, guard)? {
            Effect::Continue => cpu.pc += INST_SIZE as u64,
            Effect::Jump(t) => cpu.pc = t,
            Effect::Halt => break,
            Effect::External { plt } => match process.resolve_plt(plt)? {
                ResolvedPlt::Guest { addr, .. } => cpu.pc = *addr,
                ResolvedPlt::Native { name } => {
                    // `par_for` is not the guest ABI's: unknown here.
                    os.native(name, &cpu)?;
                    let ret = janus_vm::exec::pop_value(&mut cpu, &mut mem) as u64;
                    cpu.pc = ret;
                }
            },
            Effect::Syscall { num } => {
                let clock = cpu.cycles;
                if os.syscall(&mut cpu, num, clock)? {
                    break;
                }
                cpu.pc += INST_SIZE as u64;
            }
        }
    }

    // A loop has a profile exactly when it was entered; coverage fractions
    // are final only now.
    let total_instructions = cpu.retired;
    let total = total_instructions.max(1) as f64;
    let mut data = ProfileData {
        total_instructions,
        ..ProfileData::default()
    };
    for (&loop_id, mut profile) in loop_ids
        .iter()
        .zip(tracker.into_profiles(total_instructions))
    {
        if profile.invocations > 0 {
            profile.loop_id = loop_id;
            profile.coverage = profile.dyn_instructions as f64 / total;
            data.loops.insert(loop_id, profile);
        }
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_analysis::analyze;
    use janus_compile::{ast, CompileOptions, Compiler};

    fn hot_cold_program() -> ast::Program {
        // A hot DOALL loop over 512 elements and a cold one over 4.
        ast::Program::builder("hotcold")
            .global_f64("a", 512)
            .global_f64("b", 512)
            .global_f64("c", 8)
            .function(
                ast::Function::new("main")
                    .local("i", ast::Ty::I64)
                    .body(vec![
                        ast::Stmt::simple_for(
                            "i",
                            ast::Expr::const_i(0),
                            ast::Expr::const_i(512),
                            vec![ast::Stmt::assign(
                                ast::LValue::store("b", ast::Expr::var("i")),
                                ast::Expr::mul(
                                    ast::Expr::load("a", ast::Expr::var("i")),
                                    ast::Expr::const_f(1.5),
                                ),
                            )],
                        ),
                        ast::Stmt::simple_for(
                            "i",
                            ast::Expr::const_i(0),
                            ast::Expr::const_i(4),
                            vec![ast::Stmt::assign(
                                ast::LValue::store("c", ast::Expr::var("i")),
                                ast::Expr::const_f(1.0),
                            )],
                        ),
                    ]),
            )
            .build()
    }

    #[test]
    fn coverage_profiling_separates_hot_and_cold_loops() {
        let bin = Compiler::with_options(CompileOptions::gcc_o2())
            .compile(&hot_cold_program())
            .unwrap();
        let analysis = analyze(&bin).unwrap();
        let schedule = generate_profiling_schedule(&analysis, "hotcold");
        assert!(!schedule.is_empty());
        let process = Process::load(&bin).unwrap();
        let data = profile(&process, &schedule, &[]).unwrap();
        assert!(data.total_instructions > 0);
        // Find the two loops by trip count.
        let hot = analysis
            .loops
            .iter()
            .find(|l| l.trip_count() == Some(512))
            .unwrap();
        let cold = analysis
            .loops
            .iter()
            .find(|l| l.trip_count() == Some(4))
            .unwrap();
        assert!(data.coverage(hot.id) > 0.5, "hot loop dominates execution");
        assert!(data.coverage(cold.id) < 0.1);
        let hp = data.loop_profile(hot.id).unwrap();
        assert_eq!(hp.invocations, 1);
        assert_eq!(hp.iterations, 512);
        assert!(!hp.observed_dependence);
    }

    #[test]
    fn dependence_profiling_detects_actual_recurrences() {
        // kernel(d, s, n) with d == s + 1 element: the pointer-based loop has a
        // real cross-iteration dependence that only shows up dynamically.
        let p = ast::Program::builder("alias")
            .global_f64("x", 128)
            .function(
                ast::Function::new("kernel")
                    .param("d", ast::Ty::Ptr)
                    .param("s", ast::Ty::Ptr)
                    .param("n", ast::Ty::I64)
                    .local("i", ast::Ty::I64)
                    .body(vec![ast::Stmt::simple_for(
                        "i",
                        ast::Expr::const_i(0),
                        ast::Expr::var("n"),
                        vec![ast::Stmt::assign(
                            ast::LValue::store_ptr("d", ast::Expr::var("i")),
                            ast::Expr::add(
                                ast::Expr::load_ptr("s", ast::Expr::var("i")),
                                ast::Expr::const_f(1.0),
                            ),
                        )],
                    )]),
            )
            .function(ast::Function::new("main").body(vec![ast::Stmt::Call {
                name: "kernel".into(),
                args: vec![
                    ast::Expr::add(ast::Expr::addr_of("x"), ast::Expr::const_i(8)),
                    ast::Expr::addr_of("x"),
                    ast::Expr::const_i(100),
                ],
                ret: None,
            }]))
            .build();
        let bin = Compiler::with_options(CompileOptions::gcc_o2())
            .compile(&p)
            .unwrap();
        let analysis = analyze(&bin).unwrap();
        let schedule = generate_profiling_schedule(&analysis, "alias");
        let process = Process::load(&bin).unwrap();
        let data = profile(&process, &schedule, &[]).unwrap();
        let kernel_loop = analysis
            .loops
            .iter()
            .find(|l| !l.bounds_checks.is_empty())
            .expect("pointer loop found");
        let lp = data.loop_profile(kernel_loop.id).expect("profiled");
        assert!(
            lp.observed_dependence,
            "aliased pointers must be detected as a dynamic dependence"
        );
    }
}
