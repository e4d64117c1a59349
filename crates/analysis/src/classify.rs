//! Loop characterisation: combining induction, memory and dependence analysis
//! into the paper's five loop categories.

use crate::cfg::FunctionCfg;
use crate::depend::{analyze_dependences, BoundsCheckPair, Dependence, Reduction};
use crate::induction::{find_induction, InductionVar};
use crate::liveness::Liveness;
use crate::loops::{LoopId, NaturalLoop};
use crate::memory::{collect_accesses, MemAccess};
use janus_ir::{Inst, Reg};

/// The paper's loop categories (section II-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopCategory {
    /// Type A: provably DOALL with only induction/reduction carried values.
    StaticDoall,
    /// Type B: a cross-iteration dependence was proved statically.
    StaticDependence,
    /// Type C: DOALL modulo runtime checks or speculation.
    DynamicDoall,
    /// Type D: profiling observed an actual cross-iteration dependence.
    DynamicDependence,
    /// A *may*-dependent loop (data-dependent subscripts, sparse scatters):
    /// no dependence was proved, but independence cannot be proved or
    /// bounds-checked either. Amenable to Block-STM-style iteration-level
    /// speculation (`janus-spec`); serialised by the seed pipeline.
    Speculative,
    /// Not a candidate for parallelisation at all.
    Incompatible,
}

impl LoopCategory {
    /// Short label used in reports and figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LoopCategory::StaticDoall => "Static DOALL",
            LoopCategory::StaticDependence => "Static Dependence",
            LoopCategory::DynamicDoall => "Dynamic DOALL",
            LoopCategory::DynamicDependence => "Dynamic Dependence",
            LoopCategory::Speculative => "Speculative",
            LoopCategory::Incompatible => "Incompatible",
        }
    }

    /// Returns `true` for the one category the dependence profile decides:
    /// a Type C loop whose training run shows a cross-iteration dependence is
    /// Type D and stays sequential. Type A needs no profile, Type B is never
    /// DOALL, and speculation tolerates real dependences, so the profiler
    /// stamps accesses for these loops only and loop selection reads the
    /// answer for these loops only.
    #[must_use]
    pub fn needs_dependence_profile(self) -> bool {
        self == LoopCategory::DynamicDoall
    }
}

/// Everything Janus knows statically about one loop.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Global loop id (assigned by [`crate::analyze`]).
    pub id: usize,
    /// Index of the containing function in [`crate::BinaryAnalysis::functions`].
    pub function: usize,
    /// Entry address of the containing function.
    pub function_entry: u64,
    /// Loop id within the function.
    pub loop_in_function: LoopId,
    /// Address of the loop header block.
    pub header_addr: u64,
    /// Start addresses of every block in the loop.
    pub block_addrs: Vec<u64>,
    /// Start addresses of the preheader blocks (loop entry points).
    pub preheader_addrs: Vec<u64>,
    /// Addresses of the terminator instructions of exit blocks.
    pub exit_branch_addrs: Vec<u64>,
    /// Start addresses of the blocks control flow reaches after leaving the loop.
    pub exit_target_addrs: Vec<u64>,
    /// Addresses of the latch branches (back edges).
    pub latch_branch_addrs: Vec<u64>,
    /// Nesting depth (1 = outermost).
    pub depth: usize,
    /// Parent loop id within the same function.
    pub parent_in_function: Option<LoopId>,
    /// The recognised induction variable, if any.
    pub induction: Option<InductionVar>,
    /// Every explicit memory access in the loop.
    pub accesses: Vec<MemAccess>,
    /// Recognised reductions.
    pub reductions: Vec<Reduction>,
    /// Proved cross-iteration dependences.
    pub dependences: Vec<Dependence>,
    /// Array pairs requiring runtime bounds checks.
    pub bounds_checks: Vec<BoundsCheckPair>,
    /// Loop-carried scalar registers.
    pub scalar_carried: Vec<Reg>,
    /// Read-only stack slots (candidates for `MEM_MAIN_STACK`).
    pub read_only_stack_slots: Vec<i64>,
    /// Registers live on entry to the loop header (must be materialised in
    /// each thread's context).
    pub live_in_regs: Vec<Reg>,
    /// Dead registers at the loop header usable by the DBM as scratch.
    pub dead_regs: Vec<Reg>,
    /// Addresses of external (PLT) calls inside the loop.
    pub external_call_addrs: Vec<u64>,
    /// `true` when the loop contains a system call.
    pub has_syscall: bool,
    /// `true` when the loop contains indirect jumps or calls.
    pub has_indirect: bool,
    /// `true` when the loop contains direct calls to other functions.
    pub has_internal_call: bool,
    /// `true` when some memory access could not be analysed.
    pub has_unknown_access: bool,
    /// Total number of instructions in the loop body.
    pub num_instructions: usize,
    /// The assigned category.
    pub category: LoopCategory,
    /// Human-readable reason when the loop is incompatible.
    pub incompatible_reason: Option<String>,
}

impl LoopInfo {
    /// Statically known trip count, if any.
    #[must_use]
    pub fn trip_count(&self) -> Option<u64> {
        self.induction.as_ref().and_then(|iv| iv.trip_count)
    }
}

/// Classifies one natural loop.
#[must_use]
pub fn classify_loop(
    func: &FunctionCfg,
    func_idx: usize,
    nl: &NaturalLoop,
    all_loops: &[NaturalLoop],
    live: &Liveness,
) -> LoopInfo {
    let induction = find_induction(func, nl);
    let accesses = collect_accesses(func, nl, induction.as_ref());
    let deps = analyze_dependences(func, nl, induction.as_ref(), &accesses, live);

    // Structural hazard scan.
    let mut has_syscall = false;
    let mut has_indirect = false;
    let mut has_internal_call = false;
    let mut external_call_addrs = Vec::new();
    let mut num_instructions = 0usize;
    for &bid in &nl.blocks {
        for d in &func.blocks[bid].insts {
            num_instructions += 1;
            match &d.inst {
                Inst::Syscall { .. } => has_syscall = true,
                Inst::JmpInd { .. } | Inst::CallInd { .. } => has_indirect = true,
                Inst::Call { .. } => has_internal_call = true,
                Inst::CallExt { .. } => external_call_addrs.push(d.addr),
                _ => {}
            }
        }
    }

    let live_in_regs: Vec<Reg> = live.live_in(nl.header).iter().collect();
    let dead_regs = live.dead_gprs_at(nl.header);

    // Category decision.
    let mut incompatible_reason = None;
    let category = if has_syscall {
        incompatible_reason = Some("loop performs IO or other system calls".to_string());
        LoopCategory::Incompatible
    } else if has_indirect {
        incompatible_reason = Some("loop contains indirect control flow".to_string());
        LoopCategory::Incompatible
    } else if has_internal_call {
        incompatible_reason = Some(
            "loop calls other functions (inter-procedural parallelisation not supported)"
                .to_string(),
        );
        LoopCategory::Incompatible
    } else if induction.is_none() {
        incompatible_reason = Some("no recognisable induction variable".to_string());
        LoopCategory::Incompatible
    } else if induction.as_ref().is_none_or(|iv| iv.bound.is_none()) {
        incompatible_reason = Some("loop bound could not be recognised".to_string());
        LoopCategory::Incompatible
    } else if !deps.dependences.is_empty()
        || !deps.scalar_carried.is_empty()
        || !deps.carried_stack_slots.is_empty()
    {
        LoopCategory::StaticDependence
    } else if deps.has_unknown_access && external_call_addrs.is_empty() {
        // No proved dependence, but an access that cannot be expressed in
        // terms of the induction variable (e.g. `hist[idx[i]]`): a *may*
        // dependence that bounds checks cannot discharge. Iteration-level
        // speculation can run it; everything else must serialise it.
        LoopCategory::Speculative
    } else if !deps.bounds_checks.is_empty()
        || !external_call_addrs.is_empty()
        || deps.has_unknown_access
    {
        LoopCategory::DynamicDoall
    } else {
        LoopCategory::StaticDoall
    };

    let exit_branch_addrs = nl
        .exit_blocks
        .iter()
        .filter_map(|&b| func.blocks[b].terminator().map(|d| d.addr))
        .collect();
    let latch_branch_addrs = nl
        .latches
        .iter()
        .filter_map(|&b| func.blocks[b].terminator().map(|d| d.addr))
        .collect();

    LoopInfo {
        id: 0,
        function: func_idx,
        function_entry: func.entry,
        loop_in_function: nl.id,
        header_addr: func.blocks[nl.header].start,
        block_addrs: nl.blocks.iter().map(|&b| func.blocks[b].start).collect(),
        preheader_addrs: nl
            .preheaders
            .iter()
            .map(|&b| func.blocks[b].start)
            .collect(),
        exit_branch_addrs,
        exit_target_addrs: nl
            .exit_targets
            .iter()
            .map(|&b| func.blocks[b].start)
            .collect(),
        latch_branch_addrs,
        depth: nl.depth,
        parent_in_function: nl.parent.map(|p| all_loops[p].id),
        induction,
        accesses,
        reductions: deps.reductions,
        dependences: deps.dependences,
        bounds_checks: deps.bounds_checks,
        scalar_carried: deps.scalar_carried,
        read_only_stack_slots: deps.read_only_stack_slots,
        live_in_regs,
        dead_regs,
        external_call_addrs,
        has_syscall,
        has_indirect,
        has_internal_call,
        has_unknown_access: deps.has_unknown_access,
        num_instructions,
        category,
        incompatible_reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use janus_compile::{ast, CompileOptions, Compiler};

    fn kernel_program(body: Vec<ast::Stmt>, locals: &[(&str, ast::Ty)]) -> ast::Program {
        let mut f = ast::Function::new("main");
        for (n, t) in locals {
            f = f.local(*n, *t);
        }
        ast::Program::builder("t")
            .global_f64("a", 256)
            .global_f64("b", 256)
            .global_f64("c", 256)
            .global_i64("ints", 256)
            .function(f.body(body))
            .build()
    }

    fn analyze_program(p: &ast::Program) -> crate::BinaryAnalysis {
        let bin = Compiler::with_options(CompileOptions::gcc_o2())
            .compile(p)
            .unwrap();
        analyze(&bin).unwrap()
    }

    #[test]
    fn elementwise_loop_is_static_doall() {
        let p = kernel_program(
            vec![ast::Stmt::simple_for(
                "i",
                ast::Expr::const_i(0),
                ast::Expr::const_i(256),
                vec![ast::Stmt::assign(
                    ast::LValue::store("b", ast::Expr::var("i")),
                    ast::Expr::mul(
                        ast::Expr::load("a", ast::Expr::var("i")),
                        ast::Expr::const_f(2.0),
                    ),
                )],
            )],
            &[("i", ast::Ty::I64)],
        );
        let analysis = analyze_program(&p);
        assert_eq!(analysis.loops.len(), 1);
        let l = &analysis.loops[0];
        assert_eq!(l.category, LoopCategory::StaticDoall, "{l:#?}");
        assert!(l.trip_count().is_some());
        assert!(l.bounds_checks.is_empty());
    }

    #[test]
    fn reduction_loop_is_still_static_doall() {
        let p = kernel_program(
            vec![
                ast::Stmt::assign(ast::LValue::var("s"), ast::Expr::const_f(0.0)),
                ast::Stmt::simple_for(
                    "i",
                    ast::Expr::const_i(0),
                    ast::Expr::const_i(256),
                    vec![ast::Stmt::assign(
                        ast::LValue::var("s"),
                        ast::Expr::add(
                            ast::Expr::var("s"),
                            ast::Expr::load("a", ast::Expr::var("i")),
                        ),
                    )],
                ),
                ast::Stmt::print(ast::Expr::var("s")),
            ],
            &[("i", ast::Ty::I64), ("s", ast::Ty::F64)],
        );
        let analysis = analyze_program(&p);
        let l = &analysis.loops[0];
        assert_eq!(l.category, LoopCategory::StaticDoall, "{l:#?}");
        assert_eq!(l.reductions.len(), 1, "the accumulator is a reduction");
    }

    #[test]
    fn recurrence_loop_is_static_dependence() {
        // a[i] = a[i - 1] + 1.0
        let p = kernel_program(
            vec![ast::Stmt::simple_for(
                "i",
                ast::Expr::const_i(1),
                ast::Expr::const_i(256),
                vec![ast::Stmt::assign(
                    ast::LValue::store("a", ast::Expr::var("i")),
                    ast::Expr::add(
                        ast::Expr::load(
                            "a",
                            ast::Expr::sub(ast::Expr::var("i"), ast::Expr::const_i(1)),
                        ),
                        ast::Expr::const_f(1.0),
                    ),
                )],
            )],
            &[("i", ast::Ty::I64)],
        );
        let analysis = analyze_program(&p);
        let l = &analysis.loops[0];
        assert_eq!(l.category, LoopCategory::StaticDependence, "{l:#?}");
    }

    #[test]
    fn io_in_loop_is_incompatible() {
        let p = kernel_program(
            vec![ast::Stmt::simple_for(
                "i",
                ast::Expr::const_i(0),
                ast::Expr::const_i(16),
                vec![ast::Stmt::print(ast::Expr::var("i"))],
            )],
            &[("i", ast::Ty::I64)],
        );
        let analysis = analyze_program(&p);
        let l = &analysis.loops[0];
        assert_eq!(l.category, LoopCategory::Incompatible);
        assert!(l
            .incompatible_reason
            .as_ref()
            .unwrap()
            .contains("system calls"));
    }

    #[test]
    fn pointer_kernel_requires_bounds_checks_and_is_dynamic_doall() {
        let p = ast::Program::builder("ptr")
            .global_f64("x", 128)
            .global_f64("y", 128)
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
                    ast::Expr::addr_of("y"),
                    ast::Expr::addr_of("x"),
                    ast::Expr::const_i(128),
                ],
                ret: None,
            }]))
            .build();
        let analysis = analyze_program(&p);
        let l = analysis
            .loops
            .iter()
            .find(|l| !l.accesses.is_empty())
            .expect("kernel loop found");
        assert_eq!(l.category, LoopCategory::DynamicDoall, "{l:#?}");
        assert!(!l.bounds_checks.is_empty());
    }

    #[test]
    fn external_call_in_loop_is_dynamic_doall_needing_speculation() {
        let p = kernel_program(
            vec![ast::Stmt::simple_for(
                "i",
                ast::Expr::const_i(0),
                ast::Expr::const_i(64),
                vec![
                    ast::Stmt::call_ext(
                        "sqrt",
                        vec![ast::Expr::load("a", ast::Expr::var("i"))],
                        Some(ast::LValue::var("t")),
                    ),
                    ast::Stmt::assign(
                        ast::LValue::store("b", ast::Expr::var("i")),
                        ast::Expr::var("t"),
                    ),
                ],
            )],
            &[("i", ast::Ty::I64), ("t", ast::Ty::F64)],
        );
        let analysis = analyze_program(&p);
        let l = analysis
            .loops
            .iter()
            .find(|l| !l.external_call_addrs.is_empty())
            .expect("loop with external call");
        assert_eq!(l.category, LoopCategory::DynamicDoall, "{l:#?}");
    }

    #[test]
    fn data_dependent_subscript_is_speculative() {
        // ints[ints[i]] += 1: the store address depends on loaded data, so
        // independence can neither be proved nor bounds-checked — the loop is
        // a speculation candidate.
        let p = kernel_program(
            vec![ast::Stmt::simple_for(
                "i",
                ast::Expr::const_i(0),
                ast::Expr::const_i(256),
                vec![ast::Stmt::assign(
                    ast::LValue::store("ints", ast::Expr::load("ints", ast::Expr::var("i"))),
                    ast::Expr::add(
                        ast::Expr::load("ints", ast::Expr::load("ints", ast::Expr::var("i"))),
                        ast::Expr::const_i(1),
                    ),
                )],
            )],
            &[("i", ast::Ty::I64)],
        );
        let analysis = analyze_program(&p);
        let l = analysis
            .loops
            .iter()
            .find(|l| l.has_unknown_access)
            .expect("loop with a data-dependent access");
        assert_eq!(l.category, LoopCategory::Speculative, "{l:#?}");
    }

    #[test]
    fn indirect_call_in_loop_is_incompatible() {
        let p = ast::Program::builder("ind")
            .global_i64("table", 4)
            .function(ast::Function::new("callee").body(vec![]))
            .function(
                ast::Function::new("main")
                    .local("i", ast::Ty::I64)
                    .body(vec![
                        ast::Stmt::assign(
                            ast::LValue::store("table", ast::Expr::const_i(0)),
                            ast::Expr::AddrOfFn("callee".into()),
                        ),
                        ast::Stmt::simple_for(
                            "i",
                            ast::Expr::const_i(0),
                            ast::Expr::const_i(4),
                            vec![ast::Stmt::CallIndirect {
                                table: "table".into(),
                                index: ast::Expr::const_i(0),
                            }],
                        ),
                    ]),
            )
            .build();
        let analysis = analyze_program(&p);
        let l = analysis
            .loops
            .iter()
            .find(|l| l.has_indirect)
            .expect("loop with indirect call");
        assert_eq!(l.category, LoopCategory::Incompatible);
    }

    #[test]
    fn category_histogram_counts_all_loops() {
        let p = kernel_program(
            vec![
                ast::Stmt::simple_for(
                    "i",
                    ast::Expr::const_i(0),
                    ast::Expr::const_i(64),
                    vec![ast::Stmt::assign(
                        ast::LValue::store("b", ast::Expr::var("i")),
                        ast::Expr::load("a", ast::Expr::var("i")),
                    )],
                ),
                ast::Stmt::simple_for(
                    "i",
                    ast::Expr::const_i(1),
                    ast::Expr::const_i(64),
                    vec![ast::Stmt::assign(
                        ast::LValue::store("c", ast::Expr::var("i")),
                        ast::Expr::load(
                            "c",
                            ast::Expr::sub(ast::Expr::var("i"), ast::Expr::const_i(1)),
                        ),
                    )],
                ),
            ],
            &[("i", ast::Ty::I64)],
        );
        let analysis = analyze_program(&p);
        let hist = analysis.category_histogram();
        let total: usize = hist.iter().map(|(_, n)| n).sum();
        assert_eq!(total, analysis.loops.len());
        assert_eq!(total, 2);
    }
}
