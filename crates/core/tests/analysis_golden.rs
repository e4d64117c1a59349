//! The static analyser's answers, pinned.
//!
//! `janus_analysis::analyze` is a pure function of the binary: how it
//! indexes instructions, registers or blocks internally must never show in
//! what it returns. This test folds a canonical rendering of every recovered
//! function (entry, name, callees, hazards, and every block's range, edges
//! and instruction count) and of every `LoopInfo` (every field) into one
//! FNV-1a digest, over the thirteen suite binaries compiled five ways and
//! 256 generated programs, and checks it against a constant recorded while
//! the analyser still kept its sets in `HashMap`s, `HashSet`s and
//! `BTreeMap`s.
//!
//! Two lists had no defined order then: `reductions` and
//! `read_only_stack_slots` came out in hash order. The rendering sorts both
//! (reductions by stack offset first, then by register encoding), which is
//! the order `analyze` itself now emits them in. On a mismatch the test
//! prints the digest as it is now.
//!
//! The last two tests hold `analyze` to that order: the same binary must
//! give the same `{:?}` and the same rewrite schedule on every call.

use janus_analysis::{analyze, BinaryAnalysis, FunctionCfg, LoopInfo, VarRef};
use janus_compile::{CompileOptions, Compiler, OptLevel};
use janus_core::Janus;
use janus_ir::digest::{fnv1a_update, FNV1A_OFFSET};
use janus_ir::{AluOp, AsmBuilder, Cond, Inst, JBinary, Operand, Reg};
use janus_workloads::{parallel_benchmarks, speculative_benchmarks, workload, ProgramSpec};

/// The digest of every rendering below, recorded before the analyser was
/// rewritten on decoded slots and register masks.
const GOLDEN: u64 = 0x846a_b24b_3f06_3f96;

/// The order `reductions` are emitted in: stack slots by offset, then
/// registers by raw encoding (globals, which no reduction uses, last).
fn reduction_key(var: &VarRef) -> (u8, i128) {
    match var {
        VarRef::Stack(offset) => (0, i128::from(*offset)),
        VarRef::Reg(r) => (1, i128::from(r.raw())),
        VarRef::Global(addr) => (2, i128::from(*addr)),
    }
}

fn render_function(f: &FunctionCfg) -> String {
    let mut out = format!(
        "fn {:#x} {:?} callees={:?} indirect={} syscall={} ext={:?}\n",
        f.entry, f.name, f.callees, f.has_indirect_flow, f.has_syscall, f.external_calls
    );
    for b in &f.blocks {
        out += &format!(
            "  b{} [{:#x},{:#x}) n={} succs={:?} preds={:?}\n",
            b.id,
            b.start,
            b.end,
            b.len(),
            b.succs,
            b.preds
        );
    }
    out
}

fn render_loop(l: &LoopInfo) -> String {
    let mut l = l.clone();
    l.reductions.sort_by_key(|r| reduction_key(&r.var));
    l.read_only_stack_slots.sort_unstable();
    format!("{l:?}\n")
}

fn render(analysis: &BinaryAnalysis) -> String {
    let mut out = String::new();
    for f in &analysis.functions {
        out += &render_function(f);
    }
    for l in &analysis.loops {
        out += &render_loop(l);
    }
    out
}

/// The suite binaries under every compiler configuration that changes code
/// shape, then the generated programs.
fn corpus() -> Vec<(String, JBinary)> {
    let configs = [
        ("O0", CompileOptions::opt(OptLevel::O0)),
        ("O2", CompileOptions::gcc_o2()),
        ("O3", CompileOptions::gcc_o3()),
        ("O3-avx", CompileOptions::gcc_o3_avx()),
        ("icc", CompileOptions::icc_o3()),
    ];
    let mut out = Vec::new();
    for name in parallel_benchmarks()
        .into_iter()
        .chain(speculative_benchmarks())
    {
        let w = workload(name).expect("known workload");
        for (label, options) in configs {
            let binary = Compiler::with_options(options)
                .compile(&w.program)
                .expect("workload compiles");
            out.push((format!("{name} {label}"), binary));
        }
    }
    for seed in 0..256 {
        let binary = Compiler::new()
            .compile(&ProgramSpec::generate(seed).lower())
            .expect("generated program compiles");
        out.push((format!("seed {seed}"), binary));
    }
    out
}

#[test]
fn analysis_of_the_corpus_matches_its_golden_digest() {
    let mut digest = FNV1A_OFFSET;
    let mut loops = 0;
    for (name, binary) in corpus() {
        let analysis = analyze(&binary).expect("analysis succeeds");
        loops += analysis.loops.len();
        digest = fnv1a_update(digest, name.as_bytes());
        digest = fnv1a_update(digest, render(&analysis).as_bytes());
    }
    assert!(loops > 1000, "the corpus has loops ({loops})");
    assert_eq!(
        digest, GOLDEN,
        "analysis digest is now {digest:#018x} over {loops} loops"
    );
}

/// `for (r0 = 0; r0 < 100; r0++) { r7 += r0; r3 -= r0; }`: two register
/// accumulators, written in the opposite of register order.
fn two_accumulator_loop() -> JBinary {
    let mut asm = AsmBuilder::new();
    asm.function("main");
    for r in [Reg::R0, Reg::R3, Reg::R7] {
        asm.push(Inst::mov(Operand::reg(r), Operand::imm(0)));
    }
    asm.label("loop");
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R7),
        Operand::reg(Reg::R0),
    ));
    asm.push(Inst::alu(
        AluOp::Sub,
        Operand::reg(Reg::R3),
        Operand::reg(Reg::R0),
    ));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R0),
        Operand::imm(1),
    ));
    asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::imm(100)));
    asm.push_branch(Cond::Lt, "loop");
    asm.push(Inst::Halt);
    asm.finish_binary("main").expect("assembles")
}

#[test]
fn reductions_come_out_in_register_order_every_time() {
    let binary = two_accumulator_loop();
    let janus = Janus::new();
    let mut digests = Vec::new();
    for _ in 0..32 {
        let analysis = analyze(&binary).expect("analysis succeeds");
        assert_eq!(analysis.loops.len(), 1);
        let vars: Vec<VarRef> = analysis.loops[0].reductions.iter().map(|r| r.var).collect();
        assert_eq!(vars, [VarRef::Reg(Reg::R3), VarRef::Reg(Reg::R7)]);
        let selected = janus.select_loops(&analysis, None);
        assert_eq!(selected, [0], "the loop is a static DOALL");
        digests.push(
            janus
                .generate_schedule(&binary, &analysis, &selected)
                .content_digest(),
        );
    }
    assert!(digests.iter().all(|&d| d == digests[0]), "{digests:x?}");
}

#[test]
fn analysing_twice_gives_the_same_answer() {
    let suite = corpus()
        .into_iter()
        .filter(|(name, _)| name.ends_with(" O3"));
    let generated = (0..64).map(|seed| {
        let binary = Compiler::new()
            .compile(&ProgramSpec::generate(seed).lower())
            .expect("generated program compiles");
        (format!("seed {seed}"), binary)
    });
    for (name, binary) in suite.chain(generated) {
        let first = format!("{:?}", analyze(&binary).expect("analysis succeeds"));
        let second = format!("{:?}", analyze(&binary).expect("analysis succeeds"));
        assert!(first == second, "{name}: two analyses differ");
    }
}
