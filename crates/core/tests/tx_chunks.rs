//! Loops whose bodies call the shared library run their chunks on the
//! native backend's pool like any other DOALL loop, each call inside a
//! transaction. Chunks commit in chunk order; the first chunk whose
//! transactions escaped its stack window, aborted, or read a word an
//! earlier chunk wrote is run again on the calling thread, with every chunk
//! after it, over the merged image. Either way the run reports what the
//! virtual-time backend reports: exit code, outputs, memory image, modelled
//! cycles and STM counters.

use janus_core::{BackendKind, DbmConfig, PreparedDbm, VarSpec};
use janus_dbm::DbmRunResult;
use janus_ir::{AluOp, AsmBuilder, Cond, Inst, JBinary, MemRef, Operand, Reg, INST_SIZE};
use janus_obs::Recorder;
use janus_schedule::{RewriteRule, RewriteSchedule, RuleId};
use janus_vm::{Process, Vm};

const N: i64 = 64;

/// What each iteration of the loop does around its library call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    /// `out[i] = pow(i, 2.0)`: the callee reads the library's own tables
    /// and writes only the chunk's stack.
    Pow,
    /// `out[i] = i; memset(g, i, 64)`: every call writes the same global.
    SharedMemset,
    /// `a[i] = i + 1; out[i] = isum(&a[0], 1)`: every call reads what
    /// iteration 0 wrote.
    ReadsFirstElement,
}

/// `for (r5 = 0; r5 < N; r5++) body(r5)`, then prints `out[0]`,
/// `out[N - 1]` and `g[0]`. Returns the binary and the addresses of the
/// loop header (also the bound compare), the library call and the exit.
fn guest(body: Body) -> (JBinary, u64, u64, u64) {
    let mut asm = AsmBuilder::new();
    let out = asm.i64_array("out", N as usize, &[]);
    let g = asm.i64_array("g", 8, &[]);
    let a = asm.i64_array("a", N as usize, &[]);
    let at = |base: u64| {
        Operand::mem(MemRef {
            base: None,
            index: Some(Reg::R5),
            scale: 8,
            disp: base as i64,
        })
    };
    let mov = |dst: Reg, src: Operand| Inst::mov(Operand::reg(dst), src);
    asm.function("main");
    asm.push(mov(Reg::FP, Operand::reg(Reg::SP)));
    asm.push(mov(Reg::R5, Operand::imm(0)));
    asm.label("header");
    asm.push(Inst::cmp(Operand::reg(Reg::R5), Operand::imm(N)));
    asm.push_branch(Cond::Ge, "exit");
    let (library, result) = match body {
        Body::Pow => {
            asm.push(Inst::CvtIntToFloat {
                dst: Reg::V0,
                src: Operand::reg(Reg::R5),
            });
            asm.push(mov(Reg::R0, Operand::imm(2)));
            asm.push(Inst::CvtIntToFloat {
                dst: Reg::V1,
                src: Operand::reg(Reg::R0),
            });
            ("pow", None)
        }
        Body::SharedMemset => {
            asm.push(Inst::mov(at(out), Operand::reg(Reg::R5)));
            asm.push(mov(Reg::R0, Operand::imm(g as i64)));
            asm.push(mov(Reg::R1, Operand::reg(Reg::R5)));
            asm.push(mov(Reg::R2, Operand::imm(64)));
            ("memset", None)
        }
        Body::ReadsFirstElement => {
            asm.push(mov(Reg::R0, Operand::reg(Reg::R5)));
            asm.push(Inst::alu(
                AluOp::Add,
                Operand::reg(Reg::R0),
                Operand::imm(1),
            ));
            asm.push(Inst::mov(at(a), Operand::reg(Reg::R0)));
            asm.push(mov(Reg::R0, Operand::imm(a as i64)));
            asm.push(mov(Reg::R1, Operand::imm(1)));
            ("isum", Some(Reg::R0))
        }
    };
    let call = asm.push_call_ext(library);
    if body == Body::Pow {
        asm.push(Inst::FMov {
            dst: at(out),
            src: Operand::reg(Reg::V0),
        });
    }
    if let Some(reg) = result {
        asm.push(Inst::mov(at(out), Operand::reg(reg)));
    }
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R5),
        Operand::imm(1),
    ));
    asm.push_jmp("header");
    asm.label("exit");
    for addr in [out, out + 8 * (N as u64 - 1), g] {
        asm.push(mov(Reg::R0, Operand::mem(MemRef::absolute(addr))));
        asm.push_call_ext("print_i64");
    }
    asm.push(Inst::Halt);
    let [header, exit] = ["header", "exit"].map(|l| asm.label_addr(l).expect("label exists"));
    (
        asm.finish_binary("main").expect("assembles"),
        header,
        call,
        exit,
    )
}

/// The schedule the rule generator emits for such a loop: a DOALL on `r5`
/// with the library call wrapped in `TX_START` / `TX_FINISH`.
fn tx_schedule(header: u64, call: u64, exit: u64) -> RewriteSchedule {
    let (kind, value) = VarSpec::Reg(Reg::R5).encode();
    let mut schedule = RewriteSchedule::new("tx-chunks");
    schedule.push(
        RewriteRule::new(header, RuleId::LoopInit)
            .with_data(0, 0)
            .with_data(1, kind)
            .with_data(2, value)
            .with_data(3, 1)
            .with_data(4, header as i64)
            .with_data(5, i64::from(Cond::Lt.code())),
    );
    schedule.push(RewriteRule::new(call, RuleId::TxStart).with_data(0, 0));
    schedule.push(RewriteRule::new(call + INST_SIZE as u64, RuleId::TxFinish).with_data(0, 0));
    schedule.push(RewriteRule::new(exit, RuleId::LoopFinish).with_data(0, 0));
    schedule
}

/// The run, and the chunk the native backend ran again from, if any.
fn run(body: Body, threads: u32, backend: BackendKind) -> (DbmRunResult, Option<u64>) {
    let (binary, header, call, exit) = guest(body);
    let config = DbmConfig {
        threads,
        backend,
        adaptive: false,
        ..DbmConfig::default()
    };
    let recorder = Recorder::enabled();
    let dbm = PreparedDbm::new(
        Process::load(&binary).expect("loads"),
        &tx_schedule(header, call, exit),
        config,
    );
    let result = dbm
        .execute_traced(&[], config, &recorder)
        .unwrap_or_else(|e| panic!("{body:?} at T={threads} on {backend}: {e}"));
    let reruns: Vec<u64> = recorder
        .events()
        .iter()
        .filter(|e| e.name == "chunk.rerun")
        .map(|e| match e.args.iter().find(|(k, _)| *k == "from") {
            Some((_, janus_obs::ArgValue::U64(from))) => *from,
            other => panic!("chunk.rerun without a chunk index: {other:?}"),
        })
        .collect();
    assert!(reruns.len() <= 1, "one invocation, at most one re-run");
    (result, reruns.first().copied())
}

#[test]
fn transactional_loops_commit_in_chunk_order_on_the_pool() {
    for body in [Body::Pow, Body::SharedMemset, Body::ReadsFirstElement] {
        let (binary, ..) = guest(body);
        let mut vm = Vm::new(Process::load(&binary).expect("loads"));
        vm.run().expect("the interpreter finishes");
        for threads in [2u32, 4] {
            let at = format!("{body:?} at T={threads}");
            let (virt, _) = run(body, threads, BackendKind::VirtualTime);
            let (native, rerun) = run(body, threads, BackendKind::NativeThreads);
            assert_eq!(virt.output_ints, vm.output_ints(), "{at}");
            assert_eq!(virt.stats.parallel_invocations, 1, "{at}");
            assert_eq!(virt.stats.stm_transactions, N as u64, "{at}");
            assert_eq!(virt.stats.stm_aborts, 0, "{at}");

            assert_eq!(native.exit_code, virt.exit_code, "{at}");
            assert_eq!(native.output_ints, virt.output_ints, "{at}");
            assert_eq!(native.output_floats, virt.output_floats, "{at}");
            assert_eq!(native.memory_digest, virt.memory_digest, "{at}");
            assert_eq!(native.cycles, virt.cycles, "{at}");
            assert_eq!(native.stats.breakdown, virt.stats.breakdown, "{at}");
            let stm = |r: &DbmRunResult| {
                let s = &r.stats;
                (s.stm_transactions, s.stm_aborts, s.stm_reads, s.stm_writes)
            };
            assert_eq!(stm(&native), stm(&virt), "{at}");
            assert_eq!(native.stats.os_threads_used, u64::from(threads), "{at}");
            match body {
                // The callee wrote only the chunk's stack and read its own
                // table, which no chunk writes.
                Body::Pow => assert_eq!(rerun, None, "{at}: every chunk commits"),
                // Chunk 0's calls wrote the global; chunk 1 may not commit.
                Body::SharedMemset => assert_eq!(rerun, Some(1), "{at}"),
                // Chunk 1's calls read `a[0]`, which chunk 0 wrote.
                Body::ReadsFirstElement => assert_eq!(rerun, Some(1), "{at}"),
            }
        }
    }
}

#[test]
fn one_lane_transactional_loops_run_in_place() {
    // At T = 1 the native backend runs the loop's one chunk in place, as
    // virtual time does: nothing to commit, re-run or merge.
    for body in [Body::Pow, Body::SharedMemset, Body::ReadsFirstElement] {
        let at = format!("{body:?} at T=1");
        let (virt, _) = run(body, 1, BackendKind::VirtualTime);
        let (native, rerun) = run(body, 1, BackendKind::NativeThreads);
        assert_eq!(virt.stats.parallel_invocations, 1, "{at}");
        assert_eq!(native.exit_code, virt.exit_code, "{at}");
        assert_eq!(native.output_ints, virt.output_ints, "{at}");
        assert_eq!(native.memory_digest, virt.memory_digest, "{at}");
        assert_eq!(native.cycles, virt.cycles, "{at}");
        assert_eq!(native.stats.retired, virt.stats.retired, "{at}");
        assert_eq!(native.stats.stm_transactions, N as u64, "{at}");
        assert_eq!(rerun, None, "{at}");
        let merged = native.stats.merge_pages_merged + native.stats.merge_pages_skipped;
        assert_eq!(merged, 0, "{at}");
        assert_eq!(native.stats.os_threads_used, 1, "{at}");
        assert!(native.stats.parallel_wall_nanos > 0, "{at}");
    }
}
