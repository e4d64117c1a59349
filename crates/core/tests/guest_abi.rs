//! One guest ABI: the JVA system calls and the `print_*` natives behave the
//! same under `Vm::run`, under `PreparedDbm::execute` on both backends and
//! under `janus_profile::profile`, because all three route them through
//! `janus_vm::GuestOs`.
//!
//! Compiled guests only ever issue `WriteInt` / `WriteFloat`, so the rest of
//! the ABI — `ReadInt` (present and absent), `Sbrk`, a native call on the
//! main thread, `Exit` — is driven by a hand-assembled guest here.

use janus_core::{BackendKind, DbmConfig, PreparedDbm};
use janus_ir::{AluOp, AsmBuilder, Cond, Inst, JBinary, Operand, Reg, SyscallNum, HEAP_BASE};
use janus_profile::profile;
use janus_schedule::RewriteSchedule;
use janus_vm::{Process, Vm};

fn syscall(asm: &mut AsmBuilder, call: SyscallNum) {
    asm.push(Inst::Syscall { num: call.as_u32() });
}

fn mov(asm: &mut AsmBuilder, dst: Reg, src: Operand) {
    asm.push(Inst::mov(Operand::reg(dst), src));
}

/// `Sbrk(size)`, then `WriteInt` of the break it returned.
fn sbrk_and_print(asm: &mut AsmBuilder, size: i64) {
    mov(asm, Reg::R1, Operand::imm(size));
    syscall(asm, SyscallNum::Sbrk);
    mov(asm, Reg::R1, Operand::reg(Reg::R0));
    syscall(asm, SyscallNum::WriteInt);
}

/// Reads `n` and a second (absent) input, grows the heap twice by 13 bytes
/// printing both breaks, calls `print_i64(i)` for `i` in `n..=1` counting
/// down, prints the second input and leaves through `Exit(7)`.
fn abi_guest() -> JBinary {
    let mut asm = AsmBuilder::new();
    asm.function("main");
    syscall(&mut asm, SyscallNum::ReadInt);
    mov(&mut asm, Reg::R5, Operand::reg(Reg::R0));
    syscall(&mut asm, SyscallNum::ReadInt);
    mov(&mut asm, Reg::R6, Operand::reg(Reg::R0));
    sbrk_and_print(&mut asm, 13);
    sbrk_and_print(&mut asm, 13);
    asm.label("again");
    mov(&mut asm, Reg::R0, Operand::reg(Reg::R5));
    asm.push_call_ext("print_i64");
    asm.push(Inst::alu(
        AluOp::Sub,
        Operand::reg(Reg::R5),
        Operand::imm(1),
    ));
    asm.push(Inst::cmp(Operand::reg(Reg::R5), Operand::imm(0)));
    asm.push_branch(Cond::Gt, "again");
    mov(&mut asm, Reg::R1, Operand::reg(Reg::R6));
    syscall(&mut asm, SyscallNum::WriteInt);
    mov(&mut asm, Reg::R0, Operand::imm(7));
    syscall(&mut asm, SyscallNum::Exit);
    asm.finish_binary("main").expect("assembles")
}

/// Two `Sbrk(i64::MAX)` calls: the second one pushed the break past
/// `u64::MAX` ("attempt to add with overflow" in a debug build, a silent
/// wrap in release) in all three copies of the system-call table.
fn greedy_guest() -> JBinary {
    let mut asm = AsmBuilder::new();
    asm.function("main");
    sbrk_and_print(&mut asm, i64::MAX);
    sbrk_and_print(&mut asm, i64::MAX);
    sbrk_and_print(&mut asm, 8);
    asm.push(Inst::Halt);
    asm.finish_binary("main").expect("assembles")
}

/// What one run of a guest left behind.
#[derive(Debug, PartialEq)]
struct Observed {
    output_ints: Vec<i64>,
    exit_code: i64,
    memory_digest: u64,
    retired: u64,
}

/// Runs `binary` on `input` through the plain interpreter, the DBM on both
/// backends and the profiler; asserts they agree and returns what they saw.
fn run_everywhere(binary: &JBinary, input: &[i64]) -> Observed {
    let process = Process::load(binary).expect("loads");
    let mut vm = Vm::new(process.clone());
    vm.set_input(input);
    let native = vm.run().expect("Vm::run succeeds");
    assert!(vm.output_floats().is_empty());
    let seen = Observed {
        output_ints: vm.output_ints().to_vec(),
        exit_code: native.exit_code,
        memory_digest: vm.mem.image_digest(),
        retired: native.retired,
    };

    // No rewrite rules: the guest runs on the DBM's main thread, which is
    // the loop that services system calls and natives.
    let schedule = RewriteSchedule::new("guest_abi");
    for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
        let config = DbmConfig {
            backend,
            ..DbmConfig::default()
        };
        let run = PreparedDbm::new(process.clone(), &schedule, config)
            .execute(input)
            .expect("PreparedDbm::execute succeeds");
        assert!(run.output_floats.is_empty());
        let under_dbm = Observed {
            output_ints: run.output_ints,
            exit_code: run.exit_code,
            memory_digest: run.memory_digest,
            retired: run.stats.retired,
        };
        assert_eq!(under_dbm, seen, "{backend:?}");
    }

    let profiled = profile(&process, &schedule, input).expect("profile succeeds");
    assert_eq!(profiled.total_instructions, seen.retired);
    seen
}

#[test]
fn every_process_loop_serves_the_same_guest_abi() {
    let seen = run_everywhere(&abi_guest(), &[5]);
    // 8-byte rounding of the 13-byte requests, from the heap base.
    let base = HEAP_BASE as i64;
    assert_eq!(seen.output_ints, [base, base + 16, 5, 4, 3, 2, 1, 0]);
    assert_eq!(seen.exit_code, 7);
    // 4 to read the inputs, 8 for the two breaks, 5 per loop trip, 4 to leave.
    assert_eq!(seen.retired, 4 + 8 + 5 * 5 + 4);

    // The loop trip count is the first input: one more trip, five more
    // instructions and one more line of output, everywhere.
    let six = run_everywhere(&abi_guest(), &[6, 9]);
    assert_eq!(six.retired, seen.retired + 5);
    assert_eq!(six.output_ints[2..], [6, 5, 4, 3, 2, 1, 9]);
}

#[test]
fn the_heap_break_saturates_instead_of_overflowing() {
    let seen = run_everywhere(&greedy_guest(), &[]);
    let base = HEAP_BASE;
    // `i64::MAX` rounds up to 2^63; the second request saturates the break.
    let second = base + (1 << 63);
    assert_eq!(
        seen.output_ints,
        [base as i64, second as i64, u64::MAX as i64]
    );
    assert_eq!(seen.exit_code, 0);
}
