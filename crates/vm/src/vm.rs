//! The native-execution virtual machine.
//!
//! [`Vm`] interprets a loaded [`Process`] directly, without any binary
//! modification. It is the "native single-threaded execution" baseline that
//! all Janus speedups in the evaluation are normalised against, and it also
//! provides the runtime services (system calls and native externals) shared
//! with the dynamic binary modifier and the profiler: [`GuestOs`].

use crate::cpu::Cpu;
use crate::error::{Result, VmError};
use crate::exec::{pop_value, Effect};
use crate::memory::FlatMemory;
#[cfg(test)]
use crate::memory::GuestMemory as _;
use crate::plan::{step_run, Limit};
use crate::process::{Process, ResolvedPlt};
use janus_ir::{Reg, SyscallNum, INST_SIZE};
use std::collections::VecDeque;
use std::sync::Arc;

/// Sentinel return address used when the VM calls a guest function on behalf
/// of a native service.
const RETURN_SENTINEL: u64 = 0xffff_ffff_ffff_0000;

/// Modelled per-thread spawn/join overhead, in cycles, charged by the native
/// `par_for` runtime used by compiler-parallelised binaries.
const SPAWN_OVERHEAD: u64 = 3_000;

/// Configuration of a VM run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmConfig {
    /// Abort execution after this many cycles (guards against runaway
    /// programs in tests).
    pub cycle_limit: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            cycle_limit: 20_000_000_000,
        }
    }
}

/// Result of running a program to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Total cycles consumed (virtual time).
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Guest exit code.
    pub exit_code: i64,
}

/// The guest ABI: the process-side state behind the JVA system calls and the
/// `print_*` natives. Every loop that runs a whole guest process (the [`Vm`],
/// the DBM's main thread, the profiler) owns one and routes
/// [`Effect::Syscall`] and native PLT calls through it, so a guest observes
/// the same operating system wherever it runs.
///
/// Both entry points are `#[inline(always)]`: an opaque call that is handed
/// the CPU context anywhere in an interpreter loop keeps `pc`, `cycles` and
/// `retired` from being promoted to registers across the whole loop
/// (out of line, `Vm::run` measured 10 % slower and `profile` 2 %). A loop
/// that makes such calls anyway — the DBM's — is free to wrap them.
#[derive(Debug)]
pub struct GuestOs {
    heap_brk: u64,
    /// Simulated standard input, consumed by [`SyscallNum::ReadInt`].
    pub input: VecDeque<i64>,
    /// Integers the guest wrote ([`SyscallNum::WriteInt`], `print_i64`).
    pub output_ints: Vec<i64>,
    /// Floats the guest wrote ([`SyscallNum::WriteFloat`], `print_f64`).
    pub output_floats: Vec<f64>,
    /// The guest's exit code ([`SyscallNum::Exit`]; 0 until then).
    pub exit_code: i64,
}

impl GuestOs {
    /// The operating-system state of a fresh run of `process` on `input`.
    #[must_use]
    pub fn new(process: &Process, input: &[i64]) -> GuestOs {
        GuestOs {
            heap_brk: process.heap_base(),
            input: input.iter().copied().collect(),
            output_ints: Vec::new(),
            output_floats: Vec::new(),
            exit_code: 0,
        }
    }

    /// Services system call `num` against `cpu`; `clock` is what
    /// [`SyscallNum::Clock`] reports. Returns `true` if the program exits.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnknownSyscall`] for a number outside the ABI.
    #[inline(always)]
    pub fn syscall(&mut self, cpu: &mut Cpu, num: u32, clock: u64) -> Result<bool> {
        let call = SyscallNum::from_u32(num).ok_or(VmError::UnknownSyscall { num })?;
        match call {
            SyscallNum::Exit => {
                self.exit_code = cpu.read_gpr(Reg::R0);
                return Ok(true);
            }
            SyscallNum::WriteInt => self.output_ints.push(cpu.read_gpr(Reg::R1)),
            SyscallNum::WriteFloat => self.output_floats.push(cpu.read_f64(Reg::V0)),
            SyscallNum::Sbrk => {
                // The size is the guest's choice (at most `i64::MAX`, so
                // rounding it up is safe): the break saturates.
                let size = cpu.read_gpr(Reg::R1).max(0) as u64;
                cpu.write_gpr(Reg::R0, self.heap_brk as i64);
                self.heap_brk = self.heap_brk.saturating_add((size + 7) & !7);
            }
            SyscallNum::Clock => cpu.write_gpr(Reg::R0, clock as i64),
            SyscallNum::ReadInt => {
                let v = self.input.pop_front().unwrap_or(0);
                cpu.write_gpr(Reg::R0, v);
            }
        }
        Ok(false)
    }

    /// Services the native external `name` (`print_i64`, `print_f64`); the
    /// caller pops the return address afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnknownExternal`] for any other name.
    #[inline(always)]
    pub fn native(&mut self, name: &str, cpu: &Cpu) -> Result<()> {
        match name {
            "print_i64" => self.output_ints.push(cpu.read_gpr(Reg::R0)),
            "print_f64" => self.output_floats.push(cpu.read_f64(Reg::V0)),
            other => {
                return Err(VmError::UnknownExternal {
                    name: other.to_string(),
                })
            }
        }
        Ok(())
    }
}

/// The virtual machine driving native execution of one process.
#[derive(Debug)]
pub struct Vm {
    process: Process,
    /// The guest CPU context.
    pub cpu: Cpu,
    /// The guest address space.
    pub mem: FlatMemory,
    config: VmConfig,
    os: GuestOs,
}

impl Vm {
    /// Creates a VM for `process` with the default configuration.
    #[must_use]
    pub fn new(process: Process) -> Vm {
        Vm::with_config(process, VmConfig::default())
    }

    /// Creates a VM with an explicit configuration.
    #[must_use]
    pub fn with_config(process: Process, config: VmConfig) -> Vm {
        let mut cpu = Cpu::new();
        cpu.pc = process.entry();
        cpu.set_sp(process.initial_sp());
        let mem = process.initial_memory();
        let os = GuestOs::new(&process, &[]);
        Vm {
            process,
            cpu,
            mem,
            config,
            os,
        }
    }

    /// Provides simulated standard input values consumed by the
    /// [`SyscallNum::ReadInt`] system call.
    pub fn set_input(&mut self, input: &[i64]) {
        self.os.input = input.iter().copied().collect();
    }

    /// Integers written by the guest through [`SyscallNum::WriteInt`].
    #[must_use]
    pub fn output_ints(&self) -> &[i64] {
        &self.os.output_ints
    }

    /// Floats written by the guest through [`SyscallNum::WriteFloat`].
    #[must_use]
    pub fn output_floats(&self) -> &[f64] {
        &self.os.output_floats
    }

    /// The loaded process.
    #[must_use]
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// Runs the program until it halts.
    ///
    /// # Errors
    ///
    /// Returns an error if execution faults (bad PC, division by zero,
    /// unknown import) or exceeds the configured cycle limit.
    pub fn run(&mut self) -> Result<RunResult> {
        self.run_until(None)?;
        Ok(RunResult {
            cycles: self.cpu.cycles,
            retired: self.cpu.retired,
            exit_code: self.os.exit_code,
        })
    }

    /// The interpreter loop: executes from the current program counter until
    /// the program halts or exits, or — when calling a guest function on
    /// behalf of a native service — until control returns to `stop_pc`.
    fn run_until(&mut self, stop_pc: Option<u64>) -> Result<()> {
        let plan = Arc::clone(self.process.plan());
        let limit = Limit::Cycles(self.config.cycle_limit);
        loop {
            limit.check(&self.cpu)?;
            let pc = self.cpu.pc;
            if stop_pc == Some(pc) {
                return Ok(());
            }
            let slot = self.process.slot(pc)?;
            match step_run(
                &mut self.cpu,
                &mut self.mem,
                &plan,
                plan.runs(),
                slot,
                limit,
            )? {
                Effect::Continue => self.cpu.pc += INST_SIZE as u64,
                Effect::Jump(target) => self.cpu.pc = target,
                Effect::Halt => return Ok(()),
                Effect::External { plt } => self.handle_external(plt)?,
                Effect::Syscall { num } => {
                    let clock = self.cpu.cycles;
                    if self.os.syscall(&mut self.cpu, num, clock)? {
                        return Ok(());
                    }
                    self.cpu.pc += INST_SIZE as u64;
                }
            }
        }
    }

    fn handle_external(&mut self, plt: u32) -> Result<()> {
        let name = match self.process.resolve_plt(plt)? {
            ResolvedPlt::Guest { addr, .. } => {
                // Jump straight to the library code; its `ret` will pop the
                // return address that the call pushed.
                self.cpu.pc = *addr;
                return Ok(());
            }
            ResolvedPlt::Native { name } => name.as_str(),
        };
        match name {
            "par_for" => self.native_par_for()?,
            other => self.os.native(other, &self.cpu)?,
        }
        // Return to the caller by popping the pushed return address.
        self.cpu.pc = pop_value(&mut self.cpu, &mut self.mem) as u64;
        Ok(())
    }

    /// The `par_for(fn = r0, start = r1, end = r2, threads = r3)` native.
    ///
    /// This is the runtime library behind compiler auto-parallelisation
    /// (`-parallelize`): the outlined loop body `fn(start, end)` is executed
    /// for `threads` contiguous chunks and the virtual time charged is the
    /// maximum chunk time plus a spawn/join overhead per thread, modelling an
    /// OpenMP-style static schedule on a multicore machine.
    fn native_par_for(&mut self) -> Result<()> {
        let func = self.cpu.read_gpr(Reg::R0) as u64;
        let start = self.cpu.read_gpr(Reg::R1);
        let end = self.cpu.read_gpr(Reg::R2);
        // r1–r3 are the guest's choice: no arithmetic on them may overflow,
        // and a non-empty range must get a non-zero chunk.
        let threads = self.cpu.read_gpr(Reg::R3).max(1) as u64;
        let total = if start < end { end.abs_diff(start) } else { 0 };
        let chunk = total.div_ceil(threads);
        let cycles_before = self.cpu.cycles;
        let mut max_chunk_cycles = 0u64;
        let mut chunk_start = start;
        while chunk_start < end {
            let chunk_end = chunk_start.saturating_add_unsigned(chunk).min(end);
            let before = self.cpu.cycles;
            self.call_guest_function(func, &[chunk_start, chunk_end])?;
            max_chunk_cycles = max_chunk_cycles.max(self.cpu.cycles - before);
            chunk_start = chunk_end;
        }
        // Replace the serial sum of chunk times by the parallel maximum plus
        // the spawn/join overhead.
        self.cpu.cycles = cycles_before
            .saturating_add(max_chunk_cycles)
            .saturating_add(SPAWN_OVERHEAD.saturating_mul(threads));
        Ok(())
    }

    /// Calls a guest function with up to four integer arguments and runs it to
    /// completion, returning when the function returns.
    ///
    /// # Errors
    ///
    /// Propagates any execution error from the callee.
    pub fn call_guest_function(&mut self, addr: u64, args: &[i64]) -> Result<i64> {
        assert!(args.len() <= 4, "at most four integer arguments supported");
        let saved_pc = self.cpu.pc;
        for (i, a) in args.iter().enumerate() {
            self.cpu.write_gpr(Reg::gpr(i as u8), *a);
        }
        crate::exec::push_value(&mut self.cpu, &mut self.mem, RETURN_SENTINEL as i64);
        self.cpu.pc = addr;
        self.run_until(Some(RETURN_SENTINEL))?;
        self.cpu.pc = saved_pc;
        Ok(self.cpu.read_gpr(Reg::R0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_ir::{AluOp, AsmBuilder, Cond, Inst, MemRef, Operand};

    fn run_asm(build: impl FnOnce(&mut AsmBuilder)) -> (Vm, RunResult) {
        let mut asm = AsmBuilder::new();
        build(&mut asm);
        let bin = asm.finish_binary("main").unwrap();
        let process = Process::load(&bin).unwrap();
        let mut vm = Vm::new(process);
        let result = vm.run().unwrap();
        (vm, result)
    }

    #[test]
    fn runs_a_counting_loop() {
        let (vm, result) = run_asm(|asm| {
            asm.function("main");
            asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
            asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(1000)));
            asm.label("loop");
            asm.push(Inst::alu(
                AluOp::Add,
                Operand::reg(Reg::R0),
                Operand::imm(1),
            ));
            asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::reg(Reg::R1)));
            asm.push_branch(Cond::Lt, "loop");
            asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::reg(Reg::R0)));
            asm.push(Inst::Syscall {
                num: SyscallNum::WriteInt.as_u32(),
            });
            asm.push(Inst::Halt);
        });
        assert_eq!(vm.output_ints(), &[1000]);
        assert!(result.retired > 3000, "loop body retired 3 insts * 1000");
        assert!(result.cycles >= result.retired);
    }

    #[test]
    fn exit_syscall_sets_exit_code() {
        let (_, result) = run_asm(|asm| {
            asm.function("main");
            asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(17)));
            asm.push(Inst::Syscall {
                num: SyscallNum::Exit.as_u32(),
            });
        });
        assert_eq!(result.exit_code, 17);
    }

    #[test]
    fn calls_into_the_system_library() {
        let (vm, _) = run_asm(|asm| {
            asm.function("main");
            // v0 = 2.0, v1 = 3.0; call pow; print result.
            asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(2)));
            asm.push(Inst::CvtIntToFloat {
                dst: Reg::V0,
                src: Operand::reg(Reg::R0),
            });
            asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(3)));
            asm.push(Inst::CvtIntToFloat {
                dst: Reg::V1,
                src: Operand::reg(Reg::R0),
            });
            asm.push_call_ext("pow");
            asm.push(Inst::Syscall {
                num: SyscallNum::WriteFloat.as_u32(),
            });
            asm.push(Inst::Halt);
        });
        assert_eq!(vm.output_floats().len(), 1);
        let v = vm.output_floats()[0];
        assert!(v > 1.0, "pow-like function grows for x>1, y>0, got {v}");
    }

    #[test]
    fn sqrt_from_syslib_is_exact() {
        let (vm, _) = run_asm(|asm| {
            asm.function("main");
            asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(144)));
            asm.push(Inst::CvtIntToFloat {
                dst: Reg::V0,
                src: Operand::reg(Reg::R0),
            });
            asm.push_call_ext("sqrt");
            asm.push(Inst::Syscall {
                num: SyscallNum::WriteFloat.as_u32(),
            });
            asm.push(Inst::Halt);
        });
        assert_eq!(vm.output_floats(), &[12.0]);
    }

    #[test]
    fn memcpy_copies_arrays() {
        let mut asm = AsmBuilder::new();
        let src = asm.i64_array("src", 4, &[1, 2, 3, 4]);
        let dst = asm.i64_array("dst", 4, &[]);
        asm.function("main");
        asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(dst as i64)));
        asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(src as i64)));
        asm.push(Inst::mov(Operand::reg(Reg::R2), Operand::imm(32)));
        asm.push_call_ext("memcpy");
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let mut vm = Vm::new(Process::load(&bin).unwrap());
        vm.run().unwrap();
        for i in 0..4 {
            assert_eq!(vm.mem.read_i64(dst + i * 8), (i + 1) as i64);
        }
    }

    #[test]
    fn sbrk_allocates_monotonically() {
        let (vm, _) = run_asm(|asm| {
            asm.function("main");
            asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(64)));
            asm.push(Inst::Syscall {
                num: SyscallNum::Sbrk.as_u32(),
            });
            asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::reg(Reg::R0)));
            asm.push(Inst::Syscall {
                num: SyscallNum::WriteInt.as_u32(),
            });
            asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(64)));
            asm.push(Inst::Syscall {
                num: SyscallNum::Sbrk.as_u32(),
            });
            asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::reg(Reg::R0)));
            asm.push(Inst::Syscall {
                num: SyscallNum::WriteInt.as_u32(),
            });
            asm.push(Inst::Halt);
        });
        let outs = vm.output_ints();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[1] - outs[0], 64);
    }

    #[test]
    fn read_int_consumes_provided_input() {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::Syscall {
            num: SyscallNum::ReadInt.as_u32(),
        });
        asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::reg(Reg::R0)));
        asm.push(Inst::Syscall {
            num: SyscallNum::WriteInt.as_u32(),
        });
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let mut vm = Vm::new(Process::load(&bin).unwrap());
        vm.set_input(&[55]);
        vm.run().unwrap();
        assert_eq!(vm.output_ints(), &[55]);
    }

    #[test]
    fn cycle_limit_catches_infinite_loops() {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.label("spin");
        asm.push_jmp("spin");
        let bin = asm.finish_binary("main").unwrap();
        let mut vm = Vm::with_config(
            Process::load(&bin).unwrap(),
            VmConfig {
                cycle_limit: 10_000,
            },
        );
        assert!(matches!(vm.run(), Err(VmError::CycleLimitExceeded { .. })));
    }

    /// `par_for` over a callee that returns at once, with the guest's r1–r3
    /// set to `(start, end, threads)`: the number of chunks that ran (each
    /// retires exactly the callee's `ret`).
    fn par_for_chunks(start: i64, end: i64, threads: i64) -> u64 {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.push(Inst::Halt);
        asm.function("body");
        asm.push(Inst::Ret);
        let body = asm.label_addr("body").unwrap();
        let bin = asm.finish_binary("main").unwrap();
        let mut vm = Vm::new(Process::load(&bin).unwrap());
        for (reg, value) in
            [Reg::R0, Reg::R1, Reg::R2, Reg::R3]
                .into_iter()
                .zip([body as i64, start, end, threads])
        {
            vm.cpu.write_gpr(reg, value);
        }
        vm.native_par_for().unwrap();
        vm.cpu.retired
    }

    #[test]
    fn par_for_survives_guest_chosen_extremes() {
        // `end - start` does not fit an i64: two chunks, not an endless run
        // of empty ones.
        assert_eq!(par_for_chunks(-1, i64::MAX, 2), 2);
        // `total + threads - 1` and `SPAWN_OVERHEAD * threads` do not fit.
        assert_eq!(par_for_chunks(0, 4, i64::MAX), 4);
        assert_eq!(par_for_chunks(0, 64, 4), 4);
        assert_eq!(par_for_chunks(5, 5, 4), 0);
        assert_eq!(par_for_chunks(9, -9, i64::MIN), 0);
    }

    #[test]
    fn par_for_native_runs_all_chunks_and_charges_max() {
        // Loop body writes arr[i] = i for i in [start, end).
        let mut asm = AsmBuilder::new();
        let arr = asm.i64_array("arr", 64, &[]);
        asm.function("main");
        // par_for(body, 0, 64, 4 threads)
        asm.push(Inst::Lea {
            dst: Reg::R0,
            mem: MemRef::absolute(0),
        });
        // Patch in the function address via a label-load below instead.
        asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(0)));
        asm.push(Inst::mov(Operand::reg(Reg::R2), Operand::imm(64)));
        asm.push(Inst::mov(Operand::reg(Reg::R3), Operand::imm(4)));
        asm.push_call_ext("par_for");
        asm.push(Inst::Halt);
        asm.function("body");
        // for i in r0..r1 { arr[i] = i }
        asm.label("body_loop");
        asm.push(Inst::cmp(Operand::reg(Reg::R0), Operand::reg(Reg::R1)));
        asm.push_branch(Cond::Ge, "body_done");
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
        asm.push_jmp("body_loop");
        asm.label("body_done");
        asm.push(Inst::Ret);
        // Fix up: load the body address into r0 before the call.
        let body_addr = asm.label_addr("body").unwrap();
        let bin = {
            let mut bin_asm = asm;
            // Rebuild the first instruction to carry the correct address: we
            // simply re-emit main with the known address. Easier: overwrite by
            // using the finished binary is complex, so instead assert the Lea
            // trick: absolute(0) + body_addr as displacement is what we want.
            // To keep the test simple we re-assemble from scratch.
            let _ = &mut bin_asm;
            let mut asm2 = AsmBuilder::new();
            let arr2 = asm2.i64_array("arr", 64, &[]);
            assert_eq!(arr2, arr);
            asm2.function("main");
            asm2.push(Inst::mov(
                Operand::reg(Reg::R0),
                Operand::imm(body_addr as i64),
            ));
            asm2.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(0)));
            asm2.push(Inst::mov(Operand::reg(Reg::R2), Operand::imm(64)));
            asm2.push(Inst::mov(Operand::reg(Reg::R3), Operand::imm(4)));
            asm2.push_call_ext("par_for");
            asm2.push(Inst::Halt);
            asm2.function("body");
            asm2.label("body_loop");
            asm2.push(Inst::cmp(Operand::reg(Reg::R0), Operand::reg(Reg::R1)));
            asm2.push_branch(Cond::Ge, "body_done");
            asm2.push(Inst::mov(
                Operand::mem(MemRef {
                    base: None,
                    index: Some(Reg::R0),
                    scale: 8,
                    disp: arr as i64,
                }),
                Operand::reg(Reg::R0),
            ));
            asm2.push(Inst::alu(
                AluOp::Add,
                Operand::reg(Reg::R0),
                Operand::imm(1),
            ));
            asm2.push_jmp("body_loop");
            asm2.label("body_done");
            asm2.push(Inst::Ret);
            assert_eq!(asm2.label_addr("body").unwrap(), body_addr);
            asm2.finish_binary("main").unwrap()
        };
        let mut vm = Vm::new(Process::load(&bin).unwrap());
        vm.run().unwrap();
        for i in 0..64 {
            assert_eq!(vm.mem.read_i64(arr + i * 8), i as i64, "arr[{i}]");
        }
    }
}
