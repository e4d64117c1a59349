//! # janus-vm — the JVA guest machine
//!
//! This crate provides the execution substrate that real hardware provides in
//! the original Janus system: a machine with registers, flags and a flat
//! virtual address space that runs JVA instructions. It is used in two ways:
//!
//! * **Native execution** ([`Vm`]): a whole process (main binary + shared
//!   system library) is loaded and interpreted directly, with a deterministic
//!   cycle cost model. This is the baseline every speedup in the evaluation
//!   is normalised against.
//! * **As the execution engine of the dynamic binary modifier**: the one
//!   executor, [`exec_op`], is generic over the [`GuestMemory`] trait, which
//!   lets the DBM route memory accesses of translated (and possibly
//!   rewritten) instructions through privatised or transactional views.
//!
//! Like a DBM's code cache, the VM decodes once: [`Process::load`] lowers
//! every instruction slot into an [`Op`] — operand forms resolved, registers
//! as bare file indices, anything the executor cannot run refused with a
//! typed [`VmError::Load`] — and tabulates the straight-line [`Run`] that
//! starts at each slot ([`plan`]). Every interpreter loop (the [`Vm`], the
//! profiler, the DBM's main thread, chunks, speculative iterations and
//! transactional callees) calls the one stepper, [`step_run`], which charges
//! a run's cycles and instruction count once and executes its ops, exactly:
//! a cycle limit or a fault inside a run leaves the machine as stepping one
//! instruction at a time would.
//!
//! The [`syslib`] module contains a small math/string library written in JVA
//! assembly and loaded at a high address range; calls into it through the PLT
//! are the "dynamically discovered code" that forces Janus' speculation path.
//!
//! # Example
//!
//! ```
//! use janus_ir::{AsmBuilder, AluOp, Inst, Operand, Reg, SyscallNum};
//! use janus_vm::{Process, Vm};
//!
//! let mut asm = AsmBuilder::new();
//! asm.function("main");
//! asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(2)));
//! asm.push(Inst::alu(AluOp::Mul, Operand::reg(Reg::R0), Operand::imm(21)));
//! asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::reg(Reg::R0)));
//! asm.push(Inst::Syscall { num: SyscallNum::WriteInt.as_u32() });
//! asm.push(Inst::Halt);
//! let binary = asm.finish_binary("main").unwrap();
//!
//! let process = Process::load(&binary).unwrap();
//! let mut vm = Vm::new(process);
//! let result = vm.run().unwrap();
//! assert_eq!(vm.output_ints(), &[42]);
//! assert!(result.cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod cpu;
pub mod exec;
pub mod memory;
pub mod overlay;
pub mod pagetable;
pub mod plan;
pub mod process;
pub mod syslib;
pub mod vm;

mod error;

pub use cost::cost;
pub use cpu::{Cpu, Flags};
pub use error::{Result, VmError};
pub use exec::{exec_op, Effect, Op};
pub use memory::{BasePages, FlatMemory, GuestMemory, PeekMemory};
pub use overlay::{merge_chunk_overlays, ChunkOverlay, CowMemory, MergeStats, OverlayWrite};
pub use pagetable::PageTable;
pub use plan::{step_op, step_run, Limit, Plan, Run};
pub use process::{Process, ResolvedPlt};
pub use syslib::build_syslib;
pub use vm::{GuestOs, RunResult, Vm, VmConfig};
