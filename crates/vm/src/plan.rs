//! Lower once, step runs: the plan every interpreter loop executes.
//!
//! [`crate::Process::load`] lowers each instruction slot of both text
//! sections once into an [`Op`] and tabulates, per slot, the [`Run`] that
//! starts there: the length and summed cost of the straight-line stretch up
//! to and including the next control transfer, or the last slot of the text
//! section — a run never falls from the main text into the system library.
//! Any slot starts a run, so an indirect jump into the middle of one needs
//! no leader analysis. Ops and runs are all a process keeps per slot: the
//! decoded instructions are dropped once lowered. A dispatcher that stops at
//! some slots (rule sites, loop exits, a loop's bound compare) builds a table
//! once with [`Plan::runs_ending_before`] whose runs also end before each of
//! them, so it tests for a stop only where a run starts.
//!
//! [`step_run`] is the one stepper all interpreter loops call: it charges a
//! run's cycles and instruction count at once, executes its ops and returns
//! the last one's [`Effect`]. It is exact:
//!
//! * **Limits.** A run whose cost does not fit under the loop's [`Limit`]
//!   is stepped one instruction at a time with the per-instruction test, so
//!   a limit falls where it would have fallen.
//! * **Faults.** When the k-th op of a run faults, `cycles`, `retired` and
//!   `pc` are wound back to what stepping one instruction at a time leaves:
//!   the first k + 1 instructions charged, `pc` at the faulting one.

use crate::cost::cost;
use crate::cpu::Cpu;
use crate::error::{Result, VmError};
use crate::exec::{exec_op, Effect, Op};
use crate::memory::GuestMemory;
use janus_ir::{decode, JBinary, INST_SIZE};

const STEP: u64 = INST_SIZE as u64;

/// The straight-line run that starts at a slot: its first instruction
/// through its terminator. A run that would overflow either field ends
/// early instead, as at a control transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Run {
    /// Number of instructions in the run (at least one).
    pub len: u16,
    /// Their summed cycle cost.
    pub cost: u16,
}

/// One text section, costed and lowered, by slot.
#[derive(Debug)]
pub(crate) struct Text {
    ops: Vec<Op>,
    costs: Vec<u64>,
}

impl Text {
    /// Decodes, costs ([`cost`]) and lowers `binary`'s text.
    ///
    /// # Errors
    ///
    /// Returns a description naming the address of the first instruction that
    /// fails to decode or to lower ([`Op::lower`]).
    pub(crate) fn lower(binary: &JBinary) -> std::result::Result<Text, String> {
        let slots = binary.text().len().div_ceil(INST_SIZE);
        let mut text = Text {
            ops: Vec::with_capacity(slots),
            costs: Vec::with_capacity(slots),
        };
        for (addr, bytes) in (binary.text_base()..)
            .step_by(INST_SIZE)
            .zip(binary.text().chunks(INST_SIZE))
        {
            let inst = decode(addr, bytes).map_err(|e| e.to_string())?;
            let op = Op::lower(&inst).map_err(|why| format!("{addr:#x}: `{inst}`: {why}"))?;
            text.ops.push(op);
            text.costs.push(cost(&inst));
        }
        Ok(text)
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// The section's own run table: runs end at control transfers and at
    /// its last slot.
    pub(crate) fn runs(&self) -> Vec<Run> {
        let len = self.ops.len();
        runs_of(
            len,
            |slot| self.ops[slot].ends_run() || slot + 1 == len,
            |slot| self.costs[slot],
        )
    }
}

/// A process's lowered text by slot, main text first and the system library
/// after it. The main text's ops and run table are the process's own (its
/// costs are the run table's differences); the library's are lowered once
/// per host process and shared by every process.
#[derive(Debug)]
pub struct Plan {
    /// The main text's ops; slot `ops.len()` is the library's first.
    ops: Vec<Op>,
    runs: Vec<Run>,
    lib: &'static Text,
    lib_runs: &'static [Run],
}

impl Plan {
    /// The main text behind the system library and its run table.
    pub(crate) fn new(main: Text, lib: &'static Text, lib_runs: &'static [Run]) -> Plan {
        let runs = main.runs();
        Plan {
            ops: main.ops,
            runs,
            lib,
            lib_runs,
        }
    }

    /// Number of instruction slots.
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.ops.len() + self.lib.ops.len()
    }

    /// The cycle cost of the instruction in `slot` (panics if out of range).
    #[must_use]
    pub fn cost(&self, slot: usize) -> u64 {
        let Some(&run) = self.runs.get(slot) else {
            return self.lib.costs[slot - self.runs.len()];
        };
        // A run that goes on holds the next slot's run.
        let rest = if run.len > 1 {
            self.runs[slot + 1].cost
        } else {
            0
        };
        u64::from(run.cost - rest)
    }

    /// The lowered op in `slot` (panics if out of range).
    #[must_use]
    #[inline]
    pub fn op(&self, slot: usize) -> &Op {
        match self.ops.get(slot) {
            Some(op) => op,
            None => &self.lib.ops[slot - self.ops.len()],
        }
    }

    /// The run table: runs end at control transfers and at the last slot of
    /// each text section. It covers the main text; [`step_run`] takes a
    /// slot past the end of any table from the library's own.
    #[must_use]
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// A run table whose runs also end before every slot `stop` holds for,
    /// so a loop that stops at those slots only meets them where a run
    /// starts. It covers the library too only if `stop` holds for a library
    /// slot.
    #[must_use]
    pub fn runs_ending_before(&self, stop: impl Fn(usize) -> bool) -> Vec<Run> {
        let (main, total) = (self.ops.len(), self.num_slots());
        let base = if (main..total).any(&stop) {
            [&self.runs[..], self.lib_runs].concat()
        } else {
            self.runs.clone()
        };
        // Cut every run that reaches a stop just before it: a slot whose run
        // goes on to the next (`len > 1`) keeps its run up to the cut, and
        // the cost up to it is the difference of two suffix sums. Later cuts
        // first, so an earlier one in the same run wins.
        let mut runs = base.clone();
        for cut in (1..base.len()).rev().filter(|&slot| stop(slot)) {
            for slot in (0..cut).rev().take_while(|&slot| base[slot].len > 1) {
                runs[slot] = Run {
                    len: (cut - slot) as u16,
                    cost: base[slot].cost - base[cut].cost,
                };
            }
        }
        runs
    }
}

/// The run table over slots `0..len`: a run ends at each slot `ends_at`
/// holds for.
fn runs_of(len: usize, ends_at: impl Fn(usize) -> bool, cost: impl Fn(usize) -> u64) -> Vec<Run> {
    let mut runs = vec![Run::default(); len];
    for slot in (0..len).rev() {
        let own = u16::try_from(cost(slot)).expect("an instruction costs under 2^16 cycles");
        let extended = (!ends_at(slot)).then(|| {
            Some(Run {
                len: runs[slot + 1].len.checked_add(1)?,
                cost: runs[slot + 1].cost.checked_add(own)?,
            })
        });
        runs[slot] = extended.flatten().unwrap_or(Run { len: 1, cost: own });
    }
    runs
}

/// The budget an interpreter loop tests before every instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// Stop once `cycles` exceeds this.
    Cycles(u64),
    /// Stop once `retired` exceeds this.
    Retired(u64),
}

impl Limit {
    /// The per-instruction test: fails once the budget is exceeded.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::CycleLimitExceeded`] carrying the limit.
    #[inline(always)]
    pub fn check(self, cpu: &Cpu) -> Result<()> {
        let (used, limit) = match self {
            Limit::Cycles(limit) => (cpu.cycles, limit),
            Limit::Retired(limit) => (cpu.retired, limit),
        };
        if used > limit {
            return Err(VmError::CycleLimitExceeded { limit });
        }
        Ok(())
    }

    /// Whether no instruction of `run` can fail the test: the whole run,
    /// charged, still fits.
    #[inline(always)]
    fn admits(self, cpu: &Cpu, run: Run) -> bool {
        match self {
            Limit::Cycles(limit) => cpu.cycles.saturating_add(u64::from(run.cost)) <= limit,
            Limit::Retired(limit) => cpu.retired.saturating_add(u64::from(run.len)) <= limit,
        }
    }
}

/// Steps the run of `runs` (or of the library's table, for a slot past its
/// end) that starts at `slot`, the slot of `cpu.pc`,
/// whose first instruction the caller has already tested against `limit`.
/// Charges the run's cost and instruction count, executes its ops and
/// leaves `cpu.pc` at its last instruction, whose [`Effect`] it returns.
///
/// # Errors
///
/// Returns the first fault, with `cycles`, `retired` and `pc` as stepping
/// one instruction at a time leaves them, or [`VmError::CycleLimitExceeded`]
/// where that stepping would have stopped.
#[inline(always)]
pub fn step_run<M: GuestMemory>(
    cpu: &mut Cpu,
    mem: &mut M,
    plan: &Plan,
    runs: &[Run],
    slot: usize,
    limit: Limit,
) -> Result<Effect> {
    let main = plan.ops.len();
    let run = match runs.get(slot) {
        Some(&run) => run,
        None => plan.lib_runs[slot - main],
    };
    let len = run.len as usize;
    if !limit.admits(cpu, run) {
        return step_exact(cpu, mem, plan, slot, len, limit);
    }
    // A run never crosses from one section into the other.
    let ops = match plan.ops.get(slot..slot + len) {
        Some(ops) => ops,
        None => &plan.lib.ops[slot - main..slot - main + len],
    };
    let (cycles, retired, mut pc) = (cpu.cycles, cpu.retired, cpu.pc);
    cpu.cycles += u64::from(run.cost);
    cpu.retired += u64::from(run.len);
    let last = ops.len() - 1;
    for (k, op) in ops.iter().enumerate() {
        match exec_op(cpu, mem, op, pc, pc + STEP) {
            Ok(effect) if k == last => {
                cpu.pc = pc;
                return Ok(effect);
            }
            Ok(_) => pc += STEP,
            Err(e) => {
                cpu.cycles = cycles + (slot..=slot + k).map(|s| plan.cost(s)).sum::<u64>();
                cpu.retired = retired + k as u64 + 1;
                cpu.pc = pc;
                return Err(e);
            }
        }
    }
    unreachable!("a run holds at least one instruction")
}

/// [`step_run`] one instruction at a time, testing `limit` before each but
/// the first: for a run that may cross the limit.
#[cold]
#[inline(never)]
fn step_exact<M: GuestMemory>(
    cpu: &mut Cpu,
    mem: &mut M,
    plan: &Plan,
    slot: usize,
    len: usize,
    limit: Limit,
) -> Result<Effect> {
    let start = cpu.pc;
    for k in 0..len {
        let pc = start + k as u64 * STEP;
        cpu.pc = pc;
        if k > 0 {
            limit.check(cpu)?;
        }
        cpu.cycles += plan.cost(slot + k);
        cpu.retired += 1;
        let effect = exec_op(cpu, mem, plan.op(slot + k), pc, pc + STEP)?;
        if k + 1 == len {
            return Ok(effect);
        }
    }
    unreachable!("a run holds at least one instruction")
}

/// Charges `cost` and one retirement and executes `op` at `cpu.pc`: one
/// instruction outside any run, such as the DBM's loop-bound compare, which
/// it runs in place of the slot's own.
///
/// # Errors
///
/// Returns the op's fault.
#[inline(always)]
pub fn step_op<M: GuestMemory>(cpu: &mut Cpu, mem: &mut M, op: &Op, cost: u64) -> Result<Effect> {
    cpu.cycles += cost;
    cpu.retired += 1;
    let pc = cpu.pc;
    exec_op(cpu, mem, op, pc, pc + STEP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Process;
    use janus_ir::{AluOp, AsmBuilder, Cond, Inst, Operand, Reg};

    /// A table cut from the base one is the table its definition builds:
    /// runs end at control transfers, at each section's last slot and before
    /// every stop; past its end, the library's own.
    #[test]
    fn cut_run_tables_match_their_definition() {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        asm.label("top");
        for k in 0..40 {
            asm.push(Inst::alu(
                AluOp::Add,
                Operand::reg(Reg::R0),
                Operand::imm(k),
            ));
            if k % 9 == 4 {
                asm.push_branch(Cond::Lt, "top");
            }
        }
        asm.push_call_ext("pow");
        asm.push(Inst::Halt);
        let process = Process::load(&asm.finish_binary("main").unwrap()).unwrap();
        let plan = process.plan();
        let (main, total) = (plan.ops.len(), plan.num_slots());
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        for case in 0..200 {
            let stops: Vec<bool> = (0..total)
                .map(|slot| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    let lib_odds = if case % 2 == 0 { 0 } else { 6 };
                    let odds = if slot < main { 4 } else { lib_odds };
                    seed % 64 < odds
                })
                .collect();
            let stop = |slot: usize| stops[slot];
            let want = runs_of(
                total,
                |slot| {
                    plan.op(slot).ends_run()
                        || [main, total].contains(&(slot + 1))
                        || (slot + 1 < total && stop(slot + 1))
                },
                |slot| plan.cost(slot),
            );
            let got = plan.runs_ending_before(stop);
            let covered = [&got[..], &plan.lib_runs[got.len() - main..]].concat();
            assert_eq!(covered, want, "case {case}");
            assert_eq!(got.len() == total, (main..total).any(stop));
        }
    }
}
