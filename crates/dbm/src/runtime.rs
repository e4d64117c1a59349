//! The rewrite-rule-driven execution engine: rule decoding, parallel-loop
//! *planning* (chunking, context forking, bounds checks) and the merge of
//! chunk results back into the main thread. The *execution* of planned
//! chunks is a `match` on [`crate::BackendKind`] in `backend.rs`.
//!
//! Rules are decoded once. [`PreparedDbm::new`] turns each loop's rules into
//! a `LoopRt` whose fields are already valid — registers as [`Reg`]s, the
//! continue condition as a [`Cond`] read through janus-ir's one code table
//! ([`Cond::from_code`]), the bound compare's slot and operands — and drops
//! every loop with a rule that does not decode. No handler checks a rule
//! word again. A parallel invocation, whether DOALL chunks or speculative
//! iterations, then has one fork (`LoopRt::fork`, per unit) and one join
//! (`Dbm::join`).

use crate::backend::{
    ChunkContext, ChunkPlan, ChunkPool, ChunkSideEffects, CodeCache, SpecPayload,
};
use crate::stm::{TxLog, TxView};
use crate::tuner::{TuneDecision, Tuner};
use crate::{DbmConfig, DbmError, DbmStats, Result};
use janus_ir::{Cond, Inst, Operand, Reg, INST_SIZE, STACK_SIZE};
use janus_obs::Recorder;
use janus_schedule::{RewriteRule, RewriteSchedule, RuleId, RuleTable};
use janus_vm::{
    cost, step_op, step_run, Cpu, Effect, FlatMemory, GuestMemory, GuestOs, Limit, Op, Process,
    ResolvedPlt, Run,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

const STEP: u64 = INST_SIZE as u64;

/// Extra cycles charged for every indirect branch, call or return that must
/// go through the DBM's target lookup.
const INDIRECT_LOOKUP_COST: u64 = 12;
/// Cycles charged per thread to initialise a parallel loop (wake from the
/// thread pool, copy initial context).
const LOOP_INIT_COST: u64 = 2_200;
/// Cycles charged per thread to finish a parallel loop (barrier + merge).
const LOOP_FINISH_COST: u64 = 1_400;
/// Cycles charged per array-bounds-check pair per loop invocation.
const BOUNDS_CHECK_COST: u64 = 35;
/// Minimum iterations per thread below which a loop invocation is run
/// sequentially (parallelisation would not be profitable).
const MIN_ITERATIONS_PER_THREAD: i64 = 1;
/// Extra cycles per transactional (STM) memory read.
const STM_READ_COST: u64 = 8;
/// Extra cycles per transactional (STM) memory write.
const STM_WRITE_COST: u64 = 14;
/// Cycles per logged read or write validated or committed at transaction end.
const STM_COMMIT_COST: u64 = 16;

/// The most iterations one speculative invocation may take; a longer one
/// runs sequentially. The guest chooses the trip count, and the engine keeps
/// about 150 bytes of state per iteration before the first guest access:
/// the scheduler's status slot (40), the ranges of the iteration's write set
/// and read set (16 each), its payload slot (40) and the payload handed back
/// (40). The cap bounds that at about 10 MiB per invocation, where 2⁴⁰
/// iterations would ask the allocator for hundreds of TiB. The suite's
/// largest invocation is 4 410 iterations (`spec.histogram`).
pub const MAX_SPECULATIVE_ITERATIONS: usize = 1 << 16;

/// How a scalar variable location is encoded inside rewrite-rule data words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarSpec {
    /// An architectural register.
    Reg(Reg),
    /// A frame-pointer-relative stack slot.
    Stack(i64),
}

impl VarSpec {
    /// Encodes into `(kind, value)` data words.
    #[must_use]
    pub fn encode(self) -> (i64, i64) {
        match self {
            VarSpec::Reg(r) => (0, i64::from(r.raw())),
            VarSpec::Stack(off) => (1, off),
        }
    }

    /// Decodes from `(kind, value)` data words; `None` for an unknown kind
    /// or a register outside the file.
    #[must_use]
    pub fn decode(kind: i64, value: i64) -> Option<VarSpec> {
        match kind {
            0 => Reg::from_raw(u8::try_from(value).ok()?).map(VarSpec::Reg),
            1 => Some(VarSpec::Stack(value)),
            _ => None,
        }
    }

    /// The raw bits of the scalar, whichever register file or frame holds it.
    fn read<M: GuestMemory>(self, cpu: &Cpu, mem: &mut M) -> i64 {
        match self {
            VarSpec::Reg(r) if r.is_gpr() => cpu.read_gpr(r),
            VarSpec::Reg(r) => cpu.read_f64(r).to_bits() as i64,
            VarSpec::Stack(off) => mem.read_i64(cpu.read_gpr(Reg::FP).wrapping_add(off) as u64),
        }
    }

    fn write<M: GuestMemory>(self, cpu: &mut Cpu, mem: &mut M, value: i64) {
        match self {
            VarSpec::Reg(r) if r.is_gpr() => cpu.write_gpr(r, value),
            VarSpec::Reg(r) => cpu.write_f64(r, f64::from_bits(value as u64)),
            VarSpec::Stack(off) => {
                mem.write_i64(cpu.read_gpr(Reg::FP).wrapping_add(off) as u64, value);
            }
        }
    }
}

/// One side of a runtime bounds check, as encoded in `MEM_BOUNDS_CHECK` data
/// words: either a global array base or a register-held base, plus the byte
/// stride per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SideSpec {
    /// `None` for a statically known base, `Some(reg)` for a register base
    /// (always a general-purpose register once decoded).
    pub reg: Option<Reg>,
    /// Absolute base (global) or byte offset from the register base.
    pub base_or_offset: i64,
    /// Byte stride per loop iteration.
    pub stride: i64,
}

impl SideSpec {
    /// Encodes into two data words.
    #[must_use]
    pub fn encode(self) -> (i64, i64) {
        let w1 = match self.reg {
            None => self.stride << 16,
            Some(r) => 1 | (i64::from(r.raw()) << 8) | (self.stride << 16),
        };
        (w1, self.base_or_offset)
    }

    /// Decodes from two data words; `None` if the base register is not a
    /// general-purpose register.
    #[must_use]
    pub fn decode(w1: i64, w2: i64) -> Option<SideSpec> {
        let reg = if (w1 & 1) == 1 {
            Some(Reg::from_raw(((w1 >> 8) & 0xff) as u8).filter(|r| r.is_gpr())?)
        } else {
            None
        };
        Some(SideSpec {
            reg,
            base_or_offset: w2,
            stride: w1 >> 16,
        })
    }

    /// The address range `[lo, hi)` touched over `iterations` iterations,
    /// evaluated against the current register state; exact, as the register
    /// and the count are the guest's.
    fn range(&self, cpu: &Cpu, iterations: i64) -> (i128, i128) {
        let start =
            i128::from(self.base_or_offset) + self.reg.map_or(0, |r| i128::from(cpu.read_gpr(r)));
        let span = i128::from(self.stride) * i128::from((iterations - 1).max(0));
        let (lo, hi) = if span >= 0 {
            (start, start + span)
        } else {
            (start + span, start)
        };
        (lo, hi + 8)
    }
}

/// One loop's rules, decoded and checked once by [`PreparedDbm::new`]: every
/// register is in its file (the induction variable's and every address
/// base's a GPR), the continue condition is one the rule generator emits,
/// the bound compare is a `Cmp` and every `TX_START` sits on its call. Rule
/// handlers act on these fields and check nothing again.
#[derive(Debug, Clone)]
pub(crate) struct LoopRt {
    header: u64,
    induction: VarSpec,
    step: i64,
    /// The condition under which the loop continues: Ne, Lt, Le, Gt or Ge.
    continue_cond: Cond,
    /// The slot of the bound compare, run specialised to a unit's bound.
    bound_cmp: usize,
    /// The bound compare's left operand: a unit compares it with its own
    /// bound.
    bound_lhs: Operand,
    /// The bound compare's right operand: the loop bound.
    bound_rhs: Operand,
    /// The privatised reduction variables, each with whether it is a float.
    reductions: Vec<(VarSpec, bool)>,
    bounds_pairs: Vec<(SideSpec, SideSpec)>,
    /// `SPECULATE`: run invocations of this loop under the iteration-level
    /// speculation engine instead of chunked DOALL execution.
    speculative: bool,
    // The loop's own stops, sized by the loop: where its chunks and
    // speculative iterations do more than step a run. Each starts a run of
    // `PreparedParts::runs`; another loop's stops never stop them.
    /// The slots of the `LOOP_FINISH` / `THREAD_YIELD` rules: a chunk ends.
    exits: Vec<usize>,
    /// The `TX_START` calls (STM-wrapped shared-library calls) by slot,
    /// with the PLT index each calls.
    tx_calls: Vec<(usize, u32)>,
}

impl LoopRt {
    /// Decodes a `LOOP_INIT` rule into a loop with no other rules yet;
    /// `None` if a word does not decode or names the wrong instruction.
    fn decode(process: &Process, rule: &RewriteRule) -> Option<LoopRt> {
        // A header with no instruction never fires.
        process.slot_of(rule.addr)?;
        let bound_cmp = process.slot_of(rule.data[4] as u64)?;
        let Inst::Cmp { lhs, rhs } = process.inst(bound_cmp) else {
            return None;
        };
        let continue_cond = u8::try_from(rule.data[5])
            .ok()
            .and_then(Cond::from_code)
            .filter(|c| matches!(c, Cond::Ne | Cond::Lt | Cond::Le | Cond::Gt | Cond::Ge))?;
        // The induction variable is an integer: a stack slot or a GPR.
        let induction = VarSpec::decode(rule.data[1], rule.data[2])
            .filter(|var| !matches!(var, VarSpec::Reg(r) if !r.is_gpr()))?;
        Some(LoopRt {
            header: rule.addr,
            induction,
            step: rule.data[3],
            continue_cond,
            bound_cmp,
            bound_lhs: lhs,
            bound_rhs: rhs,
            reductions: Vec::new(),
            bounds_pairs: Vec::new(),
            speculative: false,
            exits: Vec::new(),
            tx_calls: Vec::new(),
        })
    }

    /// The fork (`LOOP_INIT` per unit): readies `cpu`, a copy of the main
    /// context, to run iterations `from..to` of an invocation whose
    /// induction variable starts at `start`. Its counters are zeroed, it
    /// starts at the header with its own induction value, and every unit
    /// but the first starts its reduction accumulators from the identity
    /// (all-zero bits, integer or float); the first keeps the incoming
    /// value. Returns the unit's `LOOP_UPDATE_BOUND` bound.
    fn fork<M: GuestMemory>(
        &self,
        cpu: &mut Cpu,
        mem: &mut M,
        start: i64,
        from: i64,
        to: i64,
    ) -> i64 {
        cpu.cycles = 0;
        cpu.retired = 0;
        cpu.pc = self.header;
        self.induction
            .write(cpu, mem, induction_at(start, from, self.step));
        if from > 0 {
            for &(var, _) in &self.reductions {
                var.write(cpu, mem, 0);
            }
        }
        let end = induction_at(start, to, self.step);
        match self.continue_cond {
            // An inclusive bound names the unit's last value.
            Cond::Le | Cond::Ge => end - self.step,
            _ => end,
        }
    }
}

/// The result of running a binary under the dynamic binary modifier.
#[derive(Debug, Clone)]
pub struct DbmRunResult {
    /// Guest exit code.
    pub exit_code: i64,
    /// Total virtual execution time in cycles.
    pub cycles: u64,
    /// Detailed statistics.
    pub stats: DbmStats,
    /// Integers written by the guest.
    pub output_ints: Vec<i64>,
    /// Floats written by the guest.
    pub output_floats: Vec<f64>,
    /// Wall-clock nanoseconds of the whole run (dispatch loop included).
    /// Unlike `cycles`, this depends on the host machine and is only
    /// meaningful for comparing backends on the same host.
    pub wall_nanos: u64,
    /// Digest of the final guest memory image
    /// ([`FlatMemory::image_digest`]). Equal across execution backends for
    /// the same program and input — the cross-backend equivalence anchor.
    pub memory_digest: u64,
}

/// The immutable, shareable half of a DBM: the loaded process, the rewrite
/// schedule lowered into the one slot-addressed table (the rules attached to
/// each instruction slot), the run table cut at every slot a loop may stop
/// at, per-loop runtime records with each loop's own stops, and the
/// baseline configuration.
///
/// Decoding a schedule and loading a process is per-*binary* work; executing
/// a run is per-*invocation* work. [`PreparedDbm`] holds the former behind an
/// [`Arc`] so a serving layer can prepare a binary once, cache the result by
/// content digest and drive any number of concurrent
/// [`PreparedDbm::execute`] calls from worker threads — each run gets fresh
/// guest memory, registers and statistics, so runs never observe each other.
#[derive(Debug, Clone)]
pub struct PreparedDbm {
    parts: Arc<PreparedParts>,
}

/// What `PreparedDbm` shares: everything `Dbm::run` only reads. Pool
/// workers hold their own handle to it.
#[derive(Debug)]
pub(crate) struct PreparedParts {
    pub(crate) process: Process,
    /// The schedule's rules by instruction slot: the main thread's only
    /// per-slot test.
    rules: RuleTable,
    /// Runs ending before every slot with rules and every loop's bound
    /// compare, so every stop of a loop starts a run.
    pub(crate) runs: Vec<Run>,
    pub(crate) loops: HashMap<usize, LoopRt>,
    config: DbmConfig,
}

impl PreparedDbm {
    /// Prepares `process` for execution under `schedule`: decodes the
    /// schedule's loop rules into runtime records and lowers everything keyed
    /// by guest address into tables indexed by instruction slot, so that no
    /// executed instruction pays a lookup. `config` is the baseline
    /// configuration runs inherit (override it per run with
    /// [`PreparedDbm::execute_with`]).
    #[must_use]
    pub fn new(process: Process, schedule: &RewriteSchedule, config: DbmConfig) -> PreparedDbm {
        let rules = schedule.lower(process.num_slots(), |addr| process.slot_of(addr));
        // Loops with a rule whose data words do not decode, or that names an
        // instruction of the wrong kind.
        let mut undecodable = HashSet::new();
        let mut loops: HashMap<usize, LoopRt> = HashMap::new();
        for rule in schedule.rules().iter().filter(|r| r.id == RuleId::LoopInit) {
            if let Some(lr) = LoopRt::decode(&process, rule) {
                loops.insert(rule.loop_id(), lr);
            } else {
                undecodable.insert(rule.loop_id());
            }
        }
        for rule in schedule.rules() {
            // Loops without a LOOP_INIT rule (e.g. profiling-only schedules)
            // cannot drive parallelisation.
            let Some(entry) = loops.get_mut(&rule.loop_id()) else {
                continue;
            };
            let decoded = match rule.id {
                RuleId::MemPrivatise => VarSpec::decode(rule.data[1], rule.data[2])
                    .map(|var| entry.reductions.push((var, rule.data[4] != 0)))
                    .is_some(),
                RuleId::MemBoundsCheck => SideSpec::decode(rule.data[1], rule.data[2])
                    .zip(SideSpec::decode(rule.data[3], rule.data[4]))
                    .map(|pair| entry.bounds_pairs.push(pair))
                    .is_some(),
                RuleId::LoopFinish | RuleId::ThreadYield => {
                    entry.exits.extend(process.slot_of(rule.addr));
                    true
                }
                RuleId::TxStart => {
                    // The call's PLT index, resolved here once. A start on
                    // anything else would leave the real call outside the STM.
                    let slot = process.slot_of(rule.addr);
                    match slot.map(|slot| (slot, process.inst(slot))) {
                        Some((slot, Inst::CallExt { plt })) => {
                            entry.tx_calls.push((slot, plt));
                            true
                        }
                        _ => false,
                    }
                }
                RuleId::Speculate => {
                    entry.speculative = true;
                    true
                }
                _ => true,
            };
            if !decoded {
                undecodable.insert(rule.loop_id());
            }
        }
        // Running a loop with a rule skipped could race (an unprivatised
        // reduction, an unchecked overlap) or fail (a bound that is no
        // compare), or call outside the STM: drop it.
        loops.retain(|id, _| !undecodable.contains(id));
        let bound_cmps: Vec<usize> = loops.values().map(|lr| lr.bound_cmp).collect();
        let runs = process
            .plan()
            .runs_ending_before(|slot| !rules.at(slot).is_empty() || bound_cmps.contains(&slot));
        PreparedDbm {
            parts: Arc::new(PreparedParts {
                process,
                rules,
                runs,
                loops,
                config,
            }),
        }
    }

    /// The baseline configuration runs inherit.
    #[must_use]
    pub fn config(&self) -> &DbmConfig {
        &self.parts.config
    }

    /// Number of loops the schedule asked the DBM to parallelise.
    #[must_use]
    pub fn num_parallel_loops(&self) -> usize {
        self.parts.loops.len()
    }

    /// Runs the prepared binary to completion on `input` with the baseline
    /// configuration. Each call is an independent run over fresh guest
    /// state; `&self` is only read, so calls may race from many threads.
    ///
    /// # Errors
    ///
    /// Returns an error if guest execution faults or the cycle limit is
    /// exceeded.
    pub fn execute(&self, input: &[i64]) -> Result<DbmRunResult> {
        self.execute_with(input, self.parts.config)
    }

    /// [`PreparedDbm::execute`] with a per-run configuration override
    /// (serving layers use this for per-job backend and thread-count
    /// choices; the decoded schedule is config-independent).
    ///
    /// # Errors
    ///
    /// Returns an error if guest execution faults or the cycle limit is
    /// exceeded.
    pub fn execute_with(&self, input: &[i64], config: DbmConfig) -> Result<DbmRunResult> {
        self.execute_traced(input, config, &Recorder::default())
    }

    /// [`PreparedDbm::execute_with`] with a flight recorder attached: the
    /// execution backends emit per-chunk run/merge spans and one span per
    /// speculative invocation to it. `DbmConfig`
    /// stays `Copy`, so the recorder rides alongside the config rather than
    /// inside it. Passing the null recorder is exactly `execute_with`.
    ///
    /// # Errors
    ///
    /// Returns an error if guest execution faults or the cycle limit is
    /// exceeded.
    pub fn execute_traced(
        &self,
        input: &[i64],
        config: DbmConfig,
        recorder: &Recorder,
    ) -> Result<DbmRunResult> {
        Dbm::new(self.clone(), config, recorder.clone(), input).run()
    }
}

/// One run of a prepared binary: the mutable half of the dynamic binary
/// modifier, built and consumed by [`PreparedDbm::execute_traced`].
#[derive(Debug)]
struct Dbm {
    prepared: PreparedDbm,
    config: DbmConfig,
    recorder: Recorder,

    mem: FlatMemory,
    main: Cpu,
    stats: DbmStats,
    cache: CodeCache,
    active_sequential: HashSet<usize>,
    os: GuestOs,
    /// Parked workers for native chunk batches; joined when the run ends.
    pool: ChunkPool,

    /// Adaptive-execution state, present iff [`DbmConfig::adaptive`] is on.
    tuner: Option<Tuner>,
    /// Loops the tuner sent down the sequential path whose wall time is
    /// still being measured: completed (and fed back) when the main thread
    /// reaches the loop's `LOOP_FINISH` rule.
    pending_seq: HashMap<usize, PendingSequential>,
    /// Pace-calibration markers: the main thread's sequential cycle count,
    /// parallel-region wall total and wall-clock instant at the last
    /// calibration point. The stretch between two parallel-candidate loop
    /// headers is sequential dispatch plus parallel regions; subtracting
    /// the latter yields wall-per-sequential-cycle samples for the tuner.
    cal: Option<PaceMarkers>,
}

/// A tuner-decided sequential invocation in flight (see
/// [`Dbm::try_parallel_loop`]).
#[derive(Debug)]
struct PendingSequential {
    started: Instant,
    iterations: u64,
    predicted_nanos: Option<u64>,
    probe: bool,
}

/// Snapshot markers for pace calibration.
#[derive(Debug, Clone, Copy)]
struct PaceMarkers {
    wall: Instant,
    seq_cycles: u64,
    parallel_wall: u64,
}

/// Minimum sequential cycles between pace samples — stretches shorter than
/// this are dominated by timer noise and dispatch-loop bookkeeping.
const PACE_MIN_CYCLES: u64 = 10_000;

impl Dbm {
    fn new(prepared: PreparedDbm, config: DbmConfig, recorder: Recorder, input: &[i64]) -> Dbm {
        let process = &prepared.parts.process;
        let mem = process.initial_memory();
        let mut main = Cpu::new();
        main.pc = process.entry();
        main.set_sp(process.initial_sp());
        let os = GuestOs::new(process, input);
        let cache = CodeCache::new(process.num_slots());
        Dbm {
            prepared,
            config,
            recorder,
            mem,
            main,
            stats: DbmStats::default(),
            cache,
            active_sequential: HashSet::new(),
            os,
            pool: ChunkPool::default(),
            tuner: config.adaptive.then(Tuner::new),
            pending_seq: HashMap::new(),
            cal: None,
        }
    }

    /// Runs the program to completion under DBM control.
    ///
    /// # Errors
    ///
    /// Returns an error if guest execution faults or the cycle limit is
    /// exceeded.
    fn run(mut self) -> Result<DbmRunResult> {
        let wall_start = Instant::now();
        // A second handle, so fetched instructions borrow from it, not `self`.
        let prepared = self.prepared.clone();
        let parts = &*prepared.parts;
        let plan = &**parts.process.plan();
        let limit = Limit::Cycles(self.config.cycle_limit);
        loop {
            limit.check(&self.main)?;
            let pc = self.main.pc;
            let slot = parts.process.slot(pc)?;

            // Rewrite-rule interpretation for the main thread: LOOP_INIT
            // triggers the parallel loop runtime, LOOP_FINISH clears any
            // sequential-fallback marker.
            let rules = parts.rules.at(slot);
            if !rules.is_empty() {
                for rule in rules {
                    match rule.id {
                        RuleId::LoopFinish => {
                            let loop_id = rule.loop_id();
                            self.active_sequential.remove(&loop_id);
                            self.complete_sequential_sample(loop_id);
                        }
                        RuleId::LoopInit => {
                            let loop_id = rule.loop_id();
                            if !self.active_sequential.contains(&loop_id) {
                                if let Some(lr) = parts.loops.get(&loop_id) {
                                    // On success main.pc is past the loop;
                                    // this address's other rules still apply.
                                    if !self.try_parallel_loop(loop_id, lr)? {
                                        self.active_sequential.insert(loop_id);
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
                // The loop body may have changed `main.pc`; refresh.
                if self.main.pc != pc {
                    continue;
                }
            }

            let retired = self.main.retired;
            let stepped = step_run(
                &mut self.main,
                &mut self.mem,
                plan,
                &parts.runs,
                slot,
                limit,
            );
            let last = count_blocks(&mut self.cache.counts, slot, self.main.retired - retired);
            let effect = stepped?;
            // An indirect transfer ends its run and pays the DBM's target
            // lookup.
            if plan.op(last).is_indirect() {
                self.stats.breakdown.translation += INDIRECT_LOOKUP_COST;
            }
            match effect {
                Effect::Continue => self.main.pc += STEP,
                Effect::Jump(t) => self.main.pc = t,
                Effect::Halt => break,
                Effect::External { plt } => self.handle_external_main(plt)?,
                Effect::Syscall { num } => {
                    if self.handle_syscall(num)? {
                        break;
                    }
                    self.main.pc += STEP;
                }
            }
        }
        // Every cycle the main thread is charged is a sequential one.
        self.stats.breakdown.sequential = self.main.cycles;
        self.stats.retired += self.main.retired;
        let (translated, executions, cache_cycles) = self.cache.charges();
        self.stats.blocks_translated = translated;
        self.stats.block_executions = executions;
        self.stats.breakdown.translation += cache_cycles;
        let cycles = self.stats.breakdown.total();
        Ok(DbmRunResult {
            exit_code: self.os.exit_code,
            cycles,
            stats: self.stats,
            output_ints: self.os.output_ints,
            output_floats: self.os.output_floats,
            wall_nanos: wall_start.elapsed().as_nanos() as u64,
            memory_digest: self.mem.image_digest(),
        })
    }

    /// Out of line on purpose: this loop already makes opaque calls with
    /// `&mut self`, so nothing is lost, and keeping the system-call table out
    /// of its body measured 3 % of `doall` wall time.
    #[cold]
    #[inline(never)]
    fn handle_syscall(&mut self, num: u32) -> Result<bool> {
        self.stats.breakdown.sequential = self.main.cycles;
        let clock = self.stats.breakdown.total() + self.cache.charges().2;
        Ok(self.os.syscall(&mut self.main, num, clock)?)
    }

    fn handle_external_main(&mut self, plt: u32) -> Result<()> {
        match self.prepared.parts.process.resolve_plt(plt)? {
            ResolvedPlt::Guest { addr, .. } => {
                self.main.pc = *addr;
                Ok(())
            }
            ResolvedPlt::Native { name } => {
                // Compiler-parallelised binaries are not run under Janus.
                if name == "par_for" {
                    return Err(DbmError::BadRule {
                        reason: "par_for runtime calls are not supported under the DBM".to_string(),
                    });
                }
                self.os.native(name, &self.main)?;
                let ret = janus_vm::exec::pop_value(&mut self.main, &mut self.mem) as u64;
                self.main.pc = ret;
                Ok(())
            }
        }
    }

    /// Computes the number of remaining iterations given start, bound, step
    /// and the continue condition; `None` when the count or the induction
    /// value after the last iteration, `start + count * step`, does not fit
    /// in an `i64` (the bounds are the guest's).
    fn iteration_count(start: i64, end: i64, step: i64, cond: Cond) -> Option<i64> {
        let (start, end, step) = (i128::from(start), i128::from(end), i128::from(step));
        let (span, step_abs) = if step > 0 {
            let end = if cond == Cond::Le { end + 1 } else { end };
            (end - start, step)
        } else {
            let end = if cond == Cond::Ge { end - 1 } else { end };
            (start - end, -step)
        };
        let count = if span <= 0 || step_abs == 0 {
            0
        } else {
            (span + step_abs - 1) / step_abs
        };
        i64::try_from(start + count * step).ok()?;
        i64::try_from(count).ok()
    }

    /// Feeds one pace-calibration sample to the tuner: wall time per
    /// modelled sequential cycle, measured over the stretch since the last
    /// calibration point with parallel-region wall time subtracted. Called
    /// at every parallel-candidate loop header (adaptive runs only).
    fn calibrate_pace(&mut self) {
        let Some(tuner) = self.tuner.as_mut() else {
            return;
        };
        let now = Instant::now();
        let Some(mark) = self.cal else {
            self.cal = Some(PaceMarkers {
                wall: now,
                seq_cycles: self.main.cycles,
                parallel_wall: self.stats.parallel_wall_nanos,
            });
            return;
        };
        let seq_delta = self.main.cycles.saturating_sub(mark.seq_cycles);
        if seq_delta < PACE_MIN_CYCLES {
            // Too short to time; keep accumulating against the old markers.
            return;
        }
        let wall_delta = now.duration_since(mark.wall).as_nanos() as u64;
        let parallel_delta = self
            .stats
            .parallel_wall_nanos
            .saturating_sub(mark.parallel_wall);
        tuner.observe_pace(seq_delta, wall_delta.saturating_sub(parallel_delta));
        self.cal = Some(PaceMarkers {
            wall: now,
            seq_cycles: self.main.cycles,
            parallel_wall: self.stats.parallel_wall_nanos,
        });
    }

    /// Completes the wall-time measurement of a tuner-decided sequential
    /// invocation when the main thread reaches the loop's `LOOP_FINISH`.
    fn complete_sequential_sample(&mut self, loop_id: usize) {
        let Some(pending) = self.pending_seq.remove(&loop_id) else {
            return;
        };
        let measured = pending.started.elapsed().as_nanos() as u64;
        if let Some(tuner) = self.tuner.as_mut() {
            tuner.observe_sequential(loop_id, pending.iterations, measured);
        }
        self.recorder.instant(
            "dbm.tune",
            "tune.decision",
            &[
                ("loop", loop_id.into()),
                ("backend", "sequential".into()),
                ("chunks", 0u64.into()),
                ("iterations", pending.iterations.into()),
                (
                    "predicted_nanos",
                    pending.predicted_nanos.map_or_else(
                        || janus_obs::ArgValue::Str("none".to_string()),
                        janus_obs::ArgValue::U64,
                    ),
                ),
                ("measured_nanos", measured.into()),
                ("probe", pending.probe.into()),
            ],
        );
    }

    /// Attempts to run one invocation of loop `loop_id` in parallel.
    ///
    /// Returns `true` if the loop was executed (main's context has been
    /// updated and `main.pc` points after the loop), or `false` if this
    /// invocation must run sequentially.
    fn try_parallel_loop(&mut self, loop_id: usize, lr: &LoopRt) -> Result<bool> {
        self.calibrate_pace();
        // Evaluate the current induction value and the loop bound.
        let start = lr.induction.read(&self.main, &mut self.mem);
        let end = self.read_operand_int(&lr.bound_rhs);
        // A count that does not fit runs sequentially, like a short one.
        let iterations = Self::iteration_count(start, end, lr.step, lr.continue_cond).unwrap_or(0);
        let threads = i64::from(self.config.threads.max(1));
        if iterations < threads * MIN_ITERATIONS_PER_THREAD {
            self.stats.sequential_fallbacks += 1;
            return Ok(false);
        }

        // SPECULATE: may-dependent loops run under the iteration-level
        // speculation engine; bounds checks are subsumed by validation.
        if lr.speculative {
            if !self.config.enable_runtime_checks {
                self.stats.sequential_fallbacks += 1;
                return Ok(false);
            }
            return self.try_speculative_loop(lr, start, iterations);
        }

        // Runtime array-bounds checks (MEM_BOUNDS_CHECK).
        if !lr.bounds_pairs.is_empty() {
            if !self.config.enable_runtime_checks {
                self.stats.sequential_fallbacks += 1;
                return Ok(false);
            }
            self.stats.bounds_checks_executed += lr.bounds_pairs.len() as u64;
            self.stats.breakdown.checks += BOUNDS_CHECK_COST * lr.bounds_pairs.len() as u64;
            for (a, b) in &lr.bounds_pairs {
                let ra = a.range(&self.main, iterations);
                let rb = b.range(&self.main, iterations);
                if ra.0 < rb.1 && rb.0 < ra.1 {
                    // Overlap: the loop runs sequentially (and the modified
                    // code for it would be flushed in a real code cache).
                    self.stats.sequential_fallbacks += 1;
                    return Ok(false);
                }
            }
        }
        if !lr.tx_calls.is_empty() && !self.config.enable_runtime_checks {
            self.stats.sequential_fallbacks += 1;
            return Ok(false);
        }

        // Adaptive execution: ask the tuner whether this invocation should
        // run in parallel at all, and into how many chunks. A Sequential
        // decision starts a wall-time measurement that completes at the
        // loop's LOOP_FINISH (the caller marks the loop active-sequential);
        // a Parallel decision may retarget the chunk count away from the
        // configured thread count. Wall-time-only policy — guest results
        // are identical either way.
        let mut chunk_target = threads;
        let mut tune = None;
        if let Some(tuner) = self.tuner.as_mut() {
            let outcome = tuner.decide(loop_id, iterations as u64, self.config.threads.max(1));
            match outcome.decision {
                TuneDecision::Sequential => {
                    self.stats.tune_sequential_decisions += 1;
                    self.pending_seq.insert(
                        loop_id,
                        PendingSequential {
                            started: Instant::now(),
                            iterations: iterations as u64,
                            predicted_nanos: outcome.predicted_nanos,
                            probe: outcome.probe,
                        },
                    );
                    return Ok(false);
                }
                TuneDecision::Parallel { chunks } => {
                    self.stats.tune_parallel_decisions += 1;
                    chunk_target = i64::from(chunks.max(1));
                    tune = Some(outcome);
                }
            }
        }

        // Plan: split the iteration space into contiguous chunks and fork a
        // guest context per chunk: a copy of the main context with a private
        // stack holding a copy of the main frame, then `LoopRt::fork`.
        // Iteration and chunk-target counts are positive here, so the
        // unsigned `div_ceil` (stable, unlike the signed one) applies.
        let chunk = (iterations as u64).div_ceil(chunk_target as u64) as i64;
        let num_chunks = (iterations as u64).div_ceil(chunk as u64) as usize;
        // The frame window [SP - 256, FP + 768) is copied to `t + 1` stack
        // sizes below itself for chunk `t`. FP and SP are the guest's: a
        // window that is inverted, wider than a stack, or too close to either
        // end of the address space for its copies is no frame, and the
        // invocation runs sequentially instead.
        let main_fp = self.main.read_gpr(Reg::FP) as u64;
        let main_sp = self.main.sp();
        let frame_lo = main_sp.saturating_sub(256);
        let plausible_frame = main_sp <= main_fp
            && main_fp - main_sp <= STACK_SIZE
            && main_fp.checked_add(768).is_some()
            && frame_lo >= num_chunks as u64 * STACK_SIZE;
        if !plausible_frame {
            self.stats.sequential_fallbacks += 1;
            return Ok(false);
        }
        self.stats.parallel_invocations += 1;
        let frame_hi = main_fp + 768;
        let frame_bytes = self
            .mem
            .read_bytes(frame_lo, (frame_hi - frame_lo) as usize);

        let mut plans: Vec<ChunkPlan> = Vec::with_capacity(num_chunks);
        for t in 0..num_chunks {
            let from = t as i64 * chunk;
            let to = from.saturating_add(chunk).min(iterations);
            let mut cpu = self.main.clone();
            let delta = (t as u64 + 1) * STACK_SIZE;
            cpu.write_gpr(Reg::FP, (main_fp - delta) as i64);
            cpu.set_sp(main_sp - delta);
            self.mem.write_bytes(frame_lo - delta, &frame_bytes);
            let bound = lr.fork(&mut cpu, &mut self.mem, start, from, to);
            self.stats.breakdown.init_finish += LOOP_INIT_COST;
            // The chunk's frame copy and the stack below it, under the main frame.
            let window_top = (frame_hi - delta).min(frame_lo);
            plans.push(ChunkPlan {
                cpu,
                bound,
                window: frame_hi.saturating_sub(delta + STACK_SIZE)..window_top,
            });
        }

        // Execute: the configured backend runs the chunks (inline in virtual
        // time, or on the run's OS worker pool) and merges all memory and
        // code-cache effects back before returning.
        let ctx = ChunkContext {
            parts: &self.prepared.parts,
            loop_id,
            lr,
            config: &self.config,
            recorder: &self.recorder,
        };
        let batch = self.config.backend.run_chunks(
            &ctx,
            &plans,
            &mut self.mem,
            &mut self.cache,
            &mut self.pool,
        )?;
        self.fold_chunk_effects(batch.effects);
        self.stats.retired += batch.results.iter().map(|cpu| cpu.retired).sum::<u64>();
        self.stats.breakdown.init_finish += LOOP_FINISH_COST * num_chunks as u64;
        self.stats.breakdown.parallel += batch.parallel_cycles;
        self.stats.os_threads_used = self.stats.os_threads_used.max(batch.os_threads);
        self.stats.parallel_wall_nanos += batch.wall_nanos;
        self.stats.merge_pages_skipped += batch.merge.pages_skipped;
        self.stats.merge_pages_merged += batch.merge.pages_merged;
        if batch.merge.pages_skipped > 0 {
            self.recorder.instant(
                "dbm.chunk",
                "merge.pages_skipped",
                &[
                    ("loop", loop_id.into()),
                    ("pages_skipped", batch.merge.pages_skipped.into()),
                    ("pages_merged", batch.merge.pages_merged.into()),
                ],
            );
        }

        // Feed the measurement back to the tuner and surface the decision.
        if let Some(outcome) = tune {
            let chunk_cycles: u64 = batch.results.iter().map(|cpu| cpu.cycles).sum();
            if let Some(tuner) = self.tuner.as_mut() {
                tuner.observe_parallel(
                    loop_id,
                    chunk_target as u32,
                    iterations as u64,
                    batch.wall_nanos,
                    chunk_cycles,
                );
            }
            self.recorder.instant(
                "dbm.tune",
                "tune.decision",
                &[
                    ("loop", loop_id.into()),
                    ("backend", "parallel".into()),
                    ("chunks", (chunk_target as u64).into()),
                    ("iterations", (iterations as u64).into()),
                    (
                        "predicted_nanos",
                        outcome.predicted_nanos.map_or_else(
                            || janus_obs::ArgValue::Str("none".to_string()),
                            janus_obs::ArgValue::U64,
                        ),
                    ),
                    ("measured_nanos", batch.wall_nanos.into()),
                    ("probe", outcome.probe.into()),
                ],
            );
        }

        // Each chunk's reduction accumulators, read from its final context
        // (a stack slot from its frame copy, now merged).
        let accumulators: Vec<Vec<i64>> = batch
            .results
            .iter()
            .map(|cpu| {
                lr.reductions
                    .iter()
                    .map(|&(var, _)| var.read(cpu, &mut self.mem))
                    .collect()
            })
            .collect();
        let last = batch.results.last().expect("at least one chunk ran");
        self.join(lr, last, accumulators.iter().map(Vec::as_slice));
        Ok(true)
    }

    /// The join (`LOOP_FINISH`): merges one parallel invocation back into
    /// the main context. The last unit ran the final iterations, so the
    /// main context adopts its registers, flags and exit, keeping its own SP
    /// and FP; a stack-slot induction variable is copied out of the last
    /// unit's frame. Each reduction is then the sum of every unit's
    /// accumulator (`accumulators`, in unit order): the first unit's holds
    /// the incoming value and the others' hold deltas from the identity, so
    /// add- and sub-reductions both merge by addition.
    fn join<'a>(&mut self, lr: &LoopRt, last: &Cpu, accumulators: impl Iterator<Item = &'a [i64]>) {
        let mut totals = vec![0i64; lr.reductions.len()];
        for unit in accumulators {
            for ((total, &v), &(_, is_float)) in totals.iter_mut().zip(unit).zip(&lr.reductions) {
                *total = if is_float {
                    (f64::from_bits(*total as u64) + f64::from_bits(v as u64)).to_bits() as i64
                } else {
                    total.wrapping_add(v)
                };
            }
        }
        let saved_sp = self.main.sp();
        let saved_fp = self.main.read_gpr(Reg::FP);
        self.main.gpr = last.gpr;
        self.main.vreg = last.vreg;
        self.main.flags = last.flags;
        self.main.set_sp(saved_sp);
        self.main.write_gpr(Reg::FP, saved_fp);
        self.main.pc = last.pc;
        if let VarSpec::Stack(_) = lr.induction {
            let final_value = lr.induction.read(last, &mut self.mem);
            lr.induction
                .write(&mut self.main, &mut self.mem, final_value);
        }
        for (&(var, _), total) in lr.reductions.iter().zip(totals) {
            var.write(&mut self.main, &mut self.mem, total);
        }
    }

    /// Folds the side effects of one chunk batch into the run's statistics
    /// and output streams.
    fn fold_chunk_effects(&mut self, fx: ChunkSideEffects) {
        self.stats.breakdown.translation += fx.lookup_cycles;
        self.stats.stm_transactions += fx.stm_transactions;
        self.stats.stm_aborts += fx.stm_aborts;
        self.stats.stm_reads += fx.stm_reads;
        self.stats.stm_writes += fx.stm_writes;
        self.stats.breakdown.stm += fx.stm_cycles;
        self.os.output_ints.extend(fx.output_ints);
        self.os.output_floats.extend(fx.output_floats);
    }

    /// Runs one invocation of a may-dependent loop under the Block-STM-style
    /// speculation engine: every iteration executes optimistically against a
    /// multi-version view of guest memory, validates lazily, and only the
    /// dependents of a conflicting iteration are re-executed.
    ///
    /// Returns `true` when the invocation succeeded (main's context has been
    /// merged and `main.pc` points after the loop), `false` when the engine
    /// gave up and the loop must run sequentially.
    fn try_speculative_loop(&mut self, lr: &LoopRt, start: i64, iterations: i64) -> Result<bool> {
        if iterations > MAX_SPECULATIVE_ITERATIONS as i64 {
            self.stats.spec_fallbacks += 1;
            self.stats.sequential_fallbacks += 1;
            return Ok(false);
        }
        // Per-iteration contexts restart from the loop-entry register state,
        // so the induction variable and any reduction accumulators must live
        // in registers (the rule generator guarantees this for selected
        // loops; fall back rather than fault if a schedule says otherwise).
        let in_register = |var: VarSpec| matches!(var, VarSpec::Reg(_));
        if !in_register(lr.induction) || !lr.reductions.iter().all(|&(var, _)| in_register(var)) {
            self.stats.sequential_fallbacks += 1;
            return Ok(false);
        }

        let template = self.main.clone();
        let lanes = self.config.threads.max(1);

        // Split the borrows the iteration body needs off `self` so the guest
        // memory can be temporarily moved into the engine.
        let process = &self.prepared.parts.process;
        let plan = &**process.plan();
        let limit = Limit::Cycles(self.config.cycle_limit);
        let runs = &self.prepared.parts.runs;
        let last_iter = iterations - 1;
        let mut base = std::mem::take(&mut self.mem);

        // Every capture is read-only: per-incarnation state lives in the
        // cloned `Cpu` and the view.
        let body =
            |iter: usize,
             view: &mut janus_spec::SpecView<'_, FlatMemory>|
             -> std::result::Result<janus_spec::IterationRun<SpecPayload>, DbmError> {
                let iter = iter as i64;
                let mut cpu = template.clone();
                // A unit of exactly one iteration.
                let bound = lr.fork(&mut cpu, &mut *view, start, iter, iter + 1);
                let (bound_cmp, bound_cmp_cost) = bound_compare(lr.bound_lhs, bound);
                loop {
                    limit.check(&cpu)?;
                    let slot = process.slot(cpu.pc)?;
                    if lr.exits.contains(&slot) {
                        return Ok(janus_spec::IterationRun {
                            cycles: cpu.cycles,
                            payload: SpecPayload {
                                retired: cpu.retired,
                                reductions: lr
                                    .reductions
                                    .iter()
                                    .map(|&(var, _)| var.read(&cpu, &mut *view))
                                    .collect(),
                                last: (iter == last_iter).then(|| Box::new(cpu)),
                            },
                        });
                    }
                    let effect = if lr.bound_cmp == slot {
                        step_op(&mut cpu, &mut *view, &bound_cmp, bound_cmp_cost)?
                    } else {
                        step_run(&mut cpu, &mut *view, plan, runs, slot, limit)?
                    };
                    match effect {
                        Effect::Continue => cpu.pc += STEP,
                        Effect::Jump(t) => cpu.pc = t,
                        // Calls and system calls are excluded from
                        // speculative loops by classification; reaching one
                        // here means the iteration ran off consistent state
                        // (the engine retries) or the schedule is bad.
                        other => {
                            return Err(DbmError::BadRule {
                                reason: format!(
                                    "unsupported control flow in speculative loop: {other:?}"
                                ),
                            })
                        }
                    }
                }
            };
        let invocation = self.config.backend.run_speculative_invocation(
            lanes,
            &mut base,
            iterations as usize,
            &body,
            &self.recorder,
        );
        self.mem = base;
        self.stats.parallel_wall_nanos += invocation.wall_nanos;

        let outcome = match invocation.result {
            Ok(outcome) => outcome,
            Err(janus_spec::SpecError::Body(e)) => return Err(e),
            Err(janus_spec::SpecError::AbortLimit { .. }) => {
                // Too dependent to speculate profitably: run sequentially.
                self.stats.spec_fallbacks += 1;
                self.stats.sequential_fallbacks += 1;
                return Ok(false);
            }
        };

        let s = &outcome.stats;
        self.stats.parallel_invocations += 1;
        self.stats.spec_invocations += 1;
        self.stats.spec_iterations += s.iterations;
        self.stats.spec_executions += s.executions;
        self.stats.spec_aborts += s.aborts;
        self.stats.spec_validations += s.validations;
        self.stats.spec_reads += s.reads;
        self.stats.spec_writes += s.writes;
        self.stats.breakdown.parallel += outcome.parallel_cycles;
        self.stats.breakdown.init_finish += (LOOP_INIT_COST + LOOP_FINISH_COST) * u64::from(lanes);

        let last = outcome
            .payloads
            .last()
            .and_then(|p| p.last.as_deref())
            .expect("the last iteration carries its context");
        self.join(
            lr,
            last,
            outcome.payloads.iter().map(|p| p.reductions.as_slice()),
        );
        self.stats.retired += outcome.payloads.iter().map(|p| p.retired).sum::<u64>();
        Ok(true)
    }

    fn read_operand_int(&mut self, op: &Operand) -> i64 {
        match op {
            Operand::Imm(v) => *v,
            Operand::Reg(r) => self.main.read_gpr(*r),
            Operand::Mem(m) => {
                let addr = janus_vm::exec::effective_addr(&self.main, m);
                self.mem.read_i64(addr)
            }
        }
    }
}

/// The induction value at iteration `iter` of an invocation that starts at
/// `start`. Two's-complement arithmetic is exact modulo 2^64, so the result
/// is exact whenever the true value fits, as it does for every `iter` up to
/// a count [`Dbm::iteration_count`] accepted, even where `iter * step` alone
/// does not.
fn induction_at(start: i64, iter: i64, step: i64) -> i64 {
    start.wrapping_add(iter.wrapping_mul(step))
}

/// The `LOOP_UPDATE_BOUND` handler: the loop's bound compare (`lhs` is its
/// left operand) specialised to `bound`, built once per chunk or speculative
/// iteration and run in place of the loop's [`LoopRt::bound_cmp`] at its
/// own cost — an immediate compare — not the original's, whose `rhs` may be
/// a memory operand.
fn bound_compare(lhs: Operand, bound: i64) -> (Op, u64) {
    let inst = Inst::Cmp {
        lhs,
        rhs: Operand::Imm(bound),
    };
    let op = Op::lower(&inst).expect("the operand of a loaded compare lowers");
    (op, cost(&inst))
}

/// Counts one execution of each of the `retired` slots from `slot` on — the
/// instructions a run retired, each standing for the block it starts (see
/// [`CodeCache`]) — and returns the last of them.
fn count_blocks(counts: &mut [u64], slot: usize, retired: u64) -> usize {
    let end = slot + retired as usize;
    for count in &mut counts[slot..end] {
        *count += 1;
    }
    end - 1
}

/// Runs one planned chunk from the loop header until it reaches a
/// `LOOP_FINISH` address, and returns its final context (its `pc` is that
/// address).
///
/// This is the backend-agnostic chunk executor: generic over the guest
/// memory view (`&mut FlatMemory` under virtual time, a [`janus_vm::CowMemory`]
/// overlay on an OS worker thread). Block executions are counted into
/// `counts` (the run's [`CodeCache`], or a worker's private copy); every other
/// side effect (guest output, lookups, STM counters and footprint) goes into
/// [`ChunkSideEffects`], which the caller folds back in chunk order.
pub(crate) fn run_chunk<M: GuestMemory>(
    ctx: &ChunkContext<'_>,
    plan: &ChunkPlan,
    mem: &mut M,
    counts: &mut [u64],
    fx: &mut ChunkSideEffects,
) -> Result<Cpu> {
    let config = ctx.config;
    let lr = ctx.lr;
    let process = &ctx.parts.process;
    let text = &**process.plan();
    let limit = Limit::Cycles(config.cycle_limit);
    let (bound_cmp, bound_cmp_cost) = bound_compare(lr.bound_lhs, plan.bound);
    let mut cpu = plan.cpu.clone();
    let mut log = TxLog::default();
    loop {
        limit.check(&cpu)?;
        let pc = cpu.pc;
        let slot = process.slot(pc)?;
        if lr.exits.contains(&slot) {
            return Ok(cpu);
        }
        // TX_START handler: dynamically discovered code runs under the
        // just-in-time STM.
        let tx_call = lr.tx_calls.iter().find(|&&(at, _)| at == slot);
        if let Some(&(_, plt)) = tx_call.filter(|_| config.enable_runtime_checks) {
            counts[slot] += 1;
            if run_transactional_call(ctx, &mut cpu, mem, plt, pc + STEP, &mut log, fx)? {
                fx.tx.record(&log, &plan.window);
            }
            cpu.pc = pc + STEP;
            continue;
        }
        let effect = if lr.bound_cmp == slot {
            counts[slot] += 1;
            step_op(&mut cpu, mem, &bound_cmp, bound_cmp_cost)?
        } else {
            let retired = cpu.retired;
            let stepped = step_run(&mut cpu, mem, text, &ctx.parts.runs, slot, limit);
            let last = count_blocks(counts, slot, cpu.retired - retired);
            let effect = stepped?;
            if text.op(last).is_indirect() {
                fx.lookup_cycles += INDIRECT_LOOKUP_COST;
            }
            effect
        };
        match effect {
            Effect::Continue => cpu.pc += STEP,
            Effect::Jump(t) => cpu.pc = t,
            Effect::Halt => return Ok(cpu),
            Effect::External { plt } => match process.resolve_plt(plt)? {
                ResolvedPlt::Guest { addr, .. } => cpu.pc = *addr,
                ResolvedPlt::Native { name } => {
                    run_native_helper(name, &cpu, fx)?;
                    cpu.pc = janus_vm::exec::pop_value(&mut cpu, mem) as u64;
                }
            },
            Effect::Syscall { .. } => {
                // Parallelised loops never contain system calls (the
                // static analyser rejects them), but be safe.
                return Err(DbmError::BadRule {
                    reason: "system call inside a parallelised loop".to_string(),
                });
            }
        }
    }
}

/// The native helpers chunk execution services itself (output only).
fn run_native_helper(name: &str, cpu: &Cpu, fx: &mut ChunkSideEffects) -> Result<()> {
    match name {
        "print_i64" => fx.output_ints.push(cpu.read_gpr(Reg::R0)),
        "print_f64" => fx.output_floats.push(cpu.read_f64(Reg::V0)),
        other => {
            return Err(DbmError::Vm(janus_vm::VmError::UnknownExternal {
                name: other.to_string(),
            }))
        }
    }
    Ok(())
}

/// Executes an external (shared-library) call speculatively under the
/// software transactional memory: the `TX_START` / `TX_FINISH` pair of
/// the paper. Generic over the guest memory view for the same reason as
/// [`run_chunk`]; under the native-threads backend the transaction commits
/// into the chunk's private overlay. Returns whether a transaction
/// committed, its reads and writes left in `log`.
fn run_transactional_call<M: GuestMemory>(
    ctx: &ChunkContext<'_>,
    cpu: &mut Cpu,
    mem: &mut M,
    plt: u32,
    return_pc: u64,
    log: &mut TxLog,
    fx: &mut ChunkSideEffects,
) -> Result<bool> {
    let target = match ctx.parts.process.resolve_plt(plt)? {
        ResolvedPlt::Guest { addr, .. } => *addr,
        // Native helpers have no guest-visible memory effects; run them
        // directly.
        ResolvedPlt::Native { name } => return run_native_helper(name, cpu, fx).map(|()| false),
    };
    fx.stm_transactions += 1;
    let checkpoint = cpu.clone();
    let mut tx = TxView::new(mem, log);
    // The call's return address is pushed inside the transaction.
    janus_vm::exec::push_value(cpu, &mut tx, return_pc as i64);
    cpu.pc = target;
    let ok = match run_callee(ctx, cpu, &mut tx, return_pc) {
        Ok(()) => true,
        // The callee left the code a transaction can run (or the text, or
        // its cycle budget) on the transaction's view of memory: abort. The
        // re-execution below either succeeds or reports the same stop.
        Err(
            DbmError::CycleLimitExceeded { .. }
            | DbmError::BadRule { .. }
            | DbmError::Vm(janus_vm::VmError::BadPc { .. }),
        ) => false,
        Err(e) => return Err(e),
    };
    let tx_stats = tx.stats();
    fx.stm_reads += tx_stats.reads;
    fx.stm_writes += tx_stats.writes;
    // Charged to the chunk, so it reaches `parallel` through the lanes;
    // `stm_cycles` only attributes it.
    let stm_cost = tx_stats.reads * STM_READ_COST
        + tx_stats.writes * STM_WRITE_COST
        + (tx_stats.reads + tx_stats.writes) * STM_COMMIT_COST;
    fx.stm_cycles += stm_cost;
    cpu.cycles += stm_cost;
    if ok && tx.commit() {
        return Ok(true);
    }
    // Abort: roll back to the checkpoint and re-execute the call
    // non-speculatively (the thread is treated as the oldest).
    fx.stm_aborts += 1;
    *cpu = checkpoint;
    janus_vm::exec::push_value(cpu, mem, return_pc as i64);
    cpu.pc = target;
    run_callee(ctx, cpu, mem, return_pc)?;
    Ok(false)
}

/// Runs a shared-library callee until control returns to `return_pc`: the one
/// loop behind both halves of [`run_transactional_call`]. A callee that cannot
/// finish is an abort over the transaction's view, an error over real memory.
fn run_callee<M: GuestMemory>(
    ctx: &ChunkContext<'_>,
    cpu: &mut Cpu,
    mem: &mut M,
    return_pc: u64,
) -> Result<()> {
    let process = &ctx.parts.process;
    let plan = &**process.plan();
    let limit = Limit::Cycles(ctx.config.cycle_limit);
    // No run steps past `return_pc`: the slot before it is the call.
    while cpu.pc != return_pc {
        limit.check(cpu)?;
        let slot = process.slot(cpu.pc)?;
        match step_run(cpu, mem, plan, plan.runs(), slot, limit)? {
            Effect::Continue => cpu.pc += STEP,
            Effect::Jump(t) => cpu.pc = t,
            // Halting, trapping or calling out: anything but straight-line
            // code, jumps and the callee's own return.
            _ => {
                return Err(DbmError::BadRule {
                    reason: "unsupported control flow in shared-library call".to_string(),
                })
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varspec_encoding_round_trip() {
        for spec in [
            VarSpec::Reg(Reg::R4),
            VarSpec::Reg(Reg::V15),
            VarSpec::Stack(-64),
        ] {
            let (k, v) = spec.encode();
            assert_eq!(VarSpec::decode(k, v), Some(spec));
        }
        assert_eq!(VarSpec::decode(9, 0), None);
        assert_eq!(VarSpec::decode(0, 260), None, "not r4 truncated");
    }

    #[test]
    fn sidespec_encoding_round_trip() {
        for spec in [
            SideSpec {
                reg: None,
                base_or_offset: 0x600000,
                stride: 8,
            },
            SideSpec {
                reg: Some(Reg::R5),
                base_or_offset: 16,
                stride: 32,
            },
            SideSpec {
                reg: Some(Reg::R9),
                base_or_offset: -8,
                stride: -16,
            },
        ] {
            let (a, b) = spec.encode();
            assert_eq!(SideSpec::decode(a, b), Some(spec));
        }
        // A base register past the file, or in the vector file.
        for raw in [200, Reg::V4.raw()] {
            assert_eq!(SideSpec::decode(1 | (i64::from(raw) << 8), 0), None);
        }
    }

    #[test]
    fn iteration_count_matches_loop_semantics() {
        // for (i = 0; i < 100; i += 1)
        assert_eq!(Dbm::iteration_count(0, 100, 1, Cond::Lt), Some(100));
        // for (i = 0; i <= 100; i += 1)
        assert_eq!(Dbm::iteration_count(0, 100, 1, Cond::Le), Some(101));
        // for (i = 0; i < 100; i += 3)
        assert_eq!(Dbm::iteration_count(0, 100, 3, Cond::Lt), Some(34));
        // for (i = 100; i > 0; i -= 1)
        assert_eq!(Dbm::iteration_count(100, 0, -1, Cond::Gt), Some(100));
        // empty
        assert_eq!(Dbm::iteration_count(10, 10, 1, Cond::Lt), Some(0));
        assert_eq!(Dbm::iteration_count(20, 10, 1, Cond::Lt), Some(0));
        assert_eq!(
            Dbm::iteration_count(i64::MAX, i64::MIN, 1, Cond::Le),
            Some(0)
        );
        // Guest-chosen extremes: counts and last values that fit...
        assert_eq!(
            Dbm::iteration_count(0, i64::MAX, 1, Cond::Lt),
            Some(i64::MAX)
        );
        assert_eq!(
            Dbm::iteration_count(0, i64::MAX - 1, 2, Cond::Lt),
            Some((1 << 62) - 1)
        );
        // ...a count that does not (2^63 + 59, 2^63, 2^64 - 1, 2^63 + 1)...
        assert_eq!(Dbm::iteration_count(i64::MIN + 5, 64, 1, Cond::Lt), None);
        assert_eq!(Dbm::iteration_count(0, i64::MAX, 1, Cond::Le), None);
        assert_eq!(Dbm::iteration_count(i64::MAX, i64::MIN, -1, Cond::Gt), None);
        assert_eq!(Dbm::iteration_count(0, i64::MIN, -1, Cond::Ge), None);
        // ...and counts that do whose last value (2^63, -2^63 - 1) does not.
        assert_eq!(Dbm::iteration_count(0, i64::MAX, 2, Cond::Le), None);
        assert_eq!(Dbm::iteration_count(i64::MIN, i64::MIN, -1, Cond::Ge), None);
    }

    #[test]
    fn induction_values_are_exact_wherever_they_fit() {
        assert_eq!(induction_at(i64::MIN, 1 << 62, 3), 1 << 62);
        assert_eq!(induction_at(i64::MAX, i64::MAX, -1), 0);
        assert_eq!(induction_at(-5, 0, i64::MIN), -5);
    }

    #[test]
    fn sidespec_range_uses_register_base() {
        let mut cpu = Cpu::new();
        cpu.write_gpr(Reg::R5, 0x1000);
        let s = SideSpec {
            reg: Some(Reg::R5),
            base_or_offset: 8,
            stride: 8,
        };
        let (lo, hi) = s.range(&cpu, 10);
        assert_eq!(lo, 0x1008);
        assert_eq!(hi, 0x1008 + 9 * 8 + 8);
        // A guest-chosen base and count are exact, not an overflow.
        cpu.write_gpr(Reg::R5, i64::MAX);
        let (lo, hi) = s.range(&cpu, i64::MAX);
        assert_eq!(lo, i128::from(i64::MAX) + 8);
        assert_eq!(hi, lo + 8 * (i128::from(i64::MAX) - 1) + 8);
    }
}
