//! The rewrite-rule-driven execution engine: rule decoding, parallel-loop
//! *planning* (chunking, context forking, bounds checks) and the merge of
//! chunk results back into the main thread. The *execution* of planned
//! chunks is a `match` on [`crate::BackendKind`] in `backend.rs`.

use crate::backend::{
    ChunkContext, ChunkPlan, ChunkPool, ChunkResult, ChunkSideEffects, CodeCache, SpecPayload,
};
use crate::stm::{TxLog, TxView};
use crate::tuner::{TuneDecision, Tuner};
use crate::{DbmConfig, DbmError, DbmStats, Result};
use janus_ir::{Inst, Operand, Reg, INST_SIZE, STACK_SIZE};
use janus_obs::Recorder;
use janus_schedule::{RewriteSchedule, RuleId, RuleTable};
use janus_vm::{
    step_op, step_run, CostModel, Cpu, Effect, FlatMemory, GuestMemory, GuestOs, Limit, Op,
    Process, ResolvedPlt, Run,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

const STEP: u64 = INST_SIZE as u64;

/// The most iterations one speculative invocation may take; a longer one
/// runs sequentially. The guest chooses the trip count, and the engine keeps
/// about 200 bytes of state per iteration before the first guest access:
/// the scheduler's status slot (48), the multi-version store's write-set
/// slot (32), the iteration's read-set slot and payload (64) and the
/// payload handed back (40). The cap bounds that
/// at about 13 MiB per invocation, where 2⁴⁰ iterations would ask the
/// allocator for hundreds of TiB. The suite's largest invocation is 4 410
/// iterations (`spec.histogram`).
pub const MAX_SPECULATIVE_ITERATIONS: usize = 1 << 16;

/// How a scalar variable location is encoded inside rewrite-rule data words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarSpec {
    /// An architectural register (by raw number).
    Reg(u8),
    /// A frame-pointer-relative stack slot.
    Stack(i64),
}

impl VarSpec {
    /// Encodes into `(kind, value)` data words.
    #[must_use]
    pub fn encode(self) -> (i64, i64) {
        match self {
            VarSpec::Reg(r) => (0, i64::from(r)),
            VarSpec::Stack(off) => (1, off),
        }
    }

    /// Decodes from `(kind, value)` data words; `None` for an unknown kind
    /// or a register outside the file.
    #[must_use]
    pub fn decode(kind: i64, value: i64) -> Option<VarSpec> {
        match kind {
            0 => {
                let reg = Reg::from_raw(u8::try_from(value).ok()?)?;
                Some(VarSpec::Reg(reg.raw()))
            }
            1 => Some(VarSpec::Stack(value)),
            _ => None,
        }
    }

    fn read(self, cpu: &Cpu, mem: &mut FlatMemory) -> i64 {
        match self {
            VarSpec::Reg(r) => read_reg(cpu, Reg::from_raw(r).expect("valid register in rule")),
            VarSpec::Stack(off) => mem.read_i64(cpu.read_gpr(Reg::FP).wrapping_add(off) as u64),
        }
    }

    fn write(self, cpu: &mut Cpu, mem: &mut FlatMemory, value: i64) {
        match self {
            VarSpec::Reg(r) => {
                write_reg(
                    cpu,
                    Reg::from_raw(r).expect("valid register in rule"),
                    value,
                );
            }
            VarSpec::Stack(off) => {
                mem.write_i64(cpu.read_gpr(Reg::FP).wrapping_add(off) as u64, value);
            }
        }
    }
}

/// The raw bits of the scalar held in `reg`, whichever register file it is in.
fn read_reg(cpu: &Cpu, reg: Reg) -> i64 {
    if reg.is_gpr() {
        cpu.read_gpr(reg)
    } else {
        cpu.read_f64(reg).to_bits() as i64
    }
}

fn write_reg(cpu: &mut Cpu, reg: Reg, value: i64) {
    if reg.is_gpr() {
        cpu.write_gpr(reg, value);
    } else {
        cpu.write_f64(reg, f64::from_bits(value as u64));
    }
}

/// One side of a runtime bounds check, as encoded in `MEM_BOUNDS_CHECK` data
/// words: either a global array base or a register-held base, plus the byte
/// stride per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SideSpec {
    /// `None` for a statically known base, `Some(reg)` for a register base.
    pub reg: Option<u8>,
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
            Some(r) => 1 | (i64::from(r) << 8) | (self.stride << 16),
        };
        (w1, self.base_or_offset)
    }

    /// Decodes from two data words; `None` if the base register is not a
    /// general-purpose register.
    #[must_use]
    pub fn decode(w1: i64, w2: i64) -> Option<SideSpec> {
        let reg = if (w1 & 1) == 1 {
            let reg = Reg::from_raw(((w1 >> 8) & 0xff) as u8).filter(|r| r.is_gpr())?;
            Some(reg.raw())
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
        let start = i128::from(self.base_or_offset)
            + self.reg.map_or(0, |r| {
                let reg = Reg::from_raw(r).expect("valid register in rule");
                i128::from(cpu.read_gpr(reg))
            });
        let span = i128::from(self.stride) * i128::from((iterations - 1).max(0));
        let (lo, hi) = if span >= 0 {
            (start, start + span)
        } else {
            (start + span, start)
        };
        (lo, hi + 8)
    }
}

/// Per-loop runtime information derived from the rewrite schedule.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoopRt {
    pub(crate) header: u64,
    pub(crate) induction: Option<VarSpec>,
    pub(crate) step: i64,
    /// The operands `(lhs, rhs)` of the bound compare `LOOP_INIT` names:
    /// `rhs` is the loop bound, and a chunk compares `lhs` with its own.
    pub(crate) bound: Option<(Operand, Operand)>,
    pub(crate) continue_cond: i64,
    pub(crate) reductions: Vec<(VarSpec, i64 /*op*/, bool /*float*/)>,
    pub(crate) bounds_pairs: Vec<(SideSpec, SideSpec)>,
    /// The loop carries `TX_START` rules (STM-wrapped shared-library calls).
    pub(crate) has_tx_calls: bool,
    /// `SPECULATE`: run invocations of this loop under the iteration-level
    /// speculation engine instead of chunked DOALL execution.
    pub(crate) speculative: bool,
    // The loop's own stops, sized by the loop: where its chunks and
    // speculative iterations do more than step a run. Each starts a run of
    // `PreparedParts::runs`; another loop's stops never stop them.
    /// The slot of the bound compare, run specialised to a chunk's bound.
    bound_cmp: Option<usize>,
    /// The slots of the `LOOP_FINISH` / `THREAD_YIELD` rules: a chunk ends.
    exits: Vec<usize>,
    /// The `TX_START` calls by slot, with the PLT index each calls.
    tx_calls: Vec<(usize, u32)>,
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
        let mut loops: HashMap<usize, LoopRt> = HashMap::new();
        // Loops with a rule whose data words do not decode, or that names an
        // instruction of the wrong kind.
        let mut undecodable = HashSet::new();
        for rule in schedule.rules() {
            let entry = loops.entry(rule.loop_id()).or_default();
            let decoded = match rule.id {
                RuleId::LoopInit => {
                    entry.header = rule.addr;
                    entry.induction = VarSpec::decode(rule.data[1], rule.data[2]);
                    entry.step = rule.data[3];
                    entry.bound_cmp = process.slot_of(rule.data[4] as u64);
                    entry.bound = match entry.bound_cmp.map(|slot| process.inst(slot)) {
                        Some(Inst::Cmp { lhs, rhs }) => Some((lhs, rhs)),
                        _ => None,
                    };
                    entry.continue_cond = rule.data[5];
                    entry.induction.is_some() && entry.bound.is_some()
                }
                RuleId::MemPrivatise => VarSpec::decode(rule.data[1], rule.data[2])
                    .map(|var| {
                        entry
                            .reductions
                            .push((var, rule.data[3], rule.data[4] != 0));
                    })
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
                    entry.has_tx_calls = true;
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
        // Drop loop entries without a LOOP_INIT rule (e.g. profiling-only
        // schedules) — they cannot drive parallelisation — and every loop
        // with a rule that does not decode: running one with a rule skipped
        // could race (an unprivatised reduction, an unchecked overlap) or
        // fail (a bound that is no compare), or call outside the STM.
        loops.retain(|id, l| l.header != 0 && !undecodable.contains(id));
        let bound_cmps: Vec<usize> = loops.values().filter_map(|lr| lr.bound_cmp).collect();
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
    fn run(self) -> Result<DbmRunResult> {
        let backend = self.config.backend;
        let result = self.run_inner();
        match &result {
            Ok(res) => crate::meter::record_run(backend, &res.stats, res.cycles, res.wall_nanos),
            Err(_) => crate::meter::record_run_failure(backend),
        }
        result
    }

    fn run_inner(mut self) -> Result<DbmRunResult> {
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
                self.stats.breakdown.translation += self.config.indirect_lookup_cost;
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
        let (translated, executions, cache_cycles) = self.cache.charges(&self.config);
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
        let clock = self.stats.breakdown.total() + self.cache.charges(&self.config).2;
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
    fn iteration_count(start: i64, end: i64, step: i64, cond: i64) -> Option<i64> {
        // cond encoding matches janus_ir::Cond discriminants used by rulegen:
        // 2 = Lt, 3 = Le, 4 = Gt, 5 = Ge, 1 = Ne (others treated like Lt).
        let (start, end, step) = (i128::from(start), i128::from(end), i128::from(step));
        let (span, step_abs) = if step > 0 {
            let end = if cond == 3 { end + 1 } else { end };
            (end - start, step)
        } else {
            let end = if cond == 5 { end - 1 } else { end };
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
                    pending.predicted_nanos.map_or(
                        janus_obs::ArgValue::Str("none".to_string()),
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
        let induction = lr.induction.expect("loop has induction variable");
        let (bound_lhs, bound_operand) = lr.bound.expect("loop has a bound compare");

        // Evaluate the current induction value and the loop bound.
        let start = induction.read(&self.main, &mut self.mem);
        let end = self.read_operand_int(&bound_operand);
        // A count that does not fit runs sequentially, like a short one.
        let iterations = Self::iteration_count(start, end, lr.step, lr.continue_cond).unwrap_or(0);
        let threads = i64::from(self.config.threads.max(1));
        if iterations < threads * self.config.min_iterations_per_thread.max(1) as i64 {
            self.stats.sequential_fallbacks += 1;
            return Ok(false);
        }

        // SPECULATE: may-dependent loops run under the iteration-level
        // speculation engine; bounds checks are subsumed by validation.
        if lr.speculative {
            if !(self.config.enable_runtime_checks && self.config.enable_speculation) {
                self.stats.sequential_fallbacks += 1;
                return Ok(false);
            }
            return self.try_speculative_loop(lr, induction, bound_lhs, start, iterations);
        }

        // Runtime array-bounds checks (MEM_BOUNDS_CHECK).
        if !lr.bounds_pairs.is_empty() {
            if !self.config.enable_runtime_checks {
                self.stats.sequential_fallbacks += 1;
                return Ok(false);
            }
            self.stats.bounds_checks_executed += lr.bounds_pairs.len() as u64;
            self.stats.breakdown.checks +=
                self.config.bounds_check_cost * lr.bounds_pairs.len() as u64;
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
        if lr.has_tx_calls && !self.config.enable_runtime_checks {
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
        // guest context per chunk — a copy of the main context with a private
        // stack holding a copy of the main frame, the chunk's induction start
        // and privatised reduction accumulators.
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
            let chunk_start_iter = t as i64 * chunk;
            let chunk_end_iter = chunk_start_iter.saturating_add(chunk).min(iterations);
            let thread_start = induction_at(start, chunk_start_iter, lr.step);
            let thread_end = induction_at(start, chunk_end_iter, lr.step);

            let mut cpu = self.main.clone();
            cpu.cycles = 0;
            cpu.retired = 0;
            let delta = (t as u64 + 1) * STACK_SIZE;
            cpu.write_gpr(Reg::FP, (main_fp - delta) as i64);
            cpu.set_sp(main_sp - delta);
            self.mem.write_bytes(frame_lo - delta, &frame_bytes);

            // LOOP_UPDATE_BOUND: the thread's bound is its chunk end.
            let thread_bound = match lr.continue_cond {
                3 => thread_end - lr.step, // Le
                5 => thread_end - lr.step, // Ge
                _ => thread_end,
            };
            // Thread-private induction start.
            induction.write(&mut cpu, &mut self.mem, thread_start);
            // Privatised reduction accumulators: thread 0 keeps the incoming
            // value, the others start from the identity.
            if t > 0 {
                for (var, _, is_float) in &lr.reductions {
                    let zero = if *is_float { 0f64.to_bits() as i64 } else { 0 };
                    var.write(&mut cpu, &mut self.mem, zero);
                }
            }
            self.stats.breakdown.init_finish += self.config.loop_init_cost;
            cpu.pc = lr.header;
            // The chunk's frame copy and the stack below it, under the main frame.
            let window_top = (frame_hi - delta).min(frame_lo);
            plans.push(ChunkPlan {
                cpu,
                bound: thread_bound,
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
            bound_lhs,
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
        for r in &batch.results {
            self.stats.retired += r.cpu.retired;
        }
        self.stats.breakdown.init_finish += self.config.loop_finish_cost * num_chunks as u64;
        self.stats.breakdown.parallel += batch.parallel_cycles;
        self.stats.os_threads_used = self.stats.os_threads_used.max(batch.os_threads);
        self.stats.parallel_wall_nanos += batch.wall_nanos;
        crate::meter::meter(self.config.backend)
            .chunk_wall_nanos
            .record(batch.wall_nanos);
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
            let chunk_cycles: u64 = batch.results.iter().map(|r| r.cpu.cycles).sum();
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
                        outcome.predicted_nanos.map_or(
                            janus_obs::ArgValue::Str("none".to_string()),
                            janus_obs::ArgValue::U64,
                        ),
                    ),
                    ("measured_nanos", batch.wall_nanos.into()),
                    ("probe", outcome.probe.into()),
                ],
            );
        }

        // Accumulate reduction contributions.
        // Both add- and sub-reductions merge by addition: every thread
        // after the first starts from the identity, so its accumulator
        // holds a (possibly negative) delta to fold into the total.
        let mut reduction_totals: Vec<i64> = lr
            .reductions
            .iter()
            .map(
                |(_var, _, is_float)| {
                    if *is_float {
                        0f64.to_bits() as i64
                    } else {
                        0
                    }
                },
            )
            .collect();
        for r in &batch.results {
            for (idx, (var, _op, is_float)) in lr.reductions.iter().enumerate() {
                let v = var.read(&r.cpu, &mut self.mem);
                let total = &mut reduction_totals[idx];
                if *is_float {
                    let sum = f64::from_bits(*total as u64);
                    let val = f64::from_bits(v as u64);
                    *total = (sum + val).to_bits() as i64;
                } else {
                    *total = total.wrapping_add(v);
                }
            }
        }

        // LOOP_FINISH: merge contexts back into the main thread. The last
        // thread executed the final iterations, so its register state is the
        // state a sequential execution would have left behind.
        let last = batch.results.last().expect("at least one chunk ran");
        let saved_sp = self.main.sp();
        let saved_fp = self.main.read_gpr(Reg::FP);
        self.main.gpr = last.cpu.gpr;
        self.main.vreg = last.cpu.vreg;
        self.main.flags = last.cpu.flags;
        self.main.set_sp(saved_sp);
        self.main.write_gpr(Reg::FP, saved_fp);
        // Stack-slot induction variables live in the (private) frame of the
        // last thread; propagate the final value to the main frame.
        if let VarSpec::Stack(_) = induction {
            let final_value = induction.read(&last.cpu, &mut self.mem);
            induction.write(&mut self.main, &mut self.mem, final_value);
        }
        // Combined reductions overwrite the merged context.
        for (idx, (var, _, _)) in lr.reductions.iter().enumerate() {
            var.write(&mut self.main, &mut self.mem, reduction_totals[idx]);
        }
        self.main.pc = last.exit_pc;
        Ok(true)
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
    fn try_speculative_loop(
        &mut self,
        lr: &LoopRt,
        induction: VarSpec,
        bound_lhs: Operand,
        start: i64,
        iterations: i64,
    ) -> Result<bool> {
        if iterations > MAX_SPECULATIVE_ITERATIONS as i64 {
            self.stats.spec_fallbacks += 1;
            self.stats.sequential_fallbacks += 1;
            return Ok(false);
        }
        // Per-iteration contexts restart from the loop-entry register state,
        // so the induction variable and any reduction accumulators must live
        // in registers (the rule generator guarantees this for selected
        // loops; fall back rather than fault if a schedule says otherwise).
        let VarSpec::Reg(ind_raw) = induction else {
            self.stats.sequential_fallbacks += 1;
            return Ok(false);
        };
        let ind_reg = Reg::from_raw(ind_raw).ok_or_else(|| DbmError::BadRule {
            reason: format!("bad induction register {ind_raw} in SPECULATE loop"),
        })?;
        let Some(reductions) = lr
            .reductions
            .iter()
            .map(|&(var, _, is_float)| match var {
                VarSpec::Reg(r) => Reg::from_raw(r).map(|reg| (reg, is_float)),
                VarSpec::Stack(_) => None,
            })
            .collect::<Option<Vec<(Reg, bool)>>>()
        else {
            self.stats.sequential_fallbacks += 1;
            return Ok(false);
        };

        let template = {
            let mut cpu = self.main.clone();
            cpu.cycles = 0;
            cpu.retired = 0;
            cpu
        };
        let spec_config = janus_spec::SpecConfig {
            lanes: self.config.threads.max(1),
            read_overhead: self.config.spec.read,
            write_overhead: self.config.spec.write,
            validate_base_cost: self.config.spec.validate * 3,
            validate_read_cost: self.config.spec.validate,
            abort_cost: self.config.spec.abort,
            commit_cost_per_write: self.config.spec.write / 2,
            max_task_factor: self.config.spec.max_task_factor,
        };

        // Split the borrows the iteration body needs off `self` so the guest
        // memory can be temporarily moved into the engine.
        let process = &self.prepared.parts.process;
        let plan = &**process.plan();
        let limit = Limit::Cycles(self.config.cycle_limit);
        let runs = &self.prepared.parts.runs;
        let header = lr.header;
        let continue_cond = lr.continue_cond;
        let step = lr.step;
        let last_iter = iterations as usize - 1;
        let mut base = std::mem::take(&mut self.mem);

        // Every capture is read-only: per-incarnation state lives in the
        // cloned `Cpu` and the view.
        let body =
            |iter: usize,
             view: &mut janus_spec::SpecView<'_, FlatMemory>|
             -> std::result::Result<janus_spec::IterationRun<SpecPayload>, DbmError> {
                let mut cpu = template.clone();
                let value = induction_at(start, iter as i64, step);
                cpu.write_gpr(ind_reg, value);
                // Privatised reduction accumulators: iteration 0 keeps the
                // incoming value, the others start from the identity.
                if iter > 0 {
                    for &(reg, _) in &reductions {
                        // The identity is all-zero bits for both register files.
                        write_reg(&mut cpu, reg, 0);
                    }
                }
                // LOOP_UPDATE_BOUND specialised to exactly one iteration.
                let iter_end = value + step;
                let bound = match continue_cond {
                    3 | 5 => iter_end - step, // Le / Ge
                    _ => iter_end,
                };
                let (bound_cmp, bound_cmp_cost) = bound_compare(bound_lhs, bound);
                cpu.pc = header;
                loop {
                    limit.check(&cpu)?;
                    let slot = process.slot(cpu.pc)?;
                    if lr.exits.contains(&slot) {
                        return Ok(janus_spec::IterationRun {
                            cycles: cpu.cycles,
                            payload: SpecPayload {
                                retired: cpu.retired,
                                reductions: reductions
                                    .iter()
                                    .map(|&(reg, _)| read_reg(&cpu, reg))
                                    .collect(),
                                last: (iter == last_iter).then(|| Box::new(cpu)),
                            },
                        });
                    }
                    let effect = if lr.bound_cmp == Some(slot) {
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
            &spec_config,
            &mut base,
            iterations as usize,
            &body,
            &self.recorder,
        );
        self.mem = base;
        self.stats.parallel_wall_nanos += invocation.wall_nanos;
        crate::meter::meter(self.config.backend)
            .chunk_wall_nanos
            .record(invocation.wall_nanos);

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
        self.stats.breakdown.init_finish += (self.config.loop_init_cost
            + self.config.loop_finish_cost)
            * u64::from(self.config.threads.max(1));

        // Merge the last iteration's context back into the main thread, as a
        // sequential execution would have left it.
        let last_cpu = outcome
            .payloads
            .last()
            .and_then(|p| p.last.as_deref())
            .expect("the last iteration carries its context");
        let saved_sp = self.main.sp();
        let saved_fp = self.main.read_gpr(Reg::FP);
        self.main.gpr = last_cpu.gpr;
        self.main.vreg = last_cpu.vreg;
        self.main.flags = last_cpu.flags;
        self.main.set_sp(saved_sp);
        self.main.write_gpr(Reg::FP, saved_fp);
        self.main.pc = last_cpu.pc;

        // Reduction totals across iterations, in iteration order (iteration
        // 0 carries the incoming value, the rest are deltas).
        for (idx, &(reg, is_float)) in reductions.iter().enumerate() {
            let total = outcome.payloads.iter().fold(0i64, |total, p| {
                let v = p.reductions[idx];
                if is_float {
                    (f64::from_bits(total as u64) + f64::from_bits(v as u64)).to_bits() as i64
                } else {
                    total.wrapping_add(v)
                }
            });
            write_reg(&mut self.main, reg, total);
        }
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
    (op, CostModel::default().cost(&inst))
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
/// `LOOP_FINISH` address, and returns its final context and that address.
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
) -> Result<ChunkResult> {
    let config = ctx.config;
    let lr = ctx.lr;
    let process = &ctx.parts.process;
    let text = &**process.plan();
    let limit = Limit::Cycles(config.cycle_limit);
    let (bound_cmp, bound_cmp_cost) = bound_compare(ctx.bound_lhs, plan.bound);
    let mut cpu = plan.cpu.clone();
    let mut log = TxLog::default();
    loop {
        limit.check(&cpu)?;
        let pc = cpu.pc;
        let slot = process.slot(pc)?;
        if lr.exits.contains(&slot) {
            return Ok(ChunkResult { cpu, exit_pc: pc });
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
        let effect = if lr.bound_cmp == Some(slot) {
            counts[slot] += 1;
            step_op(&mut cpu, mem, &bound_cmp, bound_cmp_cost)?
        } else {
            let retired = cpu.retired;
            let stepped = step_run(&mut cpu, mem, text, &ctx.parts.runs, slot, limit);
            let last = count_blocks(counts, slot, cpu.retired - retired);
            let effect = stepped?;
            if text.op(last).is_indirect() {
                fx.lookup_cycles += config.indirect_lookup_cost;
            }
            effect
        };
        match effect {
            Effect::Continue => cpu.pc += STEP,
            Effect::Jump(t) => cpu.pc = t,
            Effect::Halt => {
                let exit_pc = cpu.pc;
                return Ok(ChunkResult { cpu, exit_pc });
            }
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
    let config = ctx.config;
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
    let stm_cost = tx_stats.reads * config.stm.read
        + tx_stats.writes * config.stm.write
        + (tx_stats.reads + tx_stats.writes) * config.stm.commit;
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
        for spec in [VarSpec::Reg(4), VarSpec::Reg(31), VarSpec::Stack(-64)] {
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
                reg: Some(5),
                base_or_offset: 16,
                stride: 32,
            },
            SideSpec {
                reg: Some(9),
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
        assert_eq!(Dbm::iteration_count(0, 100, 1, 2), Some(100));
        // for (i = 0; i <= 100; i += 1)
        assert_eq!(Dbm::iteration_count(0, 100, 1, 3), Some(101));
        // for (i = 0; i < 100; i += 3)
        assert_eq!(Dbm::iteration_count(0, 100, 3, 2), Some(34));
        // for (i = 100; i > 0; i -= 1)
        assert_eq!(Dbm::iteration_count(100, 0, -1, 4), Some(100));
        // empty
        assert_eq!(Dbm::iteration_count(10, 10, 1, 2), Some(0));
        assert_eq!(Dbm::iteration_count(20, 10, 1, 2), Some(0));
        assert_eq!(Dbm::iteration_count(i64::MAX, i64::MIN, 1, 3), Some(0));
        // Guest-chosen extremes: counts and last values that fit...
        assert_eq!(Dbm::iteration_count(0, i64::MAX, 1, 2), Some(i64::MAX));
        assert_eq!(
            Dbm::iteration_count(0, i64::MAX - 1, 2, 2),
            Some((1 << 62) - 1)
        );
        // ...a count that does not (2^63 + 59, 2^63, 2^64 - 1, 2^63 + 1)...
        assert_eq!(Dbm::iteration_count(i64::MIN + 5, 64, 1, 2), None);
        assert_eq!(Dbm::iteration_count(0, i64::MAX, 1, 3), None);
        assert_eq!(Dbm::iteration_count(i64::MAX, i64::MIN, -1, 4), None);
        assert_eq!(Dbm::iteration_count(0, i64::MIN, -1, 5), None);
        // ...and counts that do whose last value (2^63, -2^63 - 1) does not.
        assert_eq!(Dbm::iteration_count(0, i64::MAX, 2, 3), None);
        assert_eq!(Dbm::iteration_count(i64::MIN, i64::MIN, -1, 5), None);
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
            reg: Some(Reg::R5.raw()),
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
