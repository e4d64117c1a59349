//! # janus-dbm — the dynamic binary modifier and parallel runtime
//!
//! This crate is the reproduction's counterpart of the paper's DynamoRIO
//! client plus runtime (sections II-A2 and II-E). It executes a guest
//! process under dynamic binary modification control:
//!
//! * the **rewrite-rule interpreter** looks up every newly reached basic
//!   block in the rewrite schedule — lowered once per binary into tables
//!   indexed by instruction slot, so the lookup is an array access — and
//!   applies the attached handlers (loop-bound updates, stack redirection,
//!   bounds checks, transaction start/finish) before execution continues
//!   from the code cache;
//! * the **code cache model** charges a translation cost the first time a
//!   block is reached, a dispatch cost until the block becomes hot enough to
//!   be linked (trace optimisation), and an indirect-branch lookup penalty —
//!   this is what produces the "DynamoRIO only" overhead bar of Figure 7;
//! * the **parallel loop runtime** implements `LOOP_INIT`/`LOOP_FINISH`:
//!   when the main thread reaches a parallelised loop header it verifies any
//!   `MEM_BOUNDS_CHECK` rules, splits the iteration space over a pool of
//!   guest threads (each with its own register context, private stack and
//!   privatised reduction accumulators), rewrites each thread's loop bound,
//!   runs the threads and merges their contexts back;
//! * a **just-in-time software transactional memory** wraps dynamically
//!   discovered code (shared-library calls) in value-validated transactions,
//!   exactly as Janus does for the `pow` call in bwaves.
//!
//! ## Execution backends
//!
//! Chunk execution is a `match` on the [`BackendKind`] in
//! [`DbmConfig::backend`]:
//!
//! * [`BackendKind::VirtualTime`] (the default) executes chunks deterministically,
//!   one after another on the coordinating thread, and reports *virtual*
//!   parallel time: each chunk's cycle count is charged to the least-loaded
//!   of `threads` modelled worker lanes ([`janus_spec::Lanes`]) and the
//!   busiest lane's clock is the invocation's parallel time. All
//!   shared-memory effects are real (the chunks operate on the same guest
//!   address space); only the notion of time is simulated. This backend is
//!   bit-reproducible across runs and machines — it is what Figures 7, 8, 9,
//!   11 and 12 are built from.
//! * [`BackendKind::NativeThreads`] runs the chunks of each parallel-loop
//!   invocation on real OS threads: chunk 0 on the calling thread, the rest
//!   on a pool of parked workers that the run spawns at its first parallel
//!   batch and joins when it returns. Every chunk executes against a
//!   [`janus_vm::CowMemory`] view — a private write overlay over the shared
//!   read-only memory image — and the overlays are merged back in chunk order
//!   once every chunk has reported, which reproduces the exact memory image
//!   the virtual-time backend produces. Modelled cycles are charged through
//!   the same worker-lane code path (so cycle counts remain deterministic and
//!   comparable), while wall-clock time and the number of OS threads that
//!   ran chunks are additionally reported in
//!   [`DbmStats::parallel_wall_nanos`] and [`DbmStats::os_threads_used`].
//!   Speculative (`SPECULATE`) invocations run the same `janus-spec` engine
//!   the virtual-time backend drives, on the calling thread, so speculative
//!   reports are bit-identical to it.
//!   Loops whose schedule carries `TX_START` rules (STM-wrapped
//!   shared-library calls, i.e. potential cross-chunk dependences) run on
//!   the pool too. Each chunk records which words its transactions read and
//!   whether any wrote outside its private stack window or aborted; chunks
//!   commit in chunk order, and the first one that may have seen a stale
//!   word is run again, with every chunk after it, on the calling thread
//!   over the merged image, exactly as the virtual-time backend runs them.
//!
//! Pick the virtual-time backend to reproduce the paper's figures, and the
//! native-threads backend to exercise real parallel hardware (thread-scaling
//! runs, wall-clock measurements). Both produce identical guest memory
//! images and program outputs for every workload in the suite; the
//! cross-backend equivalence test in `janus-core` asserts exactly that via
//! [`DbmRunResult::memory_digest`].
//!
//! The resulting [`CycleBreakdown`] always carries modelled cycles;
//! wall-clock measurements live beside it in [`DbmStats`] so virtual-time
//! figures stay bit-identical regardless of backend availability.
//!
//! `docs/ARCHITECTURE.md` at the repository root places this crate in the
//! whole pipeline and spells out why modelled results are invariant across
//! the two backends.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod meter;
mod runtime;
mod stm;
mod tuner;

pub use backend::BackendKind;
pub use runtime::{DbmRunResult, PreparedDbm, SideSpec, VarSpec, MAX_SPECULATIVE_ITERATIONS};
pub use stm::TxStats;
pub use tuner::{TuneDecision, TuneOutcome, Tuner};

use std::fmt;

/// Cost knobs of the just-in-time software transactional memory (the
/// JudoSTM-style `TX_START`/`TX_FINISH` path wrapping shared-library calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmCosts {
    /// Extra cycles per speculative (transactional) memory read.
    pub read: u64,
    /// Extra cycles per speculative (transactional) memory write.
    pub write: u64,
    /// Cycles per buffered entry validated/committed at transaction end.
    pub commit: u64,
}

impl Default for StmCosts {
    fn default() -> Self {
        StmCosts {
            read: 8,
            write: 14,
            commit: 16,
        }
    }
}

/// Cost knobs of the Block-STM-style iteration-level speculation engine
/// (`janus-spec`), plus its livelock guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecCosts {
    /// Extra cycles per tracked read in a speculative (DOACROSS) iteration.
    pub read: u64,
    /// Extra cycles per buffered write in a speculative iteration.
    pub write: u64,
    /// Cycles per read-set entry re-resolved when an iteration validates.
    pub validate: u64,
    /// Cycles charged per speculative abort (estimate conversion, re-dispatch).
    pub abort: u64,
    /// Task budget multiplier before a speculative invocation gives up and
    /// re-runs sequentially (livelock guard for densely dependent loops).
    pub max_task_factor: u32,
}

impl Default for SpecCosts {
    fn default() -> Self {
        SpecCosts {
            read: 6,
            write: 10,
            validate: 4,
            abort: 60,
            max_task_factor: 64,
        }
    }
}

/// **Ignored**: every speculative (`SPECULATE`) invocation runs the one
/// deterministic `janus-spec` engine, whichever mode is set. Kept only until
/// the ledger drops its `dbm.execute.raced` extra, which still builds a
/// [`DbmConfig`] naming [`SpecCommitMode::RacedImage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpecCommitMode {
    /// The default.
    #[default]
    Deterministic,
    /// The same as [`SpecCommitMode::Deterministic`].
    RacedImage,
}

/// Configuration of the dynamic binary modifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbmConfig {
    /// Number of guest threads used for parallelised loops.
    pub threads: u32,
    /// Which backend runs parallel-loop chunks.
    pub backend: BackendKind,
    /// Allow dynamic-DOALL loops: evaluate `MEM_BOUNDS_CHECK` rules and run
    /// shared-library calls under the STM. When `false`, only rules for
    /// statically proven loops are honoured.
    pub enable_runtime_checks: bool,
    /// Honour `SPECULATE` rules: run may-dependent loops under the
    /// Block-STM-style iteration-level speculation engine (`janus-spec`).
    /// When `false`, speculative loops fall back to sequential execution.
    pub enable_speculation: bool,
    /// Cycles charged the first time a basic block is copied into the code
    /// cache (decode + modify + encode).
    pub translation_cost: u64,
    /// Cycles charged per block execution until the block is linked into a
    /// trace.
    pub dispatch_cost: u64,
    /// Number of executions after which a block counts as linked (trace
    /// optimisation removes its dispatch overhead).
    pub link_threshold: u64,
    /// Extra cycles charged for every indirect branch, call or return that
    /// must go through the DBM's target lookup.
    pub indirect_lookup_cost: u64,
    /// Cycles charged per thread to initialise a parallel loop (wake from the
    /// thread pool, copy initial context).
    pub loop_init_cost: u64,
    /// Cycles charged per thread to finish a parallel loop (barrier + merge).
    pub loop_finish_cost: u64,
    /// Cycles charged per array-bounds-check pair per loop invocation.
    pub bounds_check_cost: u64,
    /// Cost knobs of the shared-library-call STM.
    pub stm: StmCosts,
    /// Cost knobs of the iteration-level speculation engine.
    pub spec: SpecCosts,
    /// Ignored: see [`SpecCommitMode`]. Kept only for the ledger's
    /// `dbm.execute.raced` extra.
    pub spec_commit: SpecCommitMode,
    /// Minimum iterations per thread below which a loop invocation is run
    /// sequentially (parallelisation would not be profitable).
    pub min_iterations_per_thread: u64,
    /// Abort execution after this many virtual cycles.
    pub cycle_limit: u64,
    /// Adaptive execution: let a per-loop [`Tuner`] pick sequential vs
    /// parallel execution and the chunk count from measured wall time, so no
    /// loop keeps paying for parallelism that does not pay for itself.
    /// Wall-time-only — guest results are identical either way, and with the
    /// knob off (the default) planning is untouched, keeping modelled
    /// figures bit-identical to previous releases. Defaults to the
    /// `JANUS_ADAPTIVE` environment variable (`1`/`true` to enable).
    pub adaptive: bool,
}

impl Default for DbmConfig {
    /// The default configuration. The backend honours the `JANUS_BACKEND`
    /// environment variable (`virtual` / `native`) so a whole test or bench
    /// run can be switched without code changes; everything else is fixed.
    fn default() -> Self {
        DbmConfig {
            threads: 8,
            backend: BackendKind::from_env(),
            enable_runtime_checks: true,
            enable_speculation: true,
            translation_cost: 350,
            dispatch_cost: 3,
            link_threshold: 16,
            indirect_lookup_cost: 12,
            loop_init_cost: 2_200,
            loop_finish_cost: 1_400,
            bounds_check_cost: 35,
            stm: StmCosts::default(),
            spec: SpecCosts::default(),
            spec_commit: SpecCommitMode::default(),
            min_iterations_per_thread: 1,
            cycle_limit: 200_000_000_000,
            adaptive: adaptive_from_env(),
        }
    }
}

/// Whether the `JANUS_ADAPTIVE` environment variable asks for adaptive
/// execution (`1`, `true`, `yes` or `on`, case-insensitive). Unrecognised
/// values fall back to *off* — the same lenient default `BackendKind::
/// from_env` applies to `JANUS_BACKEND` — but loudly: a value like
/// `JANUS_ADAPTIVE=2` is almost certainly a typo for "on", and silently
/// running the static policy would invalidate whatever the caller was
/// measuring.
fn adaptive_from_env() -> bool {
    match adaptive_from_value(std::env::var("JANUS_ADAPTIVE").ok().as_deref()) {
        Ok(on) => on,
        Err(value) => {
            eprintln!(
                "janus-dbm: unrecognised JANUS_ADAPTIVE value {value:?} \
                 (expected 1/true/yes/on or 0/false/no/off); adaptive \
                 execution stays OFF"
            );
            false
        }
    }
}

/// The pure decision behind [`adaptive_from_env`]: `Ok(true)` for truthy
/// spellings, `Ok(false)` for unset/empty/falsy spellings, and
/// `Err(original_value)` for anything unrecognised so the caller can warn.
fn adaptive_from_value(value: Option<&str>) -> std::result::Result<bool, String> {
    let Some(raw) = value else { return Ok(false) };
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Ok(true),
        "" | "0" | "false" | "no" | "off" => Ok(false),
        _ => Err(raw.to_string()),
    }
}

/// Virtual-cycle breakdown of one execution, mirroring Figure 8 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles spent executing sequential (non-parallelised) guest code.
    pub sequential: u64,
    /// Virtual cycles of parallel regions (maximum across the threads of each
    /// invocation, summed over invocations).
    pub parallel: u64,
    /// Thread start/finish overhead of parallel loops.
    pub init_finish: u64,
    /// Dynamic translation overhead (code-cache population, dispatch,
    /// indirect-branch lookups).
    pub translation: u64,
    /// Runtime array-bounds checks.
    pub checks: u64,
    /// Software-transactional-memory overhead (tracking, validation,
    /// commit), summed over the chunks that ran transactions. An
    /// attribution, not a sixth category: the cost is part of those chunks'
    /// cycles and so already inside `parallel`, which is why
    /// [`CycleBreakdown::total`] does not add it again.
    pub stm: u64,
}

impl CycleBreakdown {
    /// Total virtual execution time: every category but the `stm`
    /// attribution.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.sequential + self.parallel + self.init_finish + self.translation + self.checks
    }

    /// The fraction of total time spent in each category, in the order
    /// (sequential, parallel, init/finish, translation, checks).
    #[must_use]
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total().max(1) as f64;
        [
            self.sequential as f64 / t,
            self.parallel as f64 / t,
            self.init_finish as f64 / t,
            self.translation as f64 / t,
            self.checks as f64 / t,
        ]
    }
}

impl fmt::Display for CycleBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sequential {} | parallel {} | init/finish {} | translation {} | checks {} | stm {}",
            self.sequential,
            self.parallel,
            self.init_finish,
            self.translation,
            self.checks,
            self.stm
        )
    }
}

/// Counters describing one execution under the DBM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbmStats {
    /// Cycle breakdown by category.
    pub breakdown: CycleBreakdown,
    /// Guest instructions retired (across all threads).
    pub retired: u64,
    /// Distinct basic blocks translated into the code cache.
    pub blocks_translated: u64,
    /// Total basic-block executions.
    pub block_executions: u64,
    /// Parallel loop invocations executed in parallel.
    pub parallel_invocations: u64,
    /// Parallel-candidate invocations that fell back to sequential execution
    /// (failed bounds check or too few iterations).
    pub sequential_fallbacks: u64,
    /// Array-bounds-check pairs evaluated.
    pub bounds_checks_executed: u64,
    /// Software transactions executed.
    pub stm_transactions: u64,
    /// Software transactions aborted and re-executed.
    pub stm_aborts: u64,
    /// Speculative reads buffered by the STM.
    pub stm_reads: u64,
    /// Speculative writes buffered by the STM.
    pub stm_writes: u64,
    /// Loop invocations executed under iteration-level speculation.
    pub spec_invocations: u64,
    /// Iterations covered by speculative invocations.
    pub spec_iterations: u64,
    /// Iteration incarnations executed to completion (the excess over
    /// `spec_iterations` is conflict-driven re-execution).
    pub spec_executions: u64,
    /// Speculative aborts (failed validations, estimate stalls, retried
    /// faults).
    pub spec_aborts: u64,
    /// Validation tasks performed by the speculative engine.
    pub spec_validations: u64,
    /// Speculative invocations run sequentially instead: abandoned on the
    /// task budget, or longer than [`MAX_SPECULATIVE_ITERATIONS`].
    pub spec_fallbacks: u64,
    /// Word reads tracked by the speculation engine's multi-version views.
    pub spec_reads: u64,
    /// Word writes buffered by the speculation engine's multi-version views.
    pub spec_writes: u64,
    /// Largest number of OS threads that ran any single parallel-loop
    /// invocation: for a DOALL batch the calling thread plus the run's pool
    /// workers, i.e. the chunk count up to `threads`, transactional loops
    /// included (chunks that then run again in order on the calling thread
    /// do not lower it). Stays at 0 under the virtual-time backend, for runs
    /// with no parallel invocations, and for speculative invocations (the
    /// engine runs on the calling thread); a value above 1 is the
    /// observable proof that the native-threads backend fanned work out
    /// across real threads.
    pub os_threads_used: u64,
    /// Wall-clock nanoseconds spent inside parallel-region execution
    /// (chunk batches and speculative invocations), summed over invocations.
    /// Only the native-threads backend measures this; the virtual-time
    /// backend reports 0 so its output stays bit-reproducible.
    pub parallel_wall_nanos: u64,
    /// Adaptive-tuner decisions that chose (or kept) parallel execution.
    /// Stays at 0 when [`DbmConfig::adaptive`] is off.
    pub tune_parallel_decisions: u64,
    /// Adaptive-tuner decisions that sent an otherwise-parallelisable
    /// invocation down the sequential path because parallelism was not
    /// paying for itself. Not counted in
    /// [`DbmStats::sequential_fallbacks`], which keeps its historical
    /// meaning (failed bounds checks / too few iterations).
    pub tune_sequential_decisions: u64,
    /// Mapped guest pages the page-aware overlay merge skipped because no
    /// chunk dirtied them, summed over parallel invocations. 0 under the
    /// virtual-time backend (no overlays to merge).
    pub merge_pages_skipped: u64,
    /// Pages the overlay merge actually visited, summed over invocations.
    pub merge_pages_merged: u64,
}

impl DbmStats {
    /// Per-iteration retries of the speculative engine: completed
    /// re-executions beyond each iteration's first incarnation.
    #[must_use]
    pub fn spec_retries(&self) -> u64 {
        self.spec_executions.saturating_sub(self.spec_iterations)
    }

    /// Speculative aborts per completed execution (0 when nothing ran
    /// speculatively).
    #[must_use]
    pub fn spec_abort_rate(&self) -> f64 {
        if self.spec_executions == 0 {
            0.0
        } else {
            self.spec_aborts as f64 / self.spec_executions as f64
        }
    }
}

/// Errors raised by the dynamic binary modifier.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DbmError {
    /// The underlying guest execution faulted.
    Vm(janus_vm::VmError),
    /// A rewrite rule was malformed or referred to state the DBM cannot
    /// locate.
    BadRule {
        /// Description of the problem.
        reason: String,
    },
    /// The virtual cycle limit was exceeded.
    CycleLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for DbmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbmError::Vm(e) => write!(f, "guest execution failed: {e}"),
            DbmError::BadRule { reason } => write!(f, "bad rewrite rule: {reason}"),
            DbmError::CycleLimitExceeded { limit } => {
                write!(f, "virtual cycle limit of {limit} exceeded")
            }
        }
    }
}

impl std::error::Error for DbmError {}

impl From<janus_vm::VmError> for DbmError {
    /// A guest fault; the stepper's cycle-limit stop is the DBM's own.
    fn from(e: janus_vm::VmError) -> Self {
        match e {
            janus_vm::VmError::CycleLimitExceeded { limit } => {
                DbmError::CycleLimitExceeded { limit }
            }
            e => DbmError::Vm(e),
        }
    }
}

/// Convenience alias for DBM results.
pub type Result<T> = std::result::Result<T, DbmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_and_fractions() {
        let b = CycleBreakdown {
            sequential: 50,
            parallel: 30,
            init_finish: 10,
            translation: 5,
            checks: 5,
            stm: 20,
        };
        assert_eq!(b.total(), 100, "stm is inside parallel, not on top");
        let f = b.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 0.5).abs() < 1e-12);
        assert!(b.to_string().contains("parallel 30"));
    }

    #[test]
    fn default_config_is_sensible() {
        let c = DbmConfig::default();
        assert_eq!(c.threads, 8);
        assert!(c.enable_runtime_checks);
        assert!(c.translation_cost > c.dispatch_cost);
        // The grouped cost structs carry the historical default values.
        assert_eq!((c.stm.read, c.stm.write, c.stm.commit), (8, 14, 16));
        assert_eq!(
            (
                c.spec.read,
                c.spec.write,
                c.spec.validate,
                c.spec.abort,
                c.spec.max_task_factor
            ),
            (6, 10, 4, 60, 64)
        );
        assert_eq!(c.spec_commit, SpecCommitMode::Deterministic);
    }

    #[test]
    fn adaptive_value_matrix() {
        // Truthy spellings, in every case/whitespace disguise.
        for v in ["1", "true", "yes", "on", "TRUE", " On ", "YeS"] {
            assert_eq!(adaptive_from_value(Some(v)), Ok(true), "{v:?}");
        }
        // Falsy spellings and the unset/empty cases are off without fuss.
        for v in ["0", "false", "no", "off", "OFF", " False ", ""] {
            assert_eq!(adaptive_from_value(Some(v)), Ok(false), "{v:?}");
        }
        assert_eq!(adaptive_from_value(None), Ok(false));
        // Garbage is rejected (the env wrapper warns and stays off) rather
        // than silently meaning "off": `2` is a plausible typo for "on".
        for v in ["2", "enabled", "adaptive", "-1", "tru e", "on off"] {
            assert_eq!(
                adaptive_from_value(Some(v)),
                Err(v.to_string()),
                "{v:?} must be rejected, not silently treated as off"
            );
        }
    }

    #[test]
    fn errors_convert_and_display() {
        let e: DbmError = janus_vm::VmError::BadPc { pc: 0x10 }.into();
        assert!(e.to_string().contains("guest execution failed"));
        assert!(DbmError::BadRule { reason: "x".into() }
            .to_string()
            .contains("bad rewrite rule"));
    }
}
