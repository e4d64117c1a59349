//! # janus-core — the end-to-end Janus pipeline
//!
//! This crate ties the subsystems together into the automatic-parallelisation
//! flow of Figure 1(a) of the paper:
//!
//! 1. **Static analysis** ([`janus_analysis::analyze`]) over the stripped
//!    binary, producing loop classifications.
//! 2. Optional **statically-driven profiling** on a training input
//!    ([`janus_profile`]): loop coverage plus memory-dependence observation.
//! 3. **Loop selection**: one loop per nest, preferring outermost static
//!    DOALL loops and falling back to dynamic DOALL loops when runtime checks
//!    are enabled; low-coverage loops are filtered when profile data is
//!    available.
//! 4. **Rewrite-schedule generation** ([`Janus::generate_schedule`]): the selected
//!    loops are encoded as `LOOP_INIT` / `LOOP_FINISH` / `LOOP_UPDATE_BOUND` /
//!    `MEM_*` / `TX_*` rules; may-dependent loops additionally carry a
//!    `SPECULATE` rule that routes them to the Block-STM-style
//!    iteration-level speculation engine (`janus-spec`).
//! 5. **Execution** under the dynamic binary modifier ([`PreparedDbm`]),
//!    compared against native execution of the same process.
//!
//! The four optimisation levels evaluated in Figure 7 map onto
//! [`OptimisationMode`]: DynamoRIO-only, statically-driven, statically-driven
//! with profile guidance, and full Janus (profile + runtime checks +
//! speculation).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use janus_analysis::{analyze, AnalysisError, BinaryAnalysis, LoopCategory, LoopInfo, VarRef};
use janus_dbm::{DbmError, DbmRunResult};
use janus_ir::{Cond, JBinary};
use janus_obs::Recorder;
use janus_profile::{generate_profiling_schedule, profile, ProfileData};
use janus_schedule::{RewriteRule, RewriteSchedule, RuleId};
use janus_vm::{Process, RunResult, Vm, VmError};
use std::fmt;

pub use janus_dbm::{BackendKind, DbmConfig, PreparedDbm, SideSpec, SpecCommitMode, VarSpec};

/// The optimisation levels evaluated in the paper's Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimisationMode {
    /// Run under the DBM with an empty rewrite schedule (overhead baseline).
    DynamoRioOnly,
    /// Parallelise every statically proven DOALL loop; no profile guidance,
    /// no runtime checks.
    StaticallyDriven,
    /// Statically proven DOALL loops filtered by profile coverage.
    StaticallyDrivenProfile,
    /// Full Janus: profile guidance plus runtime checks and speculation,
    /// covering dynamic DOALL loops as well.
    #[default]
    Full,
}

impl OptimisationMode {
    /// Whether this mode uses profile information.
    #[must_use]
    pub fn uses_profile(self) -> bool {
        matches!(
            self,
            OptimisationMode::StaticallyDrivenProfile | OptimisationMode::Full
        )
    }

    /// Whether this mode enables runtime checks and speculation.
    #[must_use]
    pub fn uses_runtime_checks(self) -> bool {
        matches!(self, OptimisationMode::Full)
    }

    /// Human-readable label (matching the legend of Figure 7).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OptimisationMode::DynamoRioOnly => "DynamoRIO",
            OptimisationMode::StaticallyDriven => "Statically-Driven",
            OptimisationMode::StaticallyDrivenProfile => "Statically-Driven + Profile",
            OptimisationMode::Full => "Janus",
        }
    }
}

/// Configuration of a Janus run.
///
/// Not `Copy` (the [`trace`](JanusConfig::trace) recorder is a shared
/// handle); clone it where a copy was previously implicit.
#[derive(Debug, Clone, PartialEq)]
pub struct JanusConfig {
    /// Number of threads for parallel loops.
    pub threads: u32,
    /// Execution backend for parallel loops: the deterministic virtual-time
    /// simulator (default; reproduces the paper's figures bit-for-bit) or
    /// real OS worker threads (`BackendKind::NativeThreads`; identical guest
    /// results plus wall-clock measurements). Defaults to the `JANUS_BACKEND`
    /// environment variable when set.
    pub backend: BackendKind,
    /// Which parts of the pipeline to enable.
    pub mode: OptimisationMode,
    /// Loops with profile coverage below this fraction are not parallelised
    /// (only applies when profiling is enabled).
    pub coverage_threshold: f64,
    /// Attempt may-dependent (`Speculative`) loops under the Block-STM-style
    /// iteration-level speculation engine (`janus-spec`). Only takes effect
    /// in modes with runtime checks enabled; when `false`, loops with
    /// data-dependent accesses are never selected and run sequentially
    /// (conservative even where the seed pipeline would have chunked an
    /// unknown-access loop without verifying its independence).
    pub speculation: bool,
    /// Adaptive execution: let the DBM's per-loop tuner pick sequential vs
    /// parallel execution and the chunk count from measured wall time
    /// (see [`DbmConfig::adaptive`]). Guest results and `outputs_match` are
    /// unaffected; modelled cycles may differ when the tuner retargets a
    /// chunk count, so figure reproduction keeps this off. `false` here
    /// still honours the `JANUS_ADAPTIVE` environment variable through
    /// [`DbmConfig::default`]; setting it `true` forces adaptation on.
    pub adaptive: bool,
    /// Overrides for the DBM cost model.
    pub dbm: DbmConfig,
    /// Flight recorder the pipeline and the execution backends emit
    /// structured events to: analysis/profile/schedule spans from
    /// [`Janus::prepare`], per-chunk run/merge spans from both execution
    /// backends, and one span per speculative invocation.
    /// Defaults to the null recorder — disabled, with a hot-path cost of
    /// one branch per emission site. Attach
    /// [`Recorder::enabled`](janus_obs::Recorder::enabled) and export via
    /// its `chrome_trace` method, the one event exporter.
    pub trace: Recorder,
}

impl Default for JanusConfig {
    fn default() -> Self {
        JanusConfig {
            threads: 8,
            backend: BackendKind::from_env(),
            mode: OptimisationMode::Full,
            coverage_threshold: 0.02,
            speculation: true,
            adaptive: false,
            dbm: DbmConfig::default(),
            trace: Recorder::default(),
        }
    }
}

/// Errors raised by the pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum JanusError {
    /// Static analysis failed.
    Analysis(AnalysisError),
    /// Native (baseline) execution failed.
    Native(VmError),
    /// Execution under the DBM failed.
    Dbm(DbmError),
}

impl fmt::Display for JanusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JanusError::Analysis(e) => write!(f, "static analysis failed: {e}"),
            JanusError::Native(e) => write!(f, "native execution failed: {e}"),
            JanusError::Dbm(e) => write!(f, "parallel execution failed: {e}"),
        }
    }
}

impl std::error::Error for JanusError {}

impl From<AnalysisError> for JanusError {
    fn from(e: AnalysisError) -> Self {
        JanusError::Analysis(e)
    }
}
impl From<VmError> for JanusError {
    fn from(e: VmError) -> Self {
        JanusError::Native(e)
    }
}
impl From<DbmError> for JanusError {
    fn from(e: DbmError) -> Self {
        JanusError::Dbm(e)
    }
}

/// The front half of the pipeline for one binary: everything derivable from
/// the binary (plus an optional training input) *before* any measured run —
/// static analysis, the optional profile, loop selection and the generated
/// rewrite schedule, keyed by the binary's content digest.
///
/// This is the unit a serving layer caches: building it once per distinct
/// binary and re-executing it on many inputs is exactly the amortisation the
/// rewrite-schedule design exists for. All fields are plain data
/// (`Clone + Send + Sync`), so an `Arc<PipelineArtifacts>` can be shared
/// across worker threads freely.
///
/// # Persistence
///
/// [`PipelineArtifacts::to_bytes`] / [`PipelineArtifacts::from_bytes`]
/// serialise the *executable* subset — digests, loop selection and the
/// rewrite schedule (which has its own stable byte format) — so a disk
/// store can share one preparation across processes and restarts. The
/// intermediate `analysis` and `profile` are deliberately **not**
/// persisted: the schedule already encodes every decision derived from
/// them (that compaction is the paper's central artifact design), so a
/// deserialised value carries `analysis: None`, `profile: None` and is
/// every bit as executable as a freshly built one.
#[derive(Debug, Clone)]
pub struct PipelineArtifacts {
    /// Content digest of the binary the artifacts were derived from
    /// ([`JBinary::content_digest`]).
    pub binary_digest: u64,
    /// Static analysis of the binary. `None` when the artifacts were
    /// deserialised from a persistent store ([`PipelineArtifacts::from_bytes`]):
    /// execution needs only the schedule, and the analysis is re-derivable
    /// from the binary with [`Janus::analyze`] when a caller wants it.
    pub analysis: Option<BinaryAnalysis>,
    /// Profile data, when the configured mode profiles. `None` for
    /// deserialised artifacts (see `analysis`).
    pub profile: Option<ProfileData>,
    /// Loop ids selected for parallelisation.
    pub selected_loops: Vec<usize>,
    /// The subset of `selected_loops` scheduled for iteration-level
    /// speculation (`SPECULATE` rules).
    pub speculative_loops: Vec<usize>,
    /// The generated rewrite schedule.
    pub schedule: RewriteSchedule,
    /// Serialised schedule size in bytes.
    pub schedule_size: u64,
    /// Serialised binary size in bytes (for the Figure 10 ratio).
    pub binary_size: u64,
}

/// Version of the serialised [`PipelineArtifacts`] container format
/// ([`PipelineArtifacts::to_bytes`]). Independent of
/// [`janus_schedule::SCHEDULE_FORMAT_VERSION`], which versions the embedded
/// schedule payload; both are recorded in the header and both must match for
/// [`PipelineArtifacts::from_bytes`] to load an image.
pub const PIPELINE_ARTIFACTS_FORMAT_VERSION: u32 = 1;

const ARTIFACT_MAGIC: &[u8; 4] = b"JPAF";

/// Why a serialised [`PipelineArtifacts`] image could not be decoded.
///
/// The distinction matters to persistent stores: a [`VersionMismatch`]
/// entry was written by a different (older or newer) build and is simply
/// stale — rebuild it, nothing is wrong with the medium — while
/// [`Malformed`] / [`DigestMismatch`] mean the bytes themselves are not
/// what was written (truncation, bit rot, torn write) and the entry should
/// be quarantined for inspection rather than silently deleted.
///
/// [`VersionMismatch`]: ArtifactDecodeError::VersionMismatch
/// [`Malformed`]: ArtifactDecodeError::Malformed
/// [`DigestMismatch`]: ArtifactDecodeError::DigestMismatch
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArtifactDecodeError {
    /// The byte stream is truncated or structurally invalid.
    Malformed {
        /// Human-readable description.
        reason: String,
    },
    /// The image was written under a different container or schedule format
    /// version. Stale, not corrupt: rebuild from the binary.
    VersionMismatch {
        /// Which header field mismatched (`"artifact"` or `"schedule"`).
        kind: &'static str,
        /// The version this build reads.
        expected: u32,
        /// The version found in the image.
        found: u32,
    },
    /// The embedded schedule's recomputed content digest does not match the
    /// digest recorded in the header — the payload was altered after it was
    /// written.
    DigestMismatch {
        /// Digest recorded in the header at write time.
        expected: u64,
        /// Digest recomputed from the embedded schedule bytes.
        found: u64,
    },
}

impl fmt::Display for ArtifactDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactDecodeError::Malformed { reason } => {
                write!(f, "malformed pipeline-artifact image: {reason}")
            }
            ArtifactDecodeError::VersionMismatch {
                kind,
                expected,
                found,
            } => write!(
                f,
                "pipeline-artifact {kind} format version {found} (this build reads {expected})"
            ),
            ArtifactDecodeError::DigestMismatch { expected, found } => write!(
                f,
                "pipeline-artifact schedule digest {found:#018x} does not match recorded {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for ArtifactDecodeError {}

impl PipelineArtifacts {
    /// Serialises the executable subset of the artifacts — digests, sizes,
    /// loop selection and the rewrite schedule — into a self-describing,
    /// versioned byte image suitable for a content-addressed disk store.
    ///
    /// The header records both [`PIPELINE_ARTIFACTS_FORMAT_VERSION`] and
    /// [`janus_schedule::SCHEDULE_FORMAT_VERSION`], plus the schedule's own
    /// content digest; [`PipelineArtifacts::from_bytes`] refuses images
    /// whose versions differ and detects payloads that no longer hash to
    /// the recorded digest. The `analysis` and `profile` fields are not
    /// serialised (see the type-level docs).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let schedule_bytes = self.schedule.to_bytes();
        let mut out = Vec::with_capacity(64 + schedule_bytes.len());
        out.extend_from_slice(ARTIFACT_MAGIC);
        out.extend_from_slice(&PIPELINE_ARTIFACTS_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&janus_schedule::SCHEDULE_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.binary_digest.to_le_bytes());
        out.extend_from_slice(&self.schedule.content_digest().to_le_bytes());
        out.extend_from_slice(&self.binary_size.to_le_bytes());
        out.extend_from_slice(&self.schedule_size.to_le_bytes());
        let push_ids = |out: &mut Vec<u8>, ids: &[usize]| {
            out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for &id in ids {
                out.extend_from_slice(&(id as u64).to_le_bytes());
            }
        };
        push_ids(&mut out, &self.selected_loops);
        push_ids(&mut out, &self.speculative_loops);
        out.extend_from_slice(&(schedule_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&schedule_bytes);
        out
    }

    /// Decodes an image written by [`PipelineArtifacts::to_bytes`].
    ///
    /// The returned value has `analysis: None` and `profile: None`; every
    /// field a serving layer executes from (schedule, digests, loop
    /// selection) round-trips bit-exactly.
    ///
    /// # Errors
    ///
    /// [`ArtifactDecodeError::VersionMismatch`] when the image was written
    /// under a different container or schedule format version (stale —
    /// rebuild); [`ArtifactDecodeError::Malformed`] /
    /// [`ArtifactDecodeError::DigestMismatch`] when the bytes are damaged
    /// (quarantine).
    pub fn from_bytes(bytes: &[u8]) -> Result<PipelineArtifacts, ArtifactDecodeError> {
        let malformed = |reason: &str| ArtifactDecodeError::Malformed {
            reason: reason.to_string(),
        };
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], ArtifactDecodeError> {
            if *pos + n > bytes.len() {
                return Err(ArtifactDecodeError::Malformed {
                    reason: "unexpected end of image".to_string(),
                });
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let take_u32 = |pos: &mut usize| -> Result<u32, ArtifactDecodeError> {
            Ok(u32::from_le_bytes(take(pos, 4)?.try_into().unwrap()))
        };
        let take_u64 = |pos: &mut usize| -> Result<u64, ArtifactDecodeError> {
            Ok(u64::from_le_bytes(take(pos, 8)?.try_into().unwrap()))
        };

        if take(&mut pos, 4)? != ARTIFACT_MAGIC {
            return Err(malformed("bad magic"));
        }
        let artifact_version = take_u32(&mut pos)?;
        if artifact_version != PIPELINE_ARTIFACTS_FORMAT_VERSION {
            return Err(ArtifactDecodeError::VersionMismatch {
                kind: "artifact",
                expected: PIPELINE_ARTIFACTS_FORMAT_VERSION,
                found: artifact_version,
            });
        }
        let schedule_version = take_u32(&mut pos)?;
        if schedule_version != janus_schedule::SCHEDULE_FORMAT_VERSION {
            return Err(ArtifactDecodeError::VersionMismatch {
                kind: "schedule",
                expected: janus_schedule::SCHEDULE_FORMAT_VERSION,
                found: schedule_version,
            });
        }
        let binary_digest = take_u64(&mut pos)?;
        let schedule_digest = take_u64(&mut pos)?;
        let binary_size = take_u64(&mut pos)?;
        let schedule_size = take_u64(&mut pos)?;
        let take_ids = |pos: &mut usize| -> Result<Vec<usize>, ArtifactDecodeError> {
            let count = take_u32(pos)? as usize;
            let mut ids = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                ids.push(take_u64(pos)? as usize);
            }
            Ok(ids)
        };
        let selected_loops = take_ids(&mut pos)?;
        let speculative_loops = take_ids(&mut pos)?;
        let schedule_len = take_u32(&mut pos)? as usize;
        let schedule_bytes = take(&mut pos, schedule_len)?;
        if pos != bytes.len() {
            return Err(malformed("trailing bytes after schedule payload"));
        }
        let schedule = RewriteSchedule::from_bytes(schedule_bytes)
            .map_err(|e| malformed(&format!("embedded schedule: {e}")))?;
        let found = schedule.content_digest();
        if found != schedule_digest {
            return Err(ArtifactDecodeError::DigestMismatch {
                expected: schedule_digest,
                found,
            });
        }
        Ok(PipelineArtifacts {
            binary_digest,
            analysis: None,
            profile: None,
            selected_loops,
            speculative_loops,
            schedule,
            schedule_size,
            binary_size,
        })
    }
}

/// The result of parallelising and running one binary.
#[derive(Debug, Clone)]
pub struct JanusReport {
    /// Native single-threaded execution result (the baseline).
    pub native: RunResult,
    /// Execution under the DBM with the generated rewrite schedule.
    pub parallel: DbmRunResult,
    /// The execution backend the parallel run used.
    pub backend: BackendKind,
    /// Content digest of the binary that ran
    /// ([`JBinary::content_digest`]) — the key under which a serving layer
    /// caches this binary's analysis and schedule.
    pub binary_digest: u64,
    /// Loop ids that were selected for parallelisation.
    pub selected_loops: Vec<usize>,
    /// The subset of `selected_loops` scheduled for iteration-level
    /// speculation (`SPECULATE` rules).
    pub speculative_loops: Vec<usize>,
    /// Size of the generated rewrite schedule in bytes.
    pub schedule_size: u64,
    /// Size of the executable in bytes (for the Figure 10 ratio).
    pub binary_size: u64,
    /// `true` when the parallel run produced exactly the same program output
    /// as the native run.
    pub outputs_match: bool,
    /// Profile data, when profiling was enabled.
    pub profile: Option<ProfileData>,
}

impl JanusReport {
    /// Whole-program speedup of the parallelised execution over native.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.native.cycles as f64 / self.parallel.cycles.max(1) as f64
    }

    /// Rewrite-schedule size as a fraction of the binary size (Figure 10).
    #[must_use]
    pub fn schedule_size_fraction(&self) -> f64 {
        self.schedule_size as f64 / self.binary_size.max(1) as f64
    }

    /// Speculative aborts observed by the run (0 when nothing speculated).
    #[must_use]
    pub fn spec_aborts(&self) -> u64 {
        self.parallel.stats.spec_aborts
    }

    /// Per-iteration retries of the speculative engine.
    #[must_use]
    pub fn spec_retries(&self) -> u64 {
        self.parallel.stats.spec_retries()
    }

    /// Largest number of OS worker threads any parallel-loop invocation
    /// spawned (0 under the virtual-time backend — its parallelism is
    /// modelled, not physical).
    #[must_use]
    pub fn os_threads_used(&self) -> u64 {
        self.parallel.stats.os_threads_used
    }

    /// Wall-clock seconds spent inside parallel regions (chunk batches and
    /// speculative invocations). 0 under the virtual-time backend.
    #[must_use]
    pub fn parallel_wall_seconds(&self) -> f64 {
        self.parallel.stats.parallel_wall_nanos as f64 / 1e9
    }

    /// Mapped guest pages the page-aware overlay merge skipped (no chunk
    /// dirtied them), summed over parallel invocations. 0 under the
    /// virtual-time backend.
    #[must_use]
    pub fn merge_pages_skipped(&self) -> u64 {
        self.parallel.stats.merge_pages_skipped
    }
}

/// The Janus automatic binary paralleliser.
///
/// # Example
///
/// ```
/// use janus_core::{Janus, JanusConfig};
/// use janus_compile::{ast, Compiler};
///
/// let program = ast::Program::builder("axpy")
///     .global_f64("x", 8192)
///     .global_f64("y", 8192)
///     .function(ast::Function::new("main").local("i", ast::Ty::I64).body(vec![
///         ast::Stmt::simple_for(
///             "i",
///             ast::Expr::const_i(0),
///             ast::Expr::const_i(8192),
///             vec![ast::Stmt::assign(
///                 ast::LValue::store("y", ast::Expr::var("i")),
///                 ast::Expr::add(
///                     ast::Expr::mul(ast::Expr::load("x", ast::Expr::var("i")), ast::Expr::const_f(3.0)),
///                     ast::Expr::load("y", ast::Expr::var("i")),
///                 ),
///             )],
///         ),
///         ast::Stmt::print(ast::Expr::load("y", ast::Expr::const_i(100))),
///     ]))
///     .build();
/// let binary = Compiler::new().compile(&program).unwrap();
/// let janus = Janus::with_config(JanusConfig { threads: 4, ..JanusConfig::default() });
/// let report = janus.run(&binary, &[]).unwrap();
/// assert!(report.outputs_match);
/// assert!(report.speedup() > 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Janus {
    config: JanusConfig,
}

impl Janus {
    /// A paralleliser with the default configuration (8 threads, full mode).
    #[must_use]
    pub fn new() -> Janus {
        Janus::default()
    }

    /// A paralleliser with an explicit configuration.
    #[must_use]
    pub fn with_config(config: JanusConfig) -> Janus {
        Janus { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &JanusConfig {
        &self.config
    }

    /// This paralleliser with `trace` attached (builder style): pipeline
    /// stages and execution backends emit structured events to it. Serving
    /// layers use this to install their session recorder into the pipeline
    /// they drive.
    #[must_use]
    pub fn with_trace(mut self, trace: Recorder) -> Janus {
        self.config.trace = trace;
        self
    }

    /// The flight recorder this paralleliser emits to (the null recorder
    /// unless one was configured).
    #[must_use]
    pub fn trace(&self) -> &Recorder {
        &self.config.trace
    }

    /// Statically analyses a binary.
    ///
    /// # Errors
    ///
    /// Returns an error if the binary cannot be decoded.
    pub fn analyze(&self, binary: &JBinary) -> Result<BinaryAnalysis, JanusError> {
        Ok(analyze(binary)?)
    }

    /// Runs the profiling stage on a training input.
    ///
    /// # Errors
    ///
    /// Returns an error if profiling execution faults.
    pub fn profile(
        &self,
        binary: &JBinary,
        analysis: &BinaryAnalysis,
        train_input: &[i64],
    ) -> Result<ProfileData, JanusError> {
        let schedule = generate_profiling_schedule(analysis, binary.producer());
        let process = Process::load(binary)?;
        Ok(profile(&process, &schedule, train_input)?)
    }

    /// Selects the loops to parallelise, one per loop nest.
    #[must_use]
    pub fn select_loops(
        &self,
        analysis: &BinaryAnalysis,
        profile: Option<&ProfileData>,
    ) -> Vec<usize> {
        let allow_dynamic = self.config.mode.uses_runtime_checks();
        let eligible = |l: &LoopInfo, want: LoopCategory| -> bool {
            if l.category != want {
                return false;
            }
            if !rulegen_supported(l) {
                return false;
            }
            if let Some(p) = profile {
                if self.config.mode.uses_profile() {
                    if p.coverage(l.id) < self.config.coverage_threshold {
                        return false;
                    }
                    // An observed dependence makes a Type C loop Type D and
                    // rules out DOALL execution.
                    if want.needs_dependence_profile()
                        && p.loop_profile(l.id)
                            .is_some_and(|lp| lp.observed_dependence)
                    {
                        return false; // actually a Type D loop
                    }
                }
            }
            true
        };

        let mut selected: Vec<usize> = Vec::new();
        // Helper to test nesting conflicts against already-selected loops.
        let conflicts = |l: &LoopInfo, selected: &[usize]| -> bool {
            selected.iter().any(|&sid| {
                let s = &analysis.loops[sid];
                if s.function != l.function {
                    return false;
                }
                // Conflict when one contains the other.
                s.block_addrs.iter().all(|a| l.block_addrs.contains(a))
                    || l.block_addrs.iter().all(|a| s.block_addrs.contains(a))
            })
        };
        // Pass 1: outermost static DOALL loops.
        let mut by_depth: Vec<&LoopInfo> = analysis.loops.iter().collect();
        by_depth.sort_by_key(|l| (l.depth, l.id));
        for l in &by_depth {
            if eligible(l, LoopCategory::StaticDoall) && !conflicts(l, &selected) {
                selected.push(l.id);
            }
        }
        // Pass 2: dynamic DOALL loops (runtime checks / speculation).
        if allow_dynamic {
            for l in &by_depth {
                if eligible(l, LoopCategory::DynamicDoall) && !conflicts(l, &selected) {
                    selected.push(l.id);
                }
            }
        }
        // Pass 3: may-dependent loops under iteration-level speculation.
        if allow_dynamic && self.config.speculation {
            for l in &by_depth {
                if eligible(l, LoopCategory::Speculative) && !conflicts(l, &selected) {
                    selected.push(l.id);
                }
            }
        }
        selected.sort_unstable();
        selected
    }

    /// Generates the parallelisation rewrite schedule for the selected loops.
    #[must_use]
    pub fn generate_schedule(
        &self,
        binary: &JBinary,
        analysis: &BinaryAnalysis,
        selected: &[usize],
    ) -> RewriteSchedule {
        let mut schedule = RewriteSchedule::new(binary.producer());
        schedule.threads = self.config.threads;
        if self.config.mode == OptimisationMode::DynamoRioOnly {
            return schedule;
        }
        for &id in selected {
            let l = &analysis.loops[id];
            emit_loop_rules(&mut schedule, l);
        }
        schedule
    }

    /// Runs the full pipeline on a binary: analysis, optional profiling,
    /// schedule generation, then both native and DBM execution.
    ///
    /// The same `input` is used for training (when profiling is enabled) and
    /// for the measured runs; callers with distinct train/reference inputs
    /// run [`Janus::prepare`] on the training input and execute the
    /// artifacts' schedule themselves, as `janus-serve` does.
    ///
    /// # Errors
    ///
    /// Returns an error if any stage fails.
    pub fn run(&self, binary: &JBinary, input: &[i64]) -> Result<JanusReport, JanusError> {
        let artifacts = self.prepare(binary, input)?;

        // Native baseline.
        let process = Process::load(binary)?;
        let mut vm = Vm::new(process.clone());
        vm.set_input(input);
        let native = vm.run()?;
        let native_ints = vm.output_ints().to_vec();
        let native_floats = vm.output_floats().to_vec();

        // Parallel execution under the DBM.
        let config = self.dbm_config();
        let parallel = PreparedDbm::new(process, &artifacts.schedule, config).execute_traced(
            input,
            config,
            &self.config.trace,
        )?;

        // Bit-equality first: `|a - b| <= tol` is false for NaN vs NaN, so a
        // guest that prints NaN (0.0/0.0 is IEEE-legal in the JVA) would be
        // reported as diverging even when both legs produced the identical
        // bit pattern. Found by the differential fuzzer (seed 1093).
        let outputs_match = native_ints == parallel.output_ints
            && native_floats.len() == parallel.output_floats.len()
            && native_floats
                .iter()
                .zip(parallel.output_floats.iter())
                .all(|(a, b)| {
                    a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-9 * a.abs().max(1.0)
                });

        Ok(JanusReport {
            native,
            parallel,
            backend: self.config.backend,
            binary_digest: artifacts.binary_digest,
            selected_loops: artifacts.selected_loops,
            speculative_loops: artifacts.speculative_loops,
            schedule_size: artifacts.schedule_size,
            binary_size: artifacts.binary_size,
            outputs_match,
            profile: artifacts.profile,
        })
    }

    /// Runs the front half of the pipeline — analysis, optional profiling on
    /// `train_input`, loop selection and schedule generation — and returns
    /// the digest-keyed [`PipelineArtifacts`]. This is the expensive
    /// per-binary work a serving layer caches; pair it with
    /// [`PreparedDbm`] (via `janus-serve`) to execute many inputs against
    /// one preparation.
    ///
    /// # Errors
    ///
    /// Returns an error if analysis or profiling fails.
    pub fn prepare(
        &self,
        binary: &JBinary,
        train_input: &[i64],
    ) -> Result<PipelineArtifacts, JanusError> {
        let rec = &self.config.trace;
        let digest = binary.content_digest();
        let analysis = {
            let _span = rec.span("core.pipeline", "analysis").arg("digest", digest);
            self.analyze(binary)?
        };
        let profile = if self.config.mode.uses_profile() {
            let _span = rec.span("core.pipeline", "profile").arg("digest", digest);
            Some(self.profile(binary, &analysis, train_input)?)
        } else {
            None
        };
        let (selected_loops, schedule) = {
            let mut span = rec.span("core.pipeline", "schedule").arg("digest", digest);
            let selected_loops = self.select_loops(&analysis, profile.as_ref());
            span.push_arg("selected_loops", selected_loops.len());
            let schedule = self.generate_schedule(binary, &analysis, &selected_loops);
            (selected_loops, schedule)
        };
        let speculative_loops: Vec<usize> = selected_loops
            .iter()
            .copied()
            .filter(|&id| analysis.loops[id].category == LoopCategory::Speculative)
            .collect();
        Ok(PipelineArtifacts {
            binary_digest: digest,
            schedule_size: schedule.byte_size(),
            binary_size: binary.file_size(),
            analysis: Some(analysis),
            profile,
            selected_loops,
            speculative_loops,
            schedule,
        })
    }

    /// The [`DbmConfig`] a measured run under this configuration uses: the
    /// configured cost knobs with the pipeline-level choices (threads,
    /// backend, runtime checks, speculation) folded in. Exposed so serving
    /// layers derive per-job configurations exactly the way [`Janus::run`]
    /// does.
    #[must_use]
    pub fn dbm_config(&self) -> DbmConfig {
        DbmConfig {
            threads: self.config.threads,
            backend: self.config.backend,
            enable_runtime_checks: self.config.mode.uses_runtime_checks(),
            enable_speculation: self.config.speculation && self.config.dbm.enable_speculation,
            adaptive: self.config.adaptive || self.config.dbm.adaptive,
            ..self.config.dbm
        }
    }
}

/// Returns `true` if the rule generator can express this loop.
fn rulegen_supported(l: &LoopInfo) -> bool {
    let Some(iv) = &l.induction else { return false };
    let Some(bound) = &iv.bound else { return false };
    // Only register-resident induction variables are parallelised. Memory-
    // resident iterators only occur in unoptimised (-O0) binaries, which the
    // paper does not target; running them sequentially is always safe.
    if !matches!(iv.var, VarRef::Reg(_)) {
        return false;
    }
    // Reductions must also live in registers for the same reason.
    if l.reductions
        .iter()
        .any(|r| !matches!(r.var, VarRef::Reg(_)))
    {
        return false;
    }
    !matches!(bound.continue_cond, Cond::Eq | Cond::Below | Cond::AboveEq)
}

fn cond_code(c: Cond) -> i64 {
    match c {
        Cond::Eq => 0,
        Cond::Ne => 1,
        Cond::Lt => 2,
        Cond::Le => 3,
        Cond::Gt => 4,
        Cond::Ge => 5,
        Cond::Below => 6,
        Cond::AboveEq => 7,
    }
}

fn var_spec(v: &VarRef) -> Option<VarSpec> {
    match v {
        VarRef::Reg(r) => Some(VarSpec::Reg(r.raw())),
        VarRef::Stack(off) => Some(VarSpec::Stack(*off)),
        VarRef::Global(_) => None,
    }
}

fn side_spec(extent: &janus_analysis::depend::BaseExtent, step: i64) -> SideSpec {
    match extent.base {
        janus_analysis::AddressBase::Global(g) => SideSpec {
            reg: None,
            base_or_offset: g as i64 + extent.offset,
            stride: extent.scale * step,
        },
        janus_analysis::AddressBase::Reg(r) => SideSpec {
            reg: Some(r.raw()),
            base_or_offset: extent.offset,
            stride: extent.scale * step,
        },
    }
}

/// Emits the parallelisation rules for one selected loop (Figure 2(a) of the
/// paper shows the equivalent generation pass in the original system).
fn emit_loop_rules(schedule: &mut RewriteSchedule, l: &LoopInfo) {
    let iv = l.induction.as_ref().expect("selected loop has induction");
    let bound = iv.bound.as_ref().expect("selected loop has bound");
    let Some(ind_spec) = var_spec(&iv.var) else {
        return;
    };
    let id = l.id as i64;
    let (ind_kind, ind_value) = ind_spec.encode();

    // LOOP_INIT at the loop header.
    schedule.push(
        RewriteRule::new(l.header_addr, RuleId::LoopInit)
            .with_data(0, id)
            .with_data(1, ind_kind)
            .with_data(2, ind_value)
            .with_data(3, iv.step)
            .with_data(4, bound.cmp_addr as i64)
            .with_data(5, cond_code(bound.continue_cond)),
    );
    schedule.push(RewriteRule::new(l.header_addr, RuleId::ThreadSchedule).with_data(0, id));

    // LOOP_FINISH / THREAD_YIELD at every exit target.
    for &exit in &l.exit_target_addrs {
        schedule.push(RewriteRule::new(exit, RuleId::LoopFinish).with_data(0, id));
        schedule.push(RewriteRule::new(exit, RuleId::ThreadYield).with_data(0, id));
    }

    // LOOP_UPDATE_BOUND at the controlling comparison.
    schedule.push(RewriteRule::new(bound.cmp_addr, RuleId::LoopUpdateBound).with_data(0, id));

    // May-dependent loops carry a SPECULATE rule: the runtime drives the
    // iteration-level speculation engine instead of chunked execution.
    if l.category == LoopCategory::Speculative {
        schedule.push(RewriteRule::new(l.header_addr, RuleId::Speculate).with_data(0, id));
    }

    // Reductions are privatised per thread and recombined at LOOP_FINISH.
    for r in &l.reductions {
        if let Some(spec) = var_spec(&r.var) {
            let (k, v) = spec.encode();
            let op = match r.op {
                janus_analysis::depend::ReductionOp::Add => 0,
                janus_analysis::depend::ReductionOp::Sub => 1,
            };
            schedule.push(
                RewriteRule::new(l.header_addr, RuleId::MemPrivatise)
                    .with_data(0, id)
                    .with_data(1, k)
                    .with_data(2, v)
                    .with_data(3, op)
                    .with_data(4, i64::from(r.is_float)),
            );
        }
    }

    // Runtime array-bounds checks, inserted at the loop entry (the
    // least-executed point where all inputs are available).
    for pair in &l.bounds_checks {
        let a = side_spec(&pair.write, iv.step);
        let b = side_spec(&pair.other, iv.step);
        let (a1, a2) = a.encode();
        let (b1, b2) = b.encode();
        schedule.push(
            RewriteRule::new(l.header_addr, RuleId::MemBoundsCheck)
                .with_data(0, id)
                .with_data(1, a1)
                .with_data(2, a2)
                .with_data(3, b1)
                .with_data(4, b2),
        );
    }

    // Read-only stack accesses are redirected to the main stack.
    for a in &l.accesses {
        if let janus_analysis::AccessPattern::StackSlot { offset } = a.pattern {
            if !a.is_write && l.read_only_stack_slots.contains(&offset) {
                schedule.push(
                    RewriteRule::new(a.addr, RuleId::MemMainStack)
                        .with_data(0, id)
                        .with_data(1, offset),
                );
            }
        }
    }

    // Dynamically discovered code (shared-library calls) runs speculatively.
    for &call in &l.external_call_addrs {
        schedule.push(RewriteRule::new(call, RuleId::TxStart).with_data(0, id));
        schedule.push(
            RewriteRule::new(call + janus_ir::INST_SIZE as u64, RuleId::TxFinish).with_data(0, id),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_compile::{ast, CompileOptions, Compiler};

    fn doall_program(n: i64) -> ast::Program {
        ast::Program::builder("doall")
            .global_f64("a", n as usize)
            .global_f64("b", n as usize)
            .function(
                ast::Function::new("main")
                    .local("i", ast::Ty::I64)
                    .local("s", ast::Ty::F64)
                    .body(vec![
                        ast::Stmt::simple_for(
                            "i",
                            ast::Expr::const_i(0),
                            ast::Expr::const_i(n),
                            vec![ast::Stmt::assign(
                                ast::LValue::store("b", ast::Expr::var("i")),
                                ast::Expr::add(
                                    ast::Expr::mul(
                                        ast::Expr::load("a", ast::Expr::var("i")),
                                        ast::Expr::const_f(2.0),
                                    ),
                                    ast::Expr::const_f(1.0),
                                ),
                            )],
                        ),
                        ast::Stmt::assign(ast::LValue::var("s"), ast::Expr::const_f(0.0)),
                        ast::Stmt::simple_for(
                            "i",
                            ast::Expr::const_i(0),
                            ast::Expr::const_i(n),
                            vec![ast::Stmt::assign(
                                ast::LValue::var("s"),
                                ast::Expr::add(
                                    ast::Expr::var("s"),
                                    ast::Expr::load("b", ast::Expr::var("i")),
                                ),
                            )],
                        ),
                        ast::Stmt::print(ast::Expr::var("s")),
                    ]),
            )
            .build()
    }

    #[test]
    fn full_pipeline_parallelises_and_preserves_output() {
        let bin = Compiler::with_options(CompileOptions::gcc_o2())
            .compile(&doall_program(4096))
            .unwrap();
        let janus = Janus::with_config(JanusConfig {
            threads: 8,
            ..JanusConfig::default()
        });
        let report = janus.run(&bin, &[]).unwrap();
        assert!(report.outputs_match, "parallel output must equal native");
        assert!(!report.selected_loops.is_empty());
        assert!(
            report.speedup() > 2.0,
            "expected a clear speedup, got {:.2}",
            report.speedup()
        );
        assert!(report.schedule_size > 0);
        assert!(report.schedule_size_fraction() < 0.5);
        assert!(report.parallel.stats.parallel_invocations >= 1);
    }

    #[test]
    fn prepare_matches_the_full_run_and_is_digest_keyed() {
        let bin = Compiler::with_options(CompileOptions::gcc_o2())
            .compile(&doall_program(1024))
            .unwrap();
        let janus = Janus::new();
        let artifacts = janus.prepare(&bin, &[]).unwrap();
        let report = janus.run(&bin, &[]).unwrap();
        assert_eq!(artifacts.binary_digest, bin.content_digest());
        assert_eq!(artifacts.binary_digest, report.binary_digest);
        assert_eq!(artifacts.selected_loops, report.selected_loops);
        assert_eq!(artifacts.speculative_loops, report.speculative_loops);
        assert_eq!(artifacts.schedule_size, report.schedule_size);
        assert_eq!(artifacts.schedule_size, artifacts.schedule.byte_size());
        assert!(!artifacts.schedule.is_empty());
        // Preparing twice is deterministic: same digest, same schedule bytes.
        let again = janus.prepare(&bin, &[]).unwrap();
        assert_eq!(
            again.schedule.content_digest(),
            artifacts.schedule.content_digest()
        );
    }

    #[test]
    fn pipeline_artifacts_round_trip_through_bytes() {
        let bin = Compiler::with_options(CompileOptions::gcc_o2())
            .compile(&doall_program(1024))
            .unwrap();
        let janus = Janus::new();
        let artifacts = janus.prepare(&bin, &[]).unwrap();
        let bytes = artifacts.to_bytes();
        let back = PipelineArtifacts::from_bytes(&bytes).unwrap();
        assert_eq!(back.binary_digest, artifacts.binary_digest);
        assert_eq!(back.selected_loops, artifacts.selected_loops);
        assert_eq!(back.speculative_loops, artifacts.speculative_loops);
        assert_eq!(back.schedule_size, artifacts.schedule_size);
        assert_eq!(back.binary_size, artifacts.binary_size);
        assert_eq!(
            back.schedule.content_digest(),
            artifacts.schedule.content_digest()
        );
        assert_eq!(back.schedule, artifacts.schedule);
        assert!(back.analysis.is_none(), "analysis is not persisted");
        assert!(back.profile.is_none(), "profile is not persisted");

        // Damage is detected, and stale versions are told apart from rot.
        let mut torn = bytes.clone();
        torn.truncate(torn.len() - 3);
        assert!(matches!(
            PipelineArtifacts::from_bytes(&torn),
            Err(ArtifactDecodeError::Malformed { .. })
        ));
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        assert!(matches!(
            PipelineArtifacts::from_bytes(&flipped),
            Err(ArtifactDecodeError::Malformed { .. })
                | Err(ArtifactDecodeError::DigestMismatch { .. })
        ));
        let mut stale = bytes;
        stale[4..8].copy_from_slice(&(PIPELINE_ARTIFACTS_FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            PipelineArtifacts::from_bytes(&stale),
            Err(ArtifactDecodeError::VersionMismatch {
                kind: "artifact",
                ..
            })
        ));
    }

    #[test]
    fn dynamorio_only_mode_adds_overhead_but_no_parallelism() {
        let bin = Compiler::with_options(CompileOptions::gcc_o2())
            .compile(&doall_program(512))
            .unwrap();
        let janus = Janus::with_config(JanusConfig {
            mode: OptimisationMode::DynamoRioOnly,
            ..JanusConfig::default()
        });
        let report = janus.run(&bin, &[]).unwrap();
        assert!(report.outputs_match);
        assert!(
            report.selected_loops.is_empty() || report.parallel.stats.parallel_invocations == 0
        );
        assert!(
            report.speedup() <= 1.0,
            "pure DBM execution cannot be faster than native, got {:.3}",
            report.speedup()
        );
    }

    #[test]
    fn statically_driven_mode_skips_loops_needing_checks() {
        // A pointer-based kernel needs bounds checks, so only the Full mode
        // parallelises it.
        let p = ast::Program::builder("ptr")
            .global_f64("x", 2048)
            .global_f64("y", 2048)
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
                            ast::Expr::mul(
                                ast::Expr::load_ptr("s", ast::Expr::var("i")),
                                ast::Expr::const_f(0.5),
                            ),
                        )],
                    )]),
            )
            .function(ast::Function::new("main").body(vec![
                ast::Stmt::Call {
                    name: "kernel".into(),
                    args: vec![
                        ast::Expr::addr_of("y"),
                        ast::Expr::addr_of("x"),
                        ast::Expr::const_i(2048),
                    ],
                    ret: None,
                },
                ast::Stmt::print(ast::Expr::load("y", ast::Expr::const_i(33))),
            ]))
            .build();
        let bin = Compiler::with_options(CompileOptions::gcc_o2())
            .compile(&p)
            .unwrap();

        let static_only = Janus::with_config(JanusConfig {
            mode: OptimisationMode::StaticallyDriven,
            ..JanusConfig::default()
        })
        .run(&bin, &[])
        .unwrap();
        let full = Janus::new().run(&bin, &[]).unwrap();
        assert!(static_only.outputs_match && full.outputs_match);
        assert_eq!(static_only.parallel.stats.parallel_invocations, 0);
        assert!(full.parallel.stats.parallel_invocations >= 1);
        assert!(full.parallel.stats.bounds_checks_executed >= 1);
        assert!(full.speedup() > static_only.speedup());
    }

    #[test]
    fn profile_guidance_filters_low_coverage_loops() {
        // One hot loop and one tiny loop: with profiling only the hot loop is
        // selected.
        let p = ast::Program::builder("hotcold")
            .global_f64("a", 4096)
            .global_f64("b", 4096)
            .global_f64("c", 8)
            .function(
                ast::Function::new("main")
                    .local("i", ast::Ty::I64)
                    .body(vec![
                        ast::Stmt::simple_for(
                            "i",
                            ast::Expr::const_i(0),
                            ast::Expr::const_i(8),
                            vec![ast::Stmt::assign(
                                ast::LValue::store("c", ast::Expr::var("i")),
                                ast::Expr::const_f(2.0),
                            )],
                        ),
                        ast::Stmt::simple_for(
                            "i",
                            ast::Expr::const_i(0),
                            ast::Expr::const_i(4096),
                            vec![ast::Stmt::assign(
                                ast::LValue::store("b", ast::Expr::var("i")),
                                ast::Expr::mul(
                                    ast::Expr::load("a", ast::Expr::var("i")),
                                    ast::Expr::const_f(3.0),
                                ),
                            )],
                        ),
                        ast::Stmt::print(ast::Expr::load("b", ast::Expr::const_i(5))),
                    ]),
            )
            .build();
        let bin = Compiler::with_options(CompileOptions::gcc_o2())
            .compile(&p)
            .unwrap();
        let with_profile = Janus::with_config(JanusConfig {
            mode: OptimisationMode::StaticallyDrivenProfile,
            ..JanusConfig::default()
        })
        .run(&bin, &[])
        .unwrap();
        let without_profile = Janus::with_config(JanusConfig {
            mode: OptimisationMode::StaticallyDriven,
            ..JanusConfig::default()
        })
        .run(&bin, &[])
        .unwrap();
        assert!(with_profile.selected_loops.len() < without_profile.selected_loops.len());
        assert!(with_profile.outputs_match);
        assert!(
            with_profile.speedup() >= without_profile.speedup() * 0.95,
            "profile guidance should not hurt: {:.2} vs {:.2}",
            with_profile.speedup(),
            without_profile.speedup()
        );
    }

    /// `kernel(x + offset, x, 100)` with `kernel(d, s, n)` computing
    /// `d[i] = s[i] + 1.0`: a Type C loop whose pointers alias on the
    /// training input when `offset` is one element.
    fn alias_program(offset: i64) -> JBinary {
        let p = ast::Program::builder("alias")
            .global_f64("x", 256)
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
            .function(ast::Function::new("main").body(vec![
                ast::Stmt::Call {
                    name: "kernel".into(),
                    args: vec![
                        ast::Expr::add(ast::Expr::addr_of("x"), ast::Expr::const_i(offset)),
                        ast::Expr::addr_of("x"),
                        ast::Expr::const_i(100),
                    ],
                    ret: None,
                },
                ast::Stmt::print(ast::Expr::load("x", ast::Expr::const_i(100))),
            ]))
            .build();
        Compiler::with_options(CompileOptions::gcc_o2())
            .compile(&p)
            .unwrap()
    }

    #[test]
    fn an_observed_dependence_vetoes_a_type_c_loop() {
        let janus = Janus::new();
        for (offset, vetoed) in [(8, true), (1024, false)] {
            let bin = alias_program(offset);
            let analysis = janus.analyze(&bin).unwrap();
            let kernel = analysis
                .loops
                .iter()
                .find(|l| !l.bounds_checks.is_empty())
                .expect("pointer loop found");
            assert_eq!(kernel.category, LoopCategory::DynamicDoall);
            assert_eq!(janus.select_loops(&analysis, None), [kernel.id]);
            let prepared = janus.prepare(&bin, &[]).unwrap();
            let expected: &[usize] = if vetoed { &[] } else { &[kernel.id] };
            assert_eq!(prepared.selected_loops, expected, "offset {offset}");
            assert!(
                janus.run(&bin, &[]).unwrap().outputs_match,
                "offset {offset}"
            );
        }
    }

    fn scatter_program(n: i64, bins: i64) -> ast::Program {
        // hist[idx[i]] += w[i]: a may-dependent scatter the seed pipeline
        // serialises; `idx` is filled with mostly-distinct bin indices.
        ast::Program::builder("scatter")
            .global(ast::GlobalArray {
                name: "idx".into(),
                ty: ast::Ty::I64,
                len: n as usize,
                init: ast::Init::Pattern {
                    mul: 7,
                    add: 3,
                    modulus: bins,
                },
            })
            .global_f64("w", n as usize)
            .global_f64("hist", bins as usize)
            .function(
                ast::Function::new("main")
                    .local("i", ast::Ty::I64)
                    .local("s", ast::Ty::F64)
                    .body(vec![
                        ast::Stmt::simple_for(
                            "i",
                            ast::Expr::const_i(0),
                            ast::Expr::const_i(n),
                            vec![ast::Stmt::assign(
                                ast::LValue::store(
                                    "hist",
                                    ast::Expr::load("idx", ast::Expr::var("i")),
                                ),
                                ast::Expr::add(
                                    ast::Expr::load(
                                        "hist",
                                        ast::Expr::load("idx", ast::Expr::var("i")),
                                    ),
                                    ast::Expr::load("w", ast::Expr::var("i")),
                                ),
                            )],
                        ),
                        ast::Stmt::assign(ast::LValue::var("s"), ast::Expr::const_f(0.0)),
                        ast::Stmt::simple_for(
                            "i",
                            ast::Expr::const_i(0),
                            ast::Expr::const_i(bins),
                            vec![ast::Stmt::assign(
                                ast::LValue::var("s"),
                                ast::Expr::add(
                                    ast::Expr::var("s"),
                                    ast::Expr::load("hist", ast::Expr::var("i")),
                                ),
                            )],
                        ),
                        ast::Stmt::print(ast::Expr::var("s")),
                    ]),
            )
            .build()
    }

    #[test]
    fn may_dependent_scatter_is_speculated_and_matches_native() {
        let bin = Compiler::with_options(CompileOptions::gcc_o2())
            .compile(&scatter_program(4096, 2048))
            .unwrap();
        let with_spec = Janus::new().run(&bin, &[]).unwrap();
        assert!(
            !with_spec.speculative_loops.is_empty(),
            "the scatter loop must be selected for speculation: {:?}",
            with_spec.selected_loops
        );
        assert!(with_spec.outputs_match, "speculation must preserve output");
        assert!(
            with_spec.parallel.stats.spec_invocations >= 1,
            "{:?}",
            with_spec.parallel.stats
        );
        assert!(with_spec.parallel.stats.spec_iterations >= 4096);
        assert!(
            with_spec.speedup() > 1.0,
            "a mostly-independent scatter should speed up, got {:.2}",
            with_spec.speedup()
        );

        // The knob turns the engine off and the loop falls back to serial.
        let without = Janus::with_config(JanusConfig {
            speculation: false,
            ..JanusConfig::default()
        })
        .run(&bin, &[])
        .unwrap();
        assert!(without.outputs_match);
        assert!(without.speculative_loops.is_empty());
        assert_eq!(without.parallel.stats.spec_invocations, 0);
        assert!(
            with_spec.speedup() > without.speedup(),
            "speculation should beat the serial fallback: {:.2} vs {:.2}",
            with_spec.speedup(),
            without.speedup()
        );
    }

    #[test]
    fn thread_scaling_improves_speedup() {
        let bin = Compiler::with_options(CompileOptions::gcc_o2())
            .compile(&doall_program(8192))
            .unwrap();
        let mut last = 0.0;
        for threads in [1u32, 2, 4, 8] {
            let report = Janus::with_config(JanusConfig {
                threads,
                ..JanusConfig::default()
            })
            .run(&bin, &[])
            .unwrap();
            assert!(report.outputs_match);
            let s = report.speedup();
            assert!(
                s + 0.05 >= last,
                "speedup should not degrade with more threads ({threads}): {s:.2} vs {last:.2}"
            );
            last = s;
        }
        assert!(
            last > 3.0,
            "8 threads should give a solid speedup, got {last:.2}"
        );
    }
}
