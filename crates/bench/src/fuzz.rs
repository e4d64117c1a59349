//! # The differential guest-program fuzzer
//!
//! Runs every program that [`janus_workloads::gen`] generates through the
//! whole configuration matrix the repo's equivalence batteries promise
//! anything about — backend × thread count ∈ {1, 2, 4, 8} × adaptive
//! on/off — and asserts exactly the contracts the hand-written tests pin on
//! the named suite:
//!
//! * **Always** (every cell): the parallel run reproduces the native
//!   baseline (`outputs_match` — exact integers, tolerance floats) and its
//!   exit code.
//! * **Tuner off**: virtual-time and native-threads are bit-identical —
//!   final memory digest, both output streams, modelled cycle total and
//!   breakdown, speculation counters, exit code — at every thread count.
//! * **Adaptive on**: guest results still match the baseline on both
//!   backends (modelled numbers may legitimately move).
//!
//! A violated contract is shrunk to a locally-minimal counterexample with
//! [`ProgramSpec::shrink`] (re-running the full matrix on every candidate)
//! and reported with the seed, the violated check and the minimal spec.
//! The promotion rule: any minimal counterexample becomes a named workload
//! in `janus_workloads::suite` and a named regression test, so the fuzzer
//! only ever finds each bug once.

use janus_compile::Compiler;
use janus_core::{BackendKind, DbmConfig, Janus, JanusConfig, JanusReport};
use janus_ir::JBinary;
use janus_workloads::ProgramSpec;
use std::fmt;

/// The thread counts every generated program is exercised at.
pub const FUZZ_THREADS: [u32; 4] = [1, 2, 4, 8];

/// One contract violation, after shrinking.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Seed of the originally-failing generated program.
    pub seed: u64,
    /// The first violated check on the *minimal* spec.
    pub check: String,
    /// Human-readable minimal counterexample.
    pub minimal: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {}: {}\n  minimal counterexample: {}",
            self.seed, self.check, self.minimal
        )
    }
}

/// The result of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Programs generated and checked.
    pub cases: usize,
    /// First seed of the campaign (seeds are consecutive from here).
    pub start_seed: u64,
    /// Total pipeline runs executed (compiles excluded).
    pub runs: usize,
    /// Contract violations, each shrunk to a minimal counterexample.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} generated programs (seeds {}..{}), {} pipeline runs across \
             backend x threads {:?} x adaptive: {} divergence(s)",
            self.cases,
            self.start_seed,
            self.start_seed + self.cases as u64,
            self.runs,
            FUZZ_THREADS,
            self.failures.len(),
        )
    }
}

fn run_config(
    binary: &JBinary,
    backend: BackendKind,
    threads: u32,
    adaptive: bool,
) -> Result<JanusReport, String> {
    Janus::with_config(JanusConfig {
        threads,
        backend,
        dbm: DbmConfig {
            adaptive,
            ..DbmConfig::default()
        },
        ..JanusConfig::default()
    })
    .run(binary, &[])
    .map_err(|e| format!("pipeline failed ({backend}, {threads}t, adaptive={adaptive}): {e}"))
}

/// Asserts one bit-identity between two reports; formats a counterexample
/// message on mismatch.
macro_rules! must_eq {
    ($ctx:expr, $what:expr, $a:expr, $b:expr) => {
        if $a != $b {
            return Err(format!("{}: {} differ: {:?} vs {:?}", $ctx, $what, $a, $b));
        }
    };
}

/// Runs the full differential matrix over one generated spec. `Ok(runs)`
/// carries the number of pipeline runs; `Err` describes the first violated
/// contract.
pub fn check_spec(spec: &ProgramSpec) -> Result<usize, String> {
    let program = spec.lower();
    let binary = Compiler::new()
        .compile(&program)
        .map_err(|e| format!("generated program failed to compile: {e}"))?;
    let mut runs = 0usize;

    for threads in FUZZ_THREADS {
        // --- Tuner off: the bit-identity anchor. ---
        let det_v = run_config(&binary, BackendKind::VirtualTime, threads, false)?;
        let det_n = run_config(&binary, BackendKind::NativeThreads, threads, false)?;
        runs += 2;
        let ctx = format!("{threads}t tuner off");
        if !det_v.outputs_match {
            return Err(format!(
                "{ctx}: virtual-time output diverged from native baseline"
            ));
        }
        if !det_n.outputs_match {
            return Err(format!(
                "{ctx}: native-threads output diverged from native baseline"
            ));
        }
        must_eq!(
            ctx,
            "final memory digests",
            det_v.parallel.memory_digest,
            det_n.parallel.memory_digest
        );
        must_eq!(
            ctx,
            "integer output streams",
            det_v.parallel.output_ints,
            det_n.parallel.output_ints
        );
        must_eq!(
            ctx,
            "float output streams",
            det_v.parallel.output_floats,
            det_n.parallel.output_floats
        );
        must_eq!(
            ctx,
            "modelled cycle totals",
            det_v.parallel.cycles,
            det_n.parallel.cycles
        );
        must_eq!(
            ctx,
            "modelled cycle breakdowns",
            det_v.parallel.stats.breakdown,
            det_n.parallel.stats.breakdown
        );
        must_eq!(
            ctx,
            "exit codes",
            det_v.parallel.exit_code,
            det_n.parallel.exit_code
        );
        let (vs, ns) = (&det_v.parallel.stats, &det_n.parallel.stats);
        must_eq!(
            ctx,
            "speculation statistics",
            (
                vs.spec_invocations,
                vs.spec_iterations,
                vs.spec_executions,
                vs.spec_aborts,
                vs.spec_validations,
                vs.spec_fallbacks
            ),
            (
                ns.spec_invocations,
                ns.spec_iterations,
                ns.spec_executions,
                ns.spec_aborts,
                ns.spec_validations,
                ns.spec_fallbacks
            )
        );

        // --- Adaptive on: wall-time policy, so guest results only. ---
        let adp_v = run_config(&binary, BackendKind::VirtualTime, threads, true)?;
        let adp_n = run_config(&binary, BackendKind::NativeThreads, threads, true)?;
        runs += 2;
        let ctx = format!("{threads}t adaptive");
        if !adp_v.outputs_match {
            return Err(format!(
                "{ctx}: virtual-time output diverged under adaptation"
            ));
        }
        if !adp_n.outputs_match {
            return Err(format!(
                "{ctx}: native-threads output diverged under adaptation"
            ));
        }
        must_eq!(
            ctx,
            "virtual exit codes",
            adp_v.parallel.exit_code,
            adp_v.native.exit_code
        );
        must_eq!(
            ctx,
            "native exit codes",
            adp_n.parallel.exit_code,
            adp_n.native.exit_code
        );
    }
    Ok(runs)
}

/// Runs `cases` consecutive seeds starting at `start_seed` through
/// [`check_spec`], shrinking every failure to a minimal counterexample.
#[must_use]
pub fn run_differential_fuzz(cases: usize, start_seed: u64) -> FuzzReport {
    let mut report = FuzzReport {
        cases,
        start_seed,
        runs: 0,
        failures: Vec::new(),
    };
    for i in 0..cases {
        let seed = start_seed + i as u64;
        let spec = ProgramSpec::generate(seed);
        match check_spec(&spec) {
            Ok(runs) => report.runs += runs,
            Err(first) => {
                // Shrink while the failure (any failure — a shifted check is
                // still the same campaign) reproduces.
                let minimal = spec.shrink(|s| check_spec(s).is_err());
                let check = check_spec(&minimal).err().unwrap_or(first);
                report.failures.push(FuzzFailure {
                    seed,
                    check,
                    minimal: minimal.to_string(),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_seed_passes_the_whole_matrix() {
        let spec = ProgramSpec::generate(7);
        let runs = check_spec(&spec).expect("seed must pass the matrix");
        // 2 configurations x 2 backends at each of the 4 thread counts.
        assert_eq!(runs, 16);
    }
}
