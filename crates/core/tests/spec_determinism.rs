//! Determinism stress for the speculative runtime under the native backend.
//!
//! The backend runs the deterministic speculation engine on the calling
//! thread, so re-running the same workload many times must produce
//! bit-identical memory digests, outputs, modelled cycles and table-3
//! speculation statistics — and must report that no worker thread ran.
//!
//! `spec.doacross-window` is the stress pick: its sliding-window
//! read-after-write chain has the highest abort rate of the suite, so it
//! exercises estimates, dependency wakeups and re-execution on every run.

use janus_compile::{CompileOptions, Compiler};
use janus_core::{BackendKind, DbmConfig, Janus, JanusConfig, JanusReport};
use janus_ir::JBinary;
use janus_workloads::workload;

fn compile_once() -> JBinary {
    let w = workload("spec.doacross-window").expect("known workload");
    Compiler::with_options(CompileOptions::gcc_o3())
        .compile(&w.train_program)
        .expect("workload compiles")
}

fn run_native(binary: &JBinary, threads: u32) -> JanusReport {
    // Bit-identical repeats are a static-policy contract: the adaptive
    // tuner folds measured wall time into its decisions, which is
    // legitimately run-dependent. Pin it off even under JANUS_ADAPTIVE=1.
    Janus::with_config(JanusConfig {
        threads,
        backend: BackendKind::NativeThreads,
        dbm: DbmConfig {
            adaptive: false,
            ..DbmConfig::default()
        },
        ..JanusConfig::default()
    })
    .run(binary, &[])
    .expect("pipeline succeeds")
}

/// Everything the run reports that must not depend on how the OS scheduled
/// the run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    memory_digest: u64,
    output_ints: Vec<i64>,
    output_floats: Vec<f64>,
    cycles: u64,
    exit_code: i64,
    // The table-3 surface: invocations, iterations, executions, aborts,
    // validations, fallbacks — plus the derived retry/abort-rate inputs.
    spec: (u64, u64, u64, u64, u64, u64),
    os_threads_used: u64,
}

fn fingerprint(report: &JanusReport) -> Fingerprint {
    let s = &report.parallel.stats;
    Fingerprint {
        memory_digest: report.parallel.memory_digest,
        output_ints: report.parallel.output_ints.clone(),
        output_floats: report.parallel.output_floats.clone(),
        cycles: report.parallel.cycles,
        exit_code: report.parallel.exit_code,
        spec: (
            s.spec_invocations,
            s.spec_iterations,
            s.spec_executions,
            s.spec_aborts,
            s.spec_validations,
            s.spec_fallbacks,
        ),
        os_threads_used: s.os_threads_used,
    }
}

#[test]
fn twenty_native_runs_are_bit_identical() {
    let binary = compile_once();
    let first = run_native(&binary, 4);
    assert!(first.outputs_match, "doacross-window must reproduce output");
    assert!(
        first.parallel.stats.spec_invocations > 0,
        "the workload must actually speculate"
    );
    assert!(
        first.parallel.stats.spec_aborts > 0,
        "doacross-window must conflict (that is the point of the stress)"
    );
    assert_eq!(
        first.os_threads_used(),
        0,
        "speculation runs no worker thread (and this workload no DOALL loop)"
    );
    let reference = fingerprint(&first);
    for attempt in 1..20 {
        let report = run_native(&binary, 4);
        assert_eq!(
            fingerprint(&report),
            reference,
            "run {attempt}: native speculative run drifted from run 0"
        );
    }
}
