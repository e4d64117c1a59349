//! Adaptive-execution equivalence: with the per-loop tuner on, every
//! workload must still produce correct guest results on both execution
//! backends.
//!
//! Adaptation is wall-time policy — it may re-route an invocation down the
//! sequential path or retarget its chunk count, which legitimately changes
//! modelled cycle totals and the exact floating-point summation order of
//! reductions. Correctness is therefore asserted the way the pipeline
//! itself defines it: program outputs match the native baseline exactly
//! for integers and at tolerance for floats (`outputs_match`), on every
//! backend.

use janus_compile::{CompileOptions, Compiler};
use janus_core::{BackendKind, DbmConfig, Janus, JanusConfig, JanusReport};
use janus_ir::JBinary;
use janus_workloads::{parallel_benchmarks, speculative_benchmarks, workload};

fn train_binary(name: &str) -> JBinary {
    let w = workload(name).expect("known workload");
    Compiler::with_options(CompileOptions::gcc_o3())
        .compile(&w.train_program)
        .expect("workload compiles")
}

fn run_adaptive(binary: &JBinary, backend: BackendKind, threads: u32) -> JanusReport {
    Janus::with_config(JanusConfig {
        threads,
        backend,
        adaptive: true,
        ..JanusConfig::default()
    })
    .run(binary, &[])
    .expect("pipeline succeeds")
}

#[test]
fn adaptive_execution_preserves_results_on_every_workload() {
    let names: Vec<&str> = parallel_benchmarks()
        .into_iter()
        .chain(speculative_benchmarks())
        .collect();
    for name in names {
        let binary = train_binary(name);
        for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
            let report = run_adaptive(&binary, backend, 4);
            assert!(
                report.outputs_match,
                "{name}@{backend}: adaptive run diverged from the native baseline"
            );
            assert_eq!(
                report.native.exit_code, report.parallel.exit_code,
                "{name}@{backend}: exit codes differ under adaptation"
            );
            // Chunked (non-speculative) parallel candidates go through the
            // tuner, so whenever any ran, decisions must have been recorded.
            let stats = &report.parallel.stats;
            let chunked = stats
                .parallel_invocations
                .saturating_sub(stats.spec_invocations);
            if chunked > 0 {
                assert!(
                    report.parallel.stats.tune_parallel_decisions
                        + report.parallel.stats.tune_sequential_decisions
                        > 0,
                    "{name}@{backend}: chunked invocations ran but no tuner decision was taken"
                );
            }
        }
    }
}

#[test]
fn virtual_time_adaptation_never_chooses_sequential() {
    // Under virtual time batch wall time is 0, so the parallel arm always
    // estimates 0 ns/iter: adaptation must keep every tuned invocation
    // parallel and the backend's determinism is preserved in effect.
    for name in ["470.lbm", "433.milc"] {
        let binary = train_binary(name);
        let report = run_adaptive(&binary, BackendKind::VirtualTime, 4);
        assert!(report.outputs_match, "{name}");
        assert_eq!(
            report.parallel.stats.tune_sequential_decisions, 0,
            "{name}: virtual time must never measure parallelism as a loss"
        );
    }
}

#[test]
fn adaptation_off_keeps_tuning_counters_at_zero() {
    let binary = train_binary("470.lbm");
    // Pin the DBM-level flag too: `DbmConfig::default()` honours
    // JANUS_ADAPTIVE, and this test must hold on the adaptive CI leg.
    let report = Janus::with_config(JanusConfig {
        threads: 4,
        backend: BackendKind::NativeThreads,
        dbm: DbmConfig {
            adaptive: false,
            ..DbmConfig::default()
        },
        ..JanusConfig::default()
    })
    .run(&binary, &[])
    .expect("pipeline succeeds");
    assert!(report.outputs_match);
    assert_eq!(report.parallel.stats.tune_parallel_decisions, 0);
    assert_eq!(report.parallel.stats.tune_sequential_decisions, 0);
}

#[test]
fn native_adaptive_runs_report_page_merge_savings() {
    // The page-aware merge skips mapped pages no chunk dirtied; lbm's
    // image is large while each loop touches a bounded working set, so the
    // skip counter must move under the native backend.
    let binary = train_binary("470.lbm");
    let report = run_adaptive(&binary, BackendKind::NativeThreads, 4);
    assert!(report.outputs_match);
    if report.parallel.stats.parallel_invocations > report.parallel.stats.spec_invocations {
        assert!(
            report.parallel.stats.merge_pages_skipped + report.parallel.stats.merge_pages_merged
                > 0,
            "chunked parallel work ran but the merge visited no pages at all"
        );
    }
}
