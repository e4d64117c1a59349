//! Equivalence of the two speculative commit modes under the native-threads
//! backend: `Deterministic` (the deterministic coordinator alone; reports
//! modelled figures) and `RacedImage` (the racing Block-STM pool alone;
//! commits its converged image). This is where the two engines are held to
//! each other — no release invocation runs both.
//!
//! Guest results must be identical: same final memory digest, same output
//! streams, same exit code, for every may-dependent workload. Only the
//! modelled numbers are allowed to differ (`RacedImage` charges no modelled
//! parallel cycles and its abort counters describe the actual race).

use janus_compile::{CompileOptions, Compiler};
use janus_core::{BackendKind, Janus, JanusConfig, JanusReport, SpecCommitMode};
use janus_dbm::DbmConfig;
use janus_workloads::{speculative_benchmarks, workload};

fn run(name: &str, commit: SpecCommitMode) -> JanusReport {
    let w = workload(name).expect("known workload");
    let binary = Compiler::with_options(CompileOptions::gcc_o3())
        .compile(&w.train_program)
        .expect("workload compiles");
    Janus::with_config(JanusConfig {
        threads: 4,
        backend: BackendKind::NativeThreads,
        dbm: DbmConfig {
            spec_commit: commit,
            // The cycles comparison between commit modes assumes the static
            // chunking policy; keep the tuner out even under JANUS_ADAPTIVE.
            adaptive: false,
            ..DbmConfig::default()
        },
        ..JanusConfig::default()
    })
    .run(&binary, &[])
    .expect("pipeline succeeds")
}

#[test]
fn raced_image_commit_matches_the_deterministic_replay() {
    for name in speculative_benchmarks() {
        let deterministic = run(name, SpecCommitMode::Deterministic);
        let raced = run(name, SpecCommitMode::RacedImage);

        // Both modes drove a speculation engine, each its own…
        assert!(
            deterministic.parallel.stats.spec_invocations >= 1,
            "{name}: nothing speculated deterministically"
        );
        assert!(
            raced.parallel.stats.spec_invocations >= 1,
            "{name}: nothing speculated in raced-image mode"
        );
        assert!(
            raced.os_threads_used() > 1,
            "{name}: the raced mode must run the OS-thread pool"
        );
        // …and landed the identical serial-equivalent guest state.
        assert_eq!(
            deterministic.parallel.memory_digest, raced.parallel.memory_digest,
            "{name}: commit modes disagree on the final memory image"
        );
        assert_eq!(
            deterministic.parallel.output_ints, raced.parallel.output_ints,
            "{name}: integer outputs differ between commit modes"
        );
        assert_eq!(
            deterministic.parallel.output_floats, raced.parallel.output_floats,
            "{name}: float outputs differ between commit modes"
        );
        assert_eq!(
            deterministic.parallel.exit_code, raced.parallel.exit_code,
            "{name}: exit codes differ between commit modes"
        );
        assert!(raced.outputs_match, "{name}: raced-image output diverged");

        // Raced-image invocations charge no modelled parallel cycles, so the
        // mode must not *increase* modelled time.
        assert!(
            raced.parallel.cycles <= deterministic.parallel.cycles,
            "{name}: raced-image mode reported more modelled cycles \
             ({} > {})",
            raced.parallel.cycles,
            deterministic.parallel.cycles
        );
    }
}

#[test]
fn virtual_time_backend_ignores_the_commit_mode() {
    // The knob only affects the native-threads backend; under virtual time
    // both modes are the same deterministic engine, bit for bit.
    let name = "spec.histogram";
    let w = workload(name).expect("known workload");
    let binary = Compiler::with_options(CompileOptions::gcc_o3())
        .compile(&w.train_program)
        .expect("workload compiles");
    let run = |commit: SpecCommitMode| {
        Janus::with_config(JanusConfig {
            threads: 4,
            backend: BackendKind::VirtualTime,
            dbm: DbmConfig {
                spec_commit: commit,
                ..DbmConfig::default()
            },
            ..JanusConfig::default()
        })
        .run(&binary, &[])
        .expect("pipeline succeeds")
    };
    let deterministic = run(SpecCommitMode::Deterministic);
    let raced = run(SpecCommitMode::RacedImage);
    assert_eq!(
        deterministic.parallel.cycles, raced.parallel.cycles,
        "virtual time must be bit-identical regardless of the commit mode"
    );
    assert_eq!(
        deterministic.parallel.stats, raced.parallel.stats,
        "virtual-time statistics must not depend on the commit mode"
    );
    assert_eq!(
        deterministic.parallel.memory_digest,
        raced.parallel.memory_digest
    );
}
