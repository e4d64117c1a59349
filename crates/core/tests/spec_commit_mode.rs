//! `DbmConfig::spec_commit` is kept only so existing callers still build:
//! every speculative invocation runs the one deterministic engine, whatever
//! the field says. A `RacedImage` run must therefore return exactly what the
//! default run returns — modelled cycles, every `DbmStats` counter
//! (`os_threads_used` included), the memory digest and the outputs. Only
//! wall-clock time may differ between two runs.

use janus_compile::{CompileOptions, Compiler};
use janus_core::{BackendKind, Janus, JanusConfig, SpecCommitMode};
use janus_dbm::{DbmConfig, DbmRunResult, DbmStats};
use janus_workloads::{speculative_benchmarks, workload};

/// Everything a run reports except its wall-clock time.
type Observed = (i64, u64, DbmStats, Vec<i64>, Vec<f64>, u64);

fn observed(run: DbmRunResult) -> Observed {
    let stats = DbmStats {
        parallel_wall_nanos: 0,
        ..run.stats
    };
    let digest = run.memory_digest;
    let (ints, floats) = (run.output_ints, run.output_floats);
    (run.exit_code, run.cycles, stats, ints, floats, digest)
}

#[test]
fn raced_image_mode_changes_nothing() {
    for name in speculative_benchmarks() {
        let w = workload(name).expect("known workload");
        let binary = Compiler::with_options(CompileOptions::gcc_o3())
            .compile(&w.train_program)
            .expect("workload compiles");
        let run = |spec_commit: SpecCommitMode| {
            let report = Janus::with_config(JanusConfig {
                threads: 4,
                backend: BackendKind::NativeThreads,
                dbm: DbmConfig {
                    spec_commit,
                    // Tuner decisions follow measured wall time; keep them
                    // out even under JANUS_ADAPTIVE.
                    adaptive: false,
                    ..DbmConfig::default()
                },
                ..JanusConfig::default()
            })
            .run(&binary, &[])
            .expect("pipeline succeeds");
            assert!(report.outputs_match, "{name}: output diverged");
            observed(report.parallel)
        };
        let default = run(SpecCommitMode::default());
        assert!(
            default.2.spec_invocations >= 1,
            "{name}: nothing speculated"
        );
        assert_eq!(
            run(SpecCommitMode::RacedImage),
            default,
            "{name}: the ignored commit mode changed the run"
        );
    }
}
