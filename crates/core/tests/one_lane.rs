//! A batch of one lane runs in place. At `threads` = 1 the native backend
//! has nothing to run beside a chunk, so it runs a parallel invocation's
//! chunks in order on the calling thread, straight over the run's memory, as
//! the virtual-time backend does: no copy-on-write view, no overlay merge.
//! It must then report exactly what the virtual-time backend reports, plus
//! its own wall time and the one OS thread that ran the chunks.

use janus_compile::{CompileOptions, Compiler};
use janus_core::{BackendKind, DbmConfig, Janus, JanusConfig, JanusReport};
use janus_ir::JBinary;
use janus_obs::{ArgValue, Recorder};
use janus_workloads::{all_names, workload};

fn train_binary(name: &str) -> JBinary {
    let w = workload(name).expect("known workload");
    Compiler::with_options(CompileOptions::gcc_o3())
        .compile(&w.train_program)
        .expect("workload compiles")
}

fn run(binary: &JBinary, backend: BackendKind, adaptive: bool, trace: &Recorder) -> JanusReport {
    // `dbm.adaptive` too, so that `JANUS_ADAPTIVE` cannot turn the tuner on.
    Janus::with_config(JanusConfig {
        threads: 1,
        backend,
        adaptive,
        dbm: DbmConfig {
            adaptive,
            ..DbmConfig::default()
        },
        trace: trace.clone(),
        ..JanusConfig::default()
    })
    .run(binary, &[])
    .expect("pipeline succeeds")
}

/// What the native backend's one-lane batches must not have: merged or
/// skipped pages.
fn merged_pages(report: &JanusReport) -> u64 {
    let stats = &report.parallel.stats;
    stats.merge_pages_merged + stats.merge_pages_skipped
}

#[test]
fn one_lane_native_runs_report_what_virtual_time_reports() {
    let mut doall_workloads = 0;
    for name in all_names() {
        let binary = train_binary(name);
        let untraced = Recorder::disabled();
        let virt = run(&binary, BackendKind::VirtualTime, false, &untraced);
        let native = run(&binary, BackendKind::NativeThreads, false, &untraced);
        let (v, n) = (&virt.parallel, &native.parallel);
        assert!(virt.outputs_match && native.outputs_match, "{name}");
        assert_eq!(n.exit_code, v.exit_code, "{name}");
        assert_eq!(n.output_ints, v.output_ints, "{name}");
        assert_eq!(n.output_floats, v.output_floats, "{name}");
        assert_eq!(n.memory_digest, v.memory_digest, "{name}");
        assert_eq!(n.cycles, v.cycles, "{name}");
        assert_eq!(n.stats.breakdown, v.stats.breakdown, "{name}");
        assert_eq!(n.stats.retired, v.stats.retired, "{name}");
        assert_eq!(
            n.stats.blocks_translated, v.stats.blocks_translated,
            "{name}"
        );

        assert_eq!(merged_pages(&native), 0, "{name}: a one-lane batch merged");
        let doall = n.stats.parallel_invocations - n.stats.spec_invocations;
        if doall > 0 {
            doall_workloads += 1;
            assert_eq!(n.stats.os_threads_used, 1, "{name}");
            assert!(n.stats.parallel_wall_nanos > 0, "{name}: no wall time");
        } else {
            assert_eq!(n.stats.os_threads_used, 0, "{name}");
        }
    }
    assert!(doall_workloads > 0, "no DOALL loop ran at T = 1");
}

#[test]
fn adaptive_two_chunk_probes_at_one_thread_run_in_place() {
    // 433.milc's tuner probes twice as many chunks as threads within one
    // run; at T = 1 both chunks of such a probe run in order, in place.
    let binary = train_binary("433.milc");
    let trace = Recorder::enabled();
    let native = run(&binary, BackendKind::NativeThreads, true, &trace);
    let parallel = ("backend", ArgValue::Str("parallel".into()));
    let two_chunk_batches = trace
        .events()
        .iter()
        .filter(|e| e.name == "tune.decision" && e.args.contains(&parallel))
        .filter(|e| e.args.contains(&("chunks", ArgValue::U64(2))))
        .count();
    assert!(two_chunk_batches > 0, "the tuner never planned two chunks");
    assert!(native.outputs_match);
    assert_eq!(native.native.exit_code, native.parallel.exit_code);
    assert_eq!(merged_pages(&native), 0, "a one-lane batch merged");
    assert_eq!(native.parallel.stats.os_threads_used, 1);
}
