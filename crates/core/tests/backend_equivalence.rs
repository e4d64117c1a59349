//! Cross-backend equivalence: every parallelisable and speculative workload
//! must produce the same guest results under the virtual-time simulator and
//! the native-threads runtime.
//!
//! The anchor is strict: identical final guest memory image (by digest),
//! identical program output, and — because the native backend replays its
//! code-cache and lane accounting in chunk order — identical modelled cycle
//! breakdowns. The only permitted differences are the wall-clock and
//! OS-thread statistics the native backend adds on top.

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

fn run(binary: &JBinary, backend: BackendKind, threads: u32) -> JanusReport {
    // Modelled-cycle invariance is a *static-policy* contract: the adaptive
    // tuner may legitimately retarget chunk counts from wall-time evidence,
    // so pin it off here even when JANUS_ADAPTIVE is set (the adaptive CI
    // leg). `adaptive_equivalence.rs` covers the tuner-on guarantees.
    Janus::with_config(JanusConfig {
        threads,
        backend,
        dbm: DbmConfig {
            adaptive: false,
            ..DbmConfig::default()
        },
        ..JanusConfig::default()
    })
    .run(binary, &[])
    .expect("pipeline succeeds")
}

#[test]
fn backends_agree_on_every_workload() {
    let names: Vec<&str> = parallel_benchmarks()
        .into_iter()
        .chain(speculative_benchmarks())
        .collect();
    for name in names {
        let binary = train_binary(name);
        let virt = run(&binary, BackendKind::VirtualTime, 4);
        let native = run(&binary, BackendKind::NativeThreads, 4);

        assert!(virt.outputs_match, "{name}: virtual-time output diverged");
        assert!(
            native.outputs_match,
            "{name}: native-threads output diverged"
        );
        assert_eq!(
            virt.parallel.memory_digest, native.parallel.memory_digest,
            "{name}: final guest memory images differ between backends"
        );
        assert_eq!(
            virt.parallel.output_ints, native.parallel.output_ints,
            "{name}: integer output streams differ"
        );
        assert_eq!(
            virt.parallel.output_floats, native.parallel.output_floats,
            "{name}: float output streams differ"
        );
        assert_eq!(
            virt.parallel.cycles, native.parallel.cycles,
            "{name}: modelled cycle totals differ"
        );
        assert_eq!(
            virt.parallel.stats.breakdown, native.parallel.stats.breakdown,
            "{name}: modelled cycle breakdowns differ"
        );
        assert_eq!(
            virt.parallel.exit_code, native.parallel.exit_code,
            "{name}: exit codes differ"
        );

        // Physical-parallelism accounting: the virtual backend never spawns
        // OS threads; the native backend must have, whenever chunked
        // parallel work ran that was eligible for fan-out (loops with
        // STM-wrapped calls conservatively take the sequential chunk path,
        // so a workload whose only chunked loops carry transactions may
        // legitimately report 0).
        assert_eq!(virt.os_threads_used(), 0, "{name}");
        let chunked_invocations =
            native.parallel.stats.parallel_invocations - native.parallel.stats.spec_invocations;
        if chunked_invocations > 0 && native.parallel.stats.stm_transactions == 0 {
            assert!(
                native.os_threads_used() > 1,
                "{name}: native backend must fan chunked loops out across \
                 OS threads, reported {}",
                native.os_threads_used()
            );
        }
    }
}

/// Speculative (`SPECULATE`) equivalence across the thread axis: the
/// *reported* numbers — final memory image, output streams, modelled cycles
/// and breakdown, and the speculation counters feeding table 3 — must be
/// bit-identical between the backends at every thread count, because the
/// native backend runs the very engine the virtual-time backend runs, and
/// nothing else.
#[test]
fn speculative_workloads_agree_across_thread_counts() {
    for name in speculative_benchmarks() {
        let binary = train_binary(name);
        for threads in [1u32, 2, 4, 8] {
            let virt = run(&binary, BackendKind::VirtualTime, threads);
            let native = run(&binary, BackendKind::NativeThreads, threads);

            assert!(virt.outputs_match, "{name}@{threads}: virtual diverged");
            assert!(native.outputs_match, "{name}@{threads}: native diverged");
            assert_eq!(
                virt.parallel.memory_digest, native.parallel.memory_digest,
                "{name}@{threads}: final guest memory images differ"
            );
            assert_eq!(
                virt.parallel.output_ints, native.parallel.output_ints,
                "{name}@{threads}: integer output streams differ"
            );
            assert_eq!(
                virt.parallel.output_floats, native.parallel.output_floats,
                "{name}@{threads}: float output streams differ"
            );
            assert_eq!(
                virt.parallel.cycles, native.parallel.cycles,
                "{name}@{threads}: modelled cycle totals differ"
            );
            assert_eq!(
                virt.parallel.stats.breakdown, native.parallel.stats.breakdown,
                "{name}@{threads}: modelled cycle breakdowns differ"
            );
            // The speculation counters behind `figures table3`.
            let (vs, ns) = (&virt.parallel.stats, &native.parallel.stats);
            assert_eq!(
                (
                    vs.spec_invocations,
                    vs.spec_iterations,
                    vs.spec_executions,
                    vs.spec_aborts,
                    vs.spec_validations,
                    vs.spec_fallbacks,
                ),
                (
                    ns.spec_invocations,
                    ns.spec_iterations,
                    ns.spec_executions,
                    ns.spec_aborts,
                    ns.spec_validations,
                    ns.spec_fallbacks,
                ),
                "{name}@{threads}: speculation statistics differ"
            );
            assert_eq!(virt.os_threads_used(), 0, "{name}@{threads}");
        }
    }
}

#[test]
fn native_backend_spawns_real_threads_and_measures_wall_time() {
    let binary = train_binary("470.lbm");
    let native = run(&binary, BackendKind::NativeThreads, 8);
    assert!(native.outputs_match);
    assert!(
        native.os_threads_used() > 1,
        "expected >1 OS threads, got {}",
        native.os_threads_used()
    );
    assert!(
        native.parallel.stats.parallel_wall_nanos > 0,
        "native parallel regions must take measurable wall time"
    );
    assert!(native.parallel.wall_nanos > 0);

    let virt = run(&binary, BackendKind::VirtualTime, 8);
    assert_eq!(
        virt.parallel.stats.parallel_wall_nanos, 0,
        "virtual time must not report wall-clock parallel time"
    );
}
