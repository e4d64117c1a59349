//! Golden numbers of the four `spec.*` kernels: "table 3 unchanged" as a
//! test.
//!
//! Modelled cycles, their breakdown and the speculation counters are a pure
//! function of the deterministic coordinator's task sequence and of the
//! multi-version store's visibility rule, so any change to the scheduler,
//! the store or the per-iteration view that is meant to be a pure host-time
//! optimisation must reproduce these values bit for bit — on both backends
//! and at every thread count. The values are the ones
//! `bench/baseline_*.json` carries at four threads (reference-scale
//! programs, default compile options). A change that is *meant* to move the
//! model (selection, schedule, cost knobs) regenerates the table in the same
//! commit.

use janus_compile::Compiler;
use janus_core::{BackendKind, DbmConfig, Janus, JanusConfig};
use janus_workloads::workload;

/// `(workload, threads, cycles,
///   [sequential, parallel, init_finish, translation, checks, stm],
///   [spec_executions, spec_aborts, spec_validations, spec_reads, spec_writes])`
type Golden = (&'static str, u32, u64, [u64; 6], [u64; 5]);

#[rustfmt::skip]
const GOLDEN: [Golden; 16] = [
    ("spec.histogram", 1, 864364, [215, 835800, 7200, 21149, 0, 0], [4410, 0, 4410, 35280, 8820]),
    ("spec.histogram", 2, 454294, [215, 418530, 14400, 21149, 0, 0], [4410, 0, 4410, 35280, 8820]),
    ("spec.histogram", 4, 260013, [215, 209849, 28800, 21149, 0, 0], [4410, 0, 4410, 35280, 8820]),
    ("spec.histogram", 8, 184492, [215, 105528, 57600, 21149, 0, 0], [4410, 0, 4410, 35280, 8820]),
    ("spec.sparse-update", 1, 821531, [198, 795455, 7200, 18678, 0, 0], [3420, 0, 3420, 27360, 13680]),
    ("spec.sparse-update", 2, 431156, [198, 397880, 14400, 18678, 0, 0], [3420, 0, 3420, 27360, 13680]),
    ("spec.sparse-update", 4, 246750, [198, 199074, 28800, 18678, 0, 0], [3420, 0, 3420, 27360, 13680]),
    ("spec.sparse-update", 8, 176112, [198, 99636, 57600, 18678, 0, 0], [3420, 0, 3420, 27360, 13680]),
    ("spec.gather-scatter", 1, 642156, [198, 616080, 7200, 18678, 0, 0], [2720, 0, 2720, 27200, 5440]),
    ("spec.gather-scatter", 2, 341996, [198, 308720, 14400, 18678, 0, 0], [2720, 0, 2720, 27200, 5440]),
    ("spec.gather-scatter", 4, 202672, [198, 154996, 28800, 18678, 0, 0], [2720, 0, 2720, 27200, 5440]),
    ("spec.gather-scatter", 8, 154632, [198, 78156, 57600, 18678, 0, 0], [2720, 0, 2720, 27200, 5440]),
    ("spec.doacross-window", 1, 504426, [303, 482430, 3600, 18093, 0, 0], [2400, 0, 2400, 9600, 4800]),
    ("spec.doacross-window", 2, 266826, [303, 241230, 7200, 18093, 0, 0], [2400, 0, 2400, 9600, 4800]),
    ("spec.doacross-window", 4, 205580, [303, 172784, 14400, 18093, 0, 0], [3199, 799, 3199, 12796, 6398]),
    ("spec.doacross-window", 8, 185847, [303, 138651, 28800, 18093, 0, 0], [4799, 2399, 4799, 19196, 9598]),
];

#[test]
fn speculative_kernels_reproduce_their_golden_counters() {
    for &(name, threads, cycles, breakdown, spec) in &GOLDEN {
        let w = workload(name).expect("known workload");
        let binary = Compiler::new()
            .compile(&w.program)
            .expect("workload compiles");
        for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
            let report = Janus::with_config(JanusConfig {
                threads,
                backend,
                adaptive: false,
                dbm: DbmConfig {
                    adaptive: false,
                    ..DbmConfig::default()
                },
                ..JanusConfig::default()
            })
            .run(&binary, &[])
            .expect("pipeline succeeds");
            let ctx = format!("{name}@{threads} on {backend}");
            assert!(report.outputs_match, "{ctx}: output diverged");
            let s = &report.parallel.stats;
            let b = &s.breakdown;
            assert_eq!(report.parallel.cycles, cycles, "{ctx}: cycles");
            assert_eq!(
                [
                    b.sequential,
                    b.parallel,
                    b.init_finish,
                    b.translation,
                    b.checks,
                    b.stm
                ],
                breakdown,
                "{ctx}: breakdown"
            );
            assert_eq!(
                [
                    s.spec_executions,
                    s.spec_aborts,
                    s.spec_validations,
                    s.spec_reads,
                    s.spec_writes
                ],
                spec,
                "{ctx}: speculation counters"
            );
        }
    }
}
