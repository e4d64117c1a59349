//! The native backend's worker pool lives exactly as long as one run.
//!
//! A run spawns its parked workers at its first parallel batch and joins them
//! when `execute` returns: after every run the process is back to the thread
//! count it had before, however many runs came first. The single test keeps
//! the test harness from running anything beside it, so the count of
//! `/proc/self/task` is this test's own.
#![cfg(target_os = "linux")]

use janus_compile::Compiler;
use janus_core::{BackendKind, DbmConfig, Janus, PreparedDbm};
use janus_vm::Process;
use janus_workloads::workload;
use std::time::{Duration, Instant};

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// The thread count once it reads `expected`, or after a second. A joined
/// thread leaves the task list a moment after its joiner wakes, so a count
/// taken right after `execute` may still include it.
fn threads_settled_at(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let now = os_threads();
        if now == expected || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn native_runs_join_their_pool_and_match_virtual_time() {
    // 433.milc: its tuner probes more chunks than threads within one run.
    // 410.bwaves: its `pow` loop runs transactions in every chunk.
    for (name, runs) in [("433.milc", 20), ("410.bwaves", 4)] {
        let w = workload(name).expect("known workload");
        let binary = Compiler::new()
            .compile(&w.program)
            .expect("workload compiles");
        let janus = Janus::new();
        let artifacts = janus.prepare(&binary, &[]).expect("pipeline prepares");
        let process = Process::load(&binary).expect("binary loads");
        for threads in [2u32, 4] {
            let run = |backend, adaptive| {
                let config = DbmConfig {
                    threads,
                    backend,
                    adaptive,
                    ..janus.dbm_config()
                };
                PreparedDbm::new(process.clone(), &artifacts.schedule, config)
                    .execute(&[])
                    .expect("execution succeeds")
            };
            let virt = run(BackendKind::VirtualTime, false);
            let baseline = os_threads();
            // When the tuner probes twice as many chunks as threads, they
            // run in waves: no more than T threads ever run one invocation.
            // (Other chunk counts place the private stack frames elsewhere,
            // so only the outputs are comparable.)
            let adaptive = run(BackendKind::NativeThreads, true);
            assert_eq!(
                adaptive.output_ints, virt.output_ints,
                "{name} T={threads} adaptive"
            );
            assert!(
                adaptive.stats.os_threads_used <= u64::from(threads),
                "{name} T={threads} adaptive: {} threads ran one invocation",
                adaptive.stats.os_threads_used
            );
            for i in 0..runs {
                let at = format!("{name} T={threads} run {i}");
                let native = run(BackendKind::NativeThreads, false);
                assert_eq!(native.output_ints, virt.output_ints, "{at}");
                assert_eq!(native.output_floats, virt.output_floats, "{at}");
                assert_eq!(native.memory_digest, virt.memory_digest, "{at}");
                assert_eq!(
                    native.stats.os_threads_used,
                    u64::from(threads),
                    "the caller and T - 1 workers ran the chunks ({at})"
                );
                assert_eq!(
                    threads_settled_at(baseline),
                    baseline,
                    "the pool was joined before execute returned ({at})"
                );
            }
        }
    }
}
