//! End-to-end serving-layer battery.
//!
//! Pins the acceptance bar of the serving subsystem:
//!
//! * submitting the same `JBin` N times (from N threads) performs exactly
//!   one analysis/schedule build, asserted via the `ServeStats` hit/miss
//!   counters, and every result is identical to a serial run;
//! * a 4-worker mixed batch over the full workload suite (parallel and
//!   speculative benchmarks, both backends as per-job overrides) produces
//!   outputs and memory digests identical to running each job serially;
//! * admission control rejects with the typed `ServeError::Saturated`.

use janus_compile::{CompileOptions, Compiler};
use janus_core::{BackendKind, Janus, JanusConfig, PreparedDbm};
use janus_dbm::DbmRunResult;
use janus_ir::JBinary;
use janus_serve::{JobSpec, ServeConfig, ServeSession};
use janus_vm::Process;
use janus_workloads::{parallel_benchmarks, speculative_benchmarks, workload};
use std::sync::Arc;

fn train_binary(name: &str) -> Arc<JBinary> {
    let w = workload(name).expect("known workload");
    Arc::new(
        Compiler::with_options(CompileOptions::gcc_o3())
            .compile(&w.train_program)
            .expect("workload compiles"),
    )
}

fn session_janus(backend: BackendKind) -> Janus {
    Janus::with_config(JanusConfig {
        threads: 4,
        backend,
        ..JanusConfig::default()
    })
}

/// The serial reference: the same cached-artifact path, driven inline with
/// no pool, no cache and no concurrency.
fn serial_run(janus: &Janus, binary: &JBinary, input: &[i64]) -> DbmRunResult {
    let artifacts = janus.prepare(binary, &[]).expect("pipeline prepares");
    let prepared = PreparedDbm::new(
        Process::load(binary).expect("loads"),
        &artifacts.schedule,
        janus.dbm_config(),
    );
    prepared.execute(input).expect("serial run succeeds")
}

#[test]
fn concurrent_submissions_of_one_binary_analyse_exactly_once() {
    const SUBMITTERS: usize = 8;
    let binary = train_binary("470.lbm");
    let janus = session_janus(BackendKind::from_env());
    let reference = serial_run(&janus, &binary, &[]);

    let handle = janus.serve(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    // N racing submitters, not one loop: the per-key build gate must elect
    // exactly one builder under real contention.
    std::thread::scope(|scope| {
        for _ in 0..SUBMITTERS {
            scope.spawn(|| handle.submit(JobSpec::new(binary.clone())).unwrap());
        }
    });
    let outcomes = handle.join();
    assert_eq!(outcomes.len(), SUBMITTERS);
    for (id, outcome) in &outcomes {
        let report = outcome.as_ref().unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(report.binary_digest, binary.content_digest());
        assert_eq!(report.memory_digest, reference.memory_digest, "{id}");
        assert_eq!(report.output_ints, reference.output_ints, "{id}");
        assert_eq!(report.output_floats, reference.output_floats, "{id}");
        assert_eq!(report.exit_code, reference.exit_code, "{id}");
    }

    let stats = handle.stats();
    assert_eq!(stats.cache_misses, 1, "exactly one analysis ran: {stats:?}");
    assert_eq!(
        stats.cache_hits + stats.cache_inflight_waits,
        (SUBMITTERS - 1) as u64,
        "every other submission reused the build: {stats:?}"
    );
    assert_eq!(stats.jobs_submitted, SUBMITTERS as u64);
    assert_eq!(stats.jobs_completed, SUBMITTERS as u64);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.cache_entries, 1);
}

#[test]
fn mixed_batch_over_the_suite_matches_serial_runs() {
    // The full parallel + speculative workload suite, each submitted twice
    // (cache hit on the second), driven by 4 workers — including per-job
    // backend overrides, so virtual-time and native-threads jobs interleave
    // in one session.
    let janus = session_janus(BackendKind::VirtualTime);
    let handle = janus.serve(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });

    let names: Vec<&str> = parallel_benchmarks()
        .into_iter()
        .chain(speculative_benchmarks())
        .collect();
    let mut expected = Vec::new();
    let mut submitted = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let binary = train_binary(name);
        let reference = serial_run(&janus, &binary, &[]);
        for job in 0..2 {
            // Alternate the execution backend per job: guest results must be
            // identical wherever and however the job runs.
            let backend = if (i + job) % 2 == 0 {
                BackendKind::VirtualTime
            } else {
                BackendKind::NativeThreads
            };
            let id = handle
                .submit(JobSpec::new(binary.clone()).with_backend(backend))
                .unwrap();
            submitted.push((id, *name));
            expected.push((id, reference.clone()));
        }
    }

    let outcomes = handle.join();
    assert_eq!(outcomes.len(), expected.len());
    for (((id, outcome), (expect_id, reference)), (_, name)) in
        outcomes.iter().zip(&expected).zip(&submitted)
    {
        assert_eq!(id, expect_id, "join returns outcomes in submission order");
        let report = outcome.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            report.memory_digest, reference.memory_digest,
            "{name}: served memory image diverged from the serial run"
        );
        assert_eq!(report.output_ints, reference.output_ints, "{name}");
        assert_eq!(report.output_floats, reference.output_floats, "{name}");
        assert_eq!(report.exit_code, reference.exit_code, "{name}");
    }

    let stats = handle.stats();
    assert_eq!(
        stats.cache_misses,
        names.len() as u64,
        "one build per distinct binary: {stats:?}"
    );
    assert_eq!(
        stats.cache_hits + stats.cache_inflight_waits,
        names.len() as u64,
        "second submission of each binary reused the artifact: {stats:?}"
    );
    assert_eq!(stats.jobs_failed, 0);
    assert!(stats.max_in_flight_seen >= 1);
    let final_stats = handle.shutdown();
    assert_eq!(final_stats.jobs_completed, 2 * names.len() as u64);
}

#[test]
fn saturated_sessions_reject_with_a_typed_error() {
    let binary = train_binary("470.lbm");
    let janus = session_janus(BackendKind::from_env());
    // One worker, a queue of one, an in-flight cap of one: the second
    // submission while the first still runs must be rejected.
    let handle = janus.serve(ServeConfig {
        workers: 1,
        queue_depth: 1,
        max_in_flight: 1,
        ..ServeConfig::default()
    });
    handle.submit(JobSpec::new(binary.clone())).unwrap();
    let err = handle
        .submit(JobSpec::new(binary.clone()))
        .expect_err("second submission must saturate");
    match err {
        janus_serve::ServeError::Saturated { in_flight, limit } => {
            assert_eq!(limit, 1);
            assert!(in_flight >= 1);
        }
        other => panic!("expected Saturated, got {other}"),
    }
    // The accepted job still completes, and the rejection is counted.
    let outcomes = handle.join();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].1.is_ok());
    let stats = handle.stats();
    assert_eq!(stats.jobs_rejected, 1);
    // After draining, the session accepts work again.
    handle.submit(JobSpec::new(binary)).unwrap();
    let outcomes = handle.join();
    assert_eq!(outcomes.len(), 1);
}

#[test]
fn per_job_thread_overrides_do_not_change_guest_results() {
    let binary = train_binary("459.GemsFDTD");
    let janus = session_janus(BackendKind::from_env());
    let reference = serial_run(&janus, &binary, &[]);
    let handle = janus.serve(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    for threads in [1u32, 2, 4, 8] {
        let mut job = JobSpec::new(binary.clone());
        job.threads = Some(threads);
        handle.submit(job).expect("job admitted");
    }
    for (id, outcome) in handle.join() {
        let report = outcome.unwrap_or_else(|e| panic!("{id}: {e}"));
        // Guest output is invariant under the thread count — up to the
        // pipeline's own float-reduction tolerance (summation order moves
        // with the chunking). The raw memory image is not (each worker
        // leaves its private stack frame behind), so the digest is only
        // compared at the session's own thread count.
        assert_eq!(report.output_floats.len(), reference.output_floats.len());
        for (a, b) in report.output_floats.iter().zip(&reference.output_floats) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{id}: {a} vs {b}");
        }
        assert_eq!(report.output_ints, reference.output_ints, "{id}");
        if report.threads == 4 {
            assert_eq!(report.memory_digest, reference.memory_digest, "{id}");
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.cache_misses, 1, "thread overrides share one artifact");
}

#[test]
fn traced_session_exports_a_full_stack_chrome_trace() {
    let binary = train_binary("429.mcf");
    let janus = session_janus(BackendKind::from_env());
    let handle = janus.serve(ServeConfig {
        workers: 2,
        trace: janus_obs::Recorder::enabled(),
        ..ServeConfig::default()
    });
    for _ in 0..4 {
        handle.submit(JobSpec::new(binary.clone())).unwrap();
    }
    let outcomes = handle.join();
    assert!(outcomes.iter().all(|(_, r)| r.is_ok()));

    // Stats expose histogram-backed latency quantiles.
    let stats = handle.stats();
    assert_eq!(stats.job_wall.count, 4);
    assert_eq!(stats.job_queue_wait.count, 4);
    assert_eq!(stats.job_execute.count, 4);
    assert!(stats.job_wall.p50_nanos >= stats.job_execute.p50_nanos);
    assert!(stats.job_wall.p99_nanos >= stats.job_wall.p50_nanos);

    // The Chrome export is valid JSON carrying the serving layer's own
    // spans, the core pipeline's, and per-worker track names.
    let trace = handle.trace().chrome_trace();
    let doc = janus_obs::json::parse(&trace).expect("chrome trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for expected in ["job", "queue.wait", "cache.probe", "execute", "analysis"] {
        assert!(names.contains(&expected), "missing span {expected:?}");
    }
    let track_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert!(
        track_names.iter().any(|n| n.starts_with("janus-serve-")),
        "worker tracks registered: {track_names:?}"
    );
}
