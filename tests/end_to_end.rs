//! Cross-crate integration tests: the full pipeline over the synthetic
//! benchmark suite, correctness of parallel execution against native
//! execution, and schedule/serialisation round trips.

use janus::compile::{CompileOptions, Compiler, OptLevel};
use janus::core::{Janus, JanusConfig};
use janus::ir::JBinary;
use janus::schedule::RewriteSchedule;
use janus::vm::{Process, Vm};
use janus::workloads::{parallel_benchmarks, workload};

fn train_binary(name: &str, options: CompileOptions) -> JBinary {
    let w = workload(name).expect("workload exists");
    Compiler::with_options(options)
        .compile(&w.train_program)
        .expect("compiles")
}

#[test]
fn every_parallel_benchmark_matches_native_output_under_janus() {
    for name in parallel_benchmarks() {
        let binary = train_binary(name, CompileOptions::gcc_o3());
        let report = Janus::with_config(JanusConfig {
            threads: 8,
            ..JanusConfig::default()
        })
        .run(&binary, &[])
        .unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"));
        assert!(report.outputs_match, "{name}: outputs diverged");
    }
}

#[test]
fn headline_benchmarks_speed_up_and_irregular_ones_do_not_break() {
    let lbm = train_binary("470.lbm", CompileOptions::gcc_o3());
    let report = Janus::new().run(&lbm, &[]).unwrap();
    assert!(
        report.speedup() > 2.5,
        "lbm should speed up well, got {:.2}",
        report.speedup()
    );

    let h264 = train_binary("464.h264ref", CompileOptions::gcc_o3());
    let report = Janus::new().run(&h264, &[]).unwrap();
    assert!(report.outputs_match);
    assert!(
        report.speedup() < 1.5,
        "h264ref is overhead-dominated, got {:.2}",
        report.speedup()
    );
}

#[test]
fn speculative_shared_library_calls_are_parallelised_correctly() {
    let bwaves = train_binary("410.bwaves", CompileOptions::gcc_o3());
    let report = Janus::new().run(&bwaves, &[]).unwrap();
    assert!(report.outputs_match, "speculation must preserve semantics");
    assert!(
        report.parallel.stats.stm_transactions > 0,
        "bwaves' pow calls must run under the STM"
    );
    assert_eq!(report.parallel.stats.stm_aborts, 0);
}

#[test]
fn janus_works_across_compiler_configurations() {
    for options in [
        CompileOptions::opt(OptLevel::O0),
        CompileOptions::gcc_o2(),
        CompileOptions::gcc_o3(),
        CompileOptions::gcc_o3_avx(),
        CompileOptions::icc_o3(),
    ] {
        let binary = train_binary("462.libquantum", options);
        let report = Janus::new().run(&binary, &[]).unwrap();
        assert!(
            report.outputs_match,
            "outputs diverged for {}",
            options.describe()
        );
    }
}

#[test]
fn stripped_binaries_are_handled() {
    let w = workload("470.lbm").unwrap();
    let mut binary = Compiler::new().compile(&w.train_program).unwrap();
    binary.strip();
    assert!(binary.symbols().is_empty());
    let report = Janus::new().run(&binary, &[]).unwrap();
    assert!(report.outputs_match);
    assert!(!report.selected_loops.is_empty());
}

#[test]
fn compiler_parallelised_binaries_run_natively() {
    // The Figure 11 baseline: gcc/icc auto-parallelisation executed by the
    // native runtime, not by Janus.
    let w = workload("462.libquantum").unwrap();
    let seq = Compiler::with_options(CompileOptions::gcc_o3())
        .compile(&w.train_program)
        .unwrap();
    let par = Compiler::with_options(CompileOptions::gcc_parallel(8))
        .compile(&w.train_program)
        .unwrap();
    let mut vm_seq = Vm::new(Process::load(&seq).unwrap());
    let mut vm_par = Vm::new(Process::load(&par).unwrap());
    let seq_result = vm_seq.run().unwrap();
    let par_result = vm_par.run().unwrap();
    assert_eq!(vm_seq.output_floats().len(), vm_par.output_floats().len());
    for (a, b) in vm_seq.output_floats().iter().zip(vm_par.output_floats()) {
        assert!((a - b).abs() < 1e-9);
    }
    assert!(par_result.cycles <= seq_result.cycles);
}

#[test]
fn rewrite_schedule_round_trips_through_bytes() {
    let binary = train_binary("459.GemsFDTD", CompileOptions::gcc_o3());
    let janus = Janus::new();
    let analysis = janus.analyze(&binary).unwrap();
    let selected = janus.select_loops(&analysis, None);
    let schedule = janus.generate_schedule(&binary, &analysis, &selected);
    assert!(!schedule.is_empty());
    let bytes = schedule.to_bytes();
    let reloaded = RewriteSchedule::from_bytes(&bytes).unwrap();
    assert_eq!(reloaded, schedule);
    assert!(
        (schedule.byte_size() as f64) < 0.25 * binary.file_size() as f64,
        "schedules stay small relative to the binary"
    );
}

#[test]
fn thread_count_sweep_preserves_output_for_a_checked_loop() {
    let binary = train_binary("436.cactusADM", CompileOptions::gcc_o3());
    for threads in [1u32, 2, 3, 5, 8] {
        let report = Janus::with_config(JanusConfig {
            threads,
            ..JanusConfig::default()
        })
        .run(&binary, &[])
        .unwrap();
        assert!(report.outputs_match, "threads = {threads}");
    }
}

#[test]
fn session_dbm_families_count_only_the_sessions_own_jobs() {
    use janus::core::BackendKind;
    use janus::obs::metrics::{parse_exposition, Registry};
    use janus::serve::{JobSpec, ServeConfig, ServeSession};
    use std::sync::Arc;

    // Every counter family the DBM exports, each labelled by backend.
    const FAMILIES: [&str; 15] = [
        "janus_dbm_runs_total",
        "janus_dbm_run_failures_total",
        "janus_dbm_guest_cycles_total",
        "janus_dbm_parallel_invocations_total",
        "janus_dbm_sequential_fallbacks_total",
        "janus_dbm_tune_parallel_decisions_total",
        "janus_dbm_tune_sequential_decisions_total",
        "janus_dbm_merge_pages_skipped_total",
        "janus_dbm_merge_pages_merged_total",
        "janus_spec_invocations_total",
        "janus_spec_executions_total",
        "janus_spec_validations_total",
        "janus_spec_aborts_total",
        "janus_spec_retries_total",
        "janus_spec_fallbacks_total",
    ];
    let lbm = Arc::new(train_binary("470.lbm", CompileOptions::gcc_o3()));
    let window = Arc::new(train_binary(
        "spec.doacross-window",
        CompileOptions::gcc_o3(),
    ));
    let janus = Janus::with_config(JanusConfig {
        threads: 4,
        backend: BackendKind::VirtualTime,
        ..JanusConfig::default()
    });
    // Two sessions with registries of their own and different batches:
    // (binary, per-job backend override).
    let batches = [
        vec![(&lbm, None), (&window, None)],
        vec![
            (&lbm, Some(BackendKind::NativeThreads)),
            (&window, None),
            (&window, Some(BackendKind::NativeThreads)),
        ],
    ];
    let sessions: Vec<_> = batches
        .iter()
        .map(|batch| {
            let registry = Registry::new();
            let handle = janus.serve(ServeConfig {
                workers: 1,
                metrics: Some(registry.clone()),
                ..ServeConfig::default()
            });
            for (binary, backend) in batch {
                let job = JobSpec::new(Arc::clone(binary));
                let job = match backend {
                    Some(backend) => job.with_backend(*backend),
                    None => job,
                };
                handle.submit(job).expect("queue has room");
            }
            (handle, registry)
        })
        .collect();
    // A bare run outside both sessions, while they may still be running.
    let pipeline = janus.prepare(&lbm, &[]).expect("lbm prepares");
    let process = Process::load(&lbm).expect("lbm loads");
    let bare = janus::core::PreparedDbm::new(process, &pipeline.schedule, janus.dbm_config())
        .execute(&[])
        .expect("bare run completes");
    assert!(bare.stats.parallel_invocations > 0);

    for (handle, registry) in &sessions {
        let outcomes = handle.join();
        let reports: Vec<_> = outcomes
            .iter()
            .map(|(_, r)| r.as_ref().expect("job succeeds"))
            .collect();
        let completed = handle.stats().jobs_completed;
        assert_eq!(completed, reports.len() as u64);
        let doc = parse_exposition(&registry.prometheus_text()).expect("exposition parses");
        let total = |name: &str| -> u64 { doc.series(name).iter().map(|s| s.value as u64).sum() };
        let sum = |field: fn(&janus::dbm::DbmStats) -> u64| -> u64 {
            reports.iter().map(|r| field(&r.stats)).sum()
        };
        assert_eq!(total("janus_dbm_runs_total"), completed);
        assert_eq!(total("janus_dbm_run_failures_total"), 0);
        assert_eq!(
            total("janus_dbm_parallel_invocations_total"),
            sum(|s| s.parallel_invocations)
        );
        assert_eq!(total("janus_spec_aborts_total"), sum(|s| s.spec_aborts));
        assert_eq!(
            total("janus_dbm_guest_cycles_total"),
            reports.iter().map(|r| r.cycles).sum::<u64>()
        );
        assert!(sum(|s| s.parallel_invocations) > 0 && sum(|s| s.spec_aborts) > 0);
        // Each run counts under the backend it ran on.
        for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
            let ran = reports.iter().filter(|r| r.backend == backend).count();
            assert_eq!(
                doc.value("janus_dbm_runs_total", &[("backend", backend.label())]),
                Some(ran as f64),
                "{backend:?}"
            );
        }
        for family in FAMILIES {
            assert_eq!(
                doc.families.get(family).map(String::as_str),
                Some("counter")
            );
            assert_eq!(
                doc.series(family).len(),
                2,
                "{family}: one series per backend"
            );
        }
    }
}
