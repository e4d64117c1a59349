//! # janus-bench — reproduction of every table and figure
//!
//! Each public function regenerates the data behind one table or figure of
//! the paper's evaluation (section III) using the synthetic workload suite.
//! The `figures` binary prints them all. Everything here is modelled or
//! counted and repeats exactly; host wall time is the ledger's (`benchmark/`).
//!
//! Absolute numbers differ from the paper (the substrate is a deterministic
//! virtual-time simulator, not an eight-core Xeon), but the qualitative
//! shapes — which benchmarks speed up, by roughly what factor, and where the
//! overheads sit — are reproduced. `EXPERIMENTS.md` records a side-by-side
//! comparison.

#![warn(missing_docs)]

pub mod diff;
pub mod fuzz;

use janus_analysis::LoopCategory;
use janus_compile::{CompileOptions, Compiler, OptLevel};
use janus_core::{BackendKind, Janus, JanusConfig, OptimisationMode};
use janus_ir::JBinary;
use janus_vm::{Process, Vm};
use janus_workloads::{parallel_benchmarks, speculative_benchmarks, suite, workload};

/// Compiles a workload's reference program with the given options.
#[must_use]
pub fn compile_ref(name: &str, options: CompileOptions) -> JBinary {
    let w = workload(name).expect("known workload");
    Compiler::with_options(options)
        .compile(&w.program)
        .expect("workload compiles")
}

/// Compiles a workload's training program.
#[must_use]
pub fn compile_train(name: &str, options: CompileOptions) -> JBinary {
    let w = workload(name).expect("known workload");
    Compiler::with_options(options)
        .compile(&w.train_program)
        .expect("workload compiles")
}

/// Runs a binary natively and returns its cycle count.
#[must_use]
pub fn native_cycles(binary: &JBinary) -> u64 {
    let mut vm = Vm::new(Process::load(binary).expect("loads"));
    vm.run().expect("native run succeeds").cycles
}

/// One row of Figure 6: per-category static loop fractions and execution-time
/// fractions for one benchmark.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Fraction of static loops per category (A, B, C, D, speculative,
    /// incompatible).
    pub static_fraction: [f64; 6],
    /// Fraction of execution time per category.
    pub time_fraction: [f64; 6],
}

/// Figure 6: loop classification across the whole suite (training inputs).
#[must_use]
pub fn fig6_loop_classification() -> Vec<Fig6Row> {
    let order = [
        LoopCategory::StaticDoall,
        LoopCategory::StaticDependence,
        LoopCategory::DynamicDoall,
        LoopCategory::DynamicDependence,
        LoopCategory::Speculative,
        LoopCategory::Incompatible,
    ];
    let mut rows = Vec::new();
    for w in suite() {
        let binary = Compiler::with_options(CompileOptions::gcc_o3())
            .compile(&w.train_program)
            .expect("compiles");
        let janus = Janus::new();
        let analysis = janus.analyze(&binary).expect("analysis succeeds");
        let profile = janus
            .profile(&binary, &analysis, &[])
            .expect("profiling succeeds");
        let total_loops = analysis.loops.len().max(1) as f64;
        let hist = analysis.category_histogram();
        let mut static_fraction = [0.0; 6];
        for (i, cat) in order.iter().enumerate() {
            static_fraction[i] =
                hist.iter().find(|(c, _)| c == cat).map_or(0, |(_, n)| *n) as f64 / total_loops;
        }
        let times = profile.category_time_fractions(&analysis);
        let mut time_fraction = [0.0; 6];
        for (i, cat) in order.iter().enumerate() {
            time_fraction[i] = times
                .iter()
                .find(|(c, _)| c == cat)
                .map_or(0.0, |(_, f)| *f);
        }
        rows.push(Fig6Row {
            name: w.name,
            static_fraction,
            time_fraction,
        });
    }
    rows
}

/// One row of Figure 7: speedups of the four configurations for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Benchmark name.
    pub name: &'static str,
    /// DynamoRIO-only (overhead) speedup.
    pub dynamorio: f64,
    /// Statically-driven parallelisation.
    pub statically_driven: f64,
    /// Statically-driven plus profile guidance.
    pub with_profile: f64,
    /// Full Janus (profile + runtime checks + speculation).
    pub janus: f64,
}

fn run_mode(
    binary: &JBinary,
    backend: BackendKind,
    mode: OptimisationMode,
    threads: u32,
) -> janus_core::JanusReport {
    Janus::with_config(JanusConfig {
        threads,
        backend,
        mode,
        ..JanusConfig::default()
    })
    .run(binary, &[])
    .expect("pipeline succeeds")
}

/// Figure 7: whole-program speedup with eight threads for the nine
/// parallelisable benchmarks, under the four configurations.
#[must_use]
pub fn fig7_speedup(backend: BackendKind, threads: u32) -> Vec<Fig7Row> {
    parallel_benchmarks()
        .iter()
        .map(|name| {
            let binary = compile_ref(name, CompileOptions::gcc_o3());
            let rows = [
                OptimisationMode::DynamoRioOnly,
                OptimisationMode::StaticallyDriven,
                OptimisationMode::StaticallyDrivenProfile,
                OptimisationMode::Full,
            ]
            .map(|mode| run_mode(&binary, backend, mode, threads).speedup());
            Fig7Row {
                name,
                dynamorio: rows[0],
                statically_driven: rows[1],
                with_profile: rows[2],
                janus: rows[3],
            }
        })
        .collect()
}

/// One row of Figure 8: execution-time breakdown for one benchmark at a given
/// thread count, as fractions of that run's total time.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Threads used.
    pub threads: u32,
    /// (sequential, parallel, init/finish, translation, checks); STM cost
    /// is inside `parallel`.
    pub fractions: [f64; 5],
}

/// Figure 8: breakdown of execution time for one and eight threads.
#[must_use]
pub fn fig8_breakdown(backend: BackendKind) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for name in parallel_benchmarks() {
        let binary = compile_ref(name, CompileOptions::gcc_o3());
        for threads in [1u32, 8] {
            let report = run_mode(&binary, backend, OptimisationMode::Full, threads);
            rows.push(Fig8Row {
                name,
                threads,
                fractions: report.parallel.stats.breakdown.fractions(),
            });
        }
    }
    rows
}

/// Figure 9: speedup for 1..=8 threads per benchmark. Returns
/// `(name, Vec<(threads, speedup)>)` series.
#[must_use]
pub fn fig9_scaling(
    backend: BackendKind,
    max_threads: u32,
) -> Vec<(&'static str, Vec<(u32, f64)>)> {
    parallel_benchmarks()
        .iter()
        .map(|name| {
            let binary = compile_ref(name, CompileOptions::gcc_o3());
            let series = (1..=max_threads)
                .map(|t| {
                    (
                        t,
                        run_mode(&binary, backend, OptimisationMode::Full, t).speedup(),
                    )
                })
                .collect();
            (*name, series)
        })
        .collect()
}

/// Figure 10: rewrite-schedule size as a percentage of binary size.
#[must_use]
pub fn fig10_schedule_size(backend: BackendKind) -> Vec<(&'static str, f64)> {
    parallel_benchmarks()
        .iter()
        .map(|name| {
            let binary = compile_ref(name, CompileOptions::gcc_o3());
            let report = run_mode(&binary, backend, OptimisationMode::Full, 8);
            (*name, report.schedule_size_fraction() * 100.0)
        })
        .collect()
}

/// One row of Figure 11: Janus vs compiler auto-parallelisation, for gcc-like
/// and icc-like configurations, normalised to each compiler's own `-O3`.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Row {
    /// Benchmark name.
    pub name: &'static str,
    /// `gcc -O3 -ftree-parallelize-loops=8` over `gcc -O3`.
    pub gcc_parallel: f64,
    /// Janus on the `gcc -O3` binary.
    pub janus_on_gcc: f64,
    /// `icc -O3 -parallel` over `icc -O3`.
    pub icc_parallel: f64,
    /// Janus on the `icc -O3` binary.
    pub janus_on_icc: f64,
}

/// Figure 11: comparison with compiler auto-parallelisation.
#[must_use]
pub fn fig11_compiler_comparison(backend: BackendKind, threads: u32) -> Vec<Fig11Row> {
    parallel_benchmarks()
        .iter()
        .map(|name| {
            let gcc_seq = compile_ref(name, CompileOptions::gcc_o3());
            let gcc_par = compile_ref(name, CompileOptions::gcc_parallel(threads));
            let icc_seq = compile_ref(name, CompileOptions::icc_o3());
            let icc_par = compile_ref(name, CompileOptions::icc_parallel(threads));
            let gcc_base = native_cycles(&gcc_seq);
            let icc_base = native_cycles(&icc_seq);
            Fig11Row {
                name,
                gcc_parallel: gcc_base as f64 / native_cycles(&gcc_par).max(1) as f64,
                janus_on_gcc: run_mode(&gcc_seq, backend, OptimisationMode::Full, threads)
                    .speedup(),
                icc_parallel: icc_base as f64 / native_cycles(&icc_par).max(1) as f64,
                janus_on_icc: run_mode(&icc_seq, backend, OptimisationMode::Full, threads)
                    .speedup(),
            }
        })
        .collect()
}

/// Figure 12: Janus speedup on `-O2`, `-O3` and `-O3 -mavx` binaries.
#[must_use]
pub fn fig12_opt_levels(backend: BackendKind, threads: u32) -> Vec<(&'static str, [f64; 3])> {
    parallel_benchmarks()
        .iter()
        .map(|name| {
            let speedups = [
                CompileOptions::opt(OptLevel::O2),
                CompileOptions::gcc_o3(),
                CompileOptions::gcc_o3_avx(),
            ]
            .map(|opts| {
                let binary = compile_ref(name, opts);
                run_mode(&binary, backend, OptimisationMode::Full, threads).speedup()
            });
            (*name, speedups)
        })
        .collect()
}

/// Table I: mean number of array-bounds checks per loop that requires them.
#[must_use]
pub fn table1_bounds_checks() -> Vec<(&'static str, f64)> {
    parallel_benchmarks()
        .iter()
        .filter_map(|name| {
            let binary = compile_ref(name, CompileOptions::gcc_o3());
            let analysis = Janus::new().analyze(&binary).expect("analysis succeeds");
            let loops_with: Vec<_> = analysis
                .loops
                .iter()
                .filter(|l| !l.bounds_checks.is_empty())
                .collect();
            if loops_with.is_empty() {
                None
            } else {
                let mean = loops_with
                    .iter()
                    .map(|l| l.bounds_checks.len() as f64)
                    .sum::<f64>()
                    / loops_with.len() as f64;
                Some((*name, mean))
            }
        })
        .collect()
}

/// One row of Table III: speculation statistics for one may-dependent
/// workload run under the `janus-spec` engine.
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    /// Workload name.
    pub name: &'static str,
    /// Iterations executed speculatively.
    pub iterations: u64,
    /// Incarnations executed (iterations + conflict-driven re-executions).
    pub executions: u64,
    /// Speculative aborts.
    pub aborts: u64,
    /// Per-iteration retries (`executions - iterations`).
    pub retries: u64,
    /// Aborts per completed incarnation.
    pub abort_rate: f64,
    /// JudoSTM transactions aborted (the shared-library call path).
    pub stm_aborts: u64,
    /// Whole-program speedup over native.
    pub speedup: f64,
    /// Whether the speculative run reproduced the native output.
    pub outputs_match: bool,
}

/// Table III: abort/retry statistics and speedup of the speculative
/// DOACROSS engine over the may-dependent workloads (new in this
/// reproduction — the paper has no counterpart because Janus serialises
/// these loops).
#[must_use]
pub fn table3_speculation(backend: BackendKind, threads: u32) -> Vec<Table3Row> {
    speculative_benchmarks()
        .iter()
        .map(|name| {
            let binary = compile_ref(name, CompileOptions::gcc_o3());
            let report = run_mode(&binary, backend, OptimisationMode::Full, threads);
            let stats = &report.parallel.stats;
            Table3Row {
                name,
                iterations: stats.spec_iterations,
                executions: stats.spec_executions,
                aborts: stats.spec_aborts,
                retries: stats.spec_retries(),
                abort_rate: stats.spec_abort_rate(),
                stm_aborts: stats.stm_aborts,
                speedup: report.speedup(),
                outputs_match: report.outputs_match,
            }
        })
        .collect()
}

/// Table II: qualitative comparison of binary parallelisation tools (static
/// content reproduced from the paper).
#[must_use]
pub fn table2_tool_comparison() -> Vec<[&'static str; 7]> {
    vec![
        [
            "Tool",
            "Platform",
            "Open source",
            "Automatic",
            "Runtime checks",
            "Shared-libraries",
            "Parallelisation",
        ],
        [
            "Yardimci and Franz",
            "PowerPC",
            "no",
            "no (manual profiling)",
            "no",
            "no",
            "Static DOALL",
        ],
        [
            "SecondWrite",
            "x86-64",
            "no",
            "no (manual profiling)",
            "yes",
            "no",
            "Affine loops",
        ],
        [
            "Pradelle et al",
            "x86-64",
            "no",
            "no (manual profiling)",
            "no",
            "decompile",
            "Src2Src affine",
        ],
        [
            "Janus",
            "x86-64, AArch64 (JVA here)",
            "yes",
            "yes",
            "yes",
            "yes",
            "Dynamic DOALL",
        ],
    ]
}

/// One row of the machine-readable per-backend benchmark
/// (`BENCH_<backend>.json`): whole-program speedup and modelled cycles for
/// one workload under the full Janus configuration.
#[derive(Debug, Clone, Copy)]
pub struct BackendBenchRow {
    /// Workload name.
    pub name: &'static str,
    /// Backend the row was measured under.
    pub backend: BackendKind,
    /// Whole-program modelled speedup over native execution.
    pub speedup: f64,
    /// Modelled cycles of the parallel run.
    pub cycles: u64,
    /// Largest OS-thread fan-out of any parallel invocation.
    pub os_threads_used: u64,
    /// Whether the parallel run reproduced the native output.
    pub outputs_match: bool,
}

/// Runs every parallelisable and speculative workload under `backend` with
/// the full Janus configuration and returns one row per workload — the data
/// behind `BENCH_<backend>.json`, which pins the modelled results of the
/// runtime across commits.
#[must_use]
pub fn backend_bench(backend: BackendKind, threads: u32) -> Vec<BackendBenchRow> {
    parallel_benchmarks()
        .into_iter()
        .chain(speculative_benchmarks())
        .map(|name| {
            let binary = compile_ref(name, CompileOptions::gcc_o3());
            let report = Janus::with_config(JanusConfig {
                threads,
                backend,
                ..JanusConfig::default()
            })
            .run(&binary, &[])
            .expect("pipeline succeeds");
            BackendBenchRow {
                name,
                backend,
                speedup: report.speedup(),
                cycles: report.parallel.cycles,
                os_threads_used: report.parallel.stats.os_threads_used,
                outputs_match: report.outputs_match,
            }
        })
        .collect()
}

/// The serving-layer batch figure: a mixed batch of jobs over the whole
/// workload suite pushed through one `janus-serve` session, its cache
/// counters recorded per commit in `BENCH_<backend>.json`.
#[derive(Debug, Clone, Copy)]
pub struct ServeThroughputRow {
    /// Backend the session executed under.
    pub backend: BackendKind,
    /// Worker threads draining the session's queue.
    pub workers: usize,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Artifact-cache hit rate over the batch (hits + in-flight waits over
    /// all lookups).
    pub cache_hit_rate: f64,
    /// Analyses actually run (cache misses; distinct binaries in the batch).
    pub cache_misses: u64,
    /// Jobs that finished with an error (0 on a healthy run).
    pub failures: u64,
}

/// Runs a mixed `jobs`-deep batch — the parallel and speculative training
/// workloads round-robin — through a `workers`-wide serving session on
/// `backend`, and summarises its cache behaviour.
///
/// # Panics
///
/// Panics if a workload fails to compile or the session rejects a
/// submission (the queue is sized to the batch).
#[must_use]
pub fn serve_throughput(backend: BackendKind, workers: usize, jobs: usize) -> ServeThroughputRow {
    use janus_serve::{JobSpec, ServeConfig, ServeSession};
    use std::sync::Arc;

    let names: Vec<&str> = parallel_benchmarks()
        .into_iter()
        .chain(speculative_benchmarks())
        .collect();
    let binaries: Vec<Arc<JBinary>> = names
        .iter()
        .map(|name| Arc::new(compile_train(name, CompileOptions::gcc_o3())))
        .collect();
    let janus = Janus::with_config(JanusConfig {
        threads: 4,
        backend,
        ..JanusConfig::default()
    });
    let handle = janus.serve(ServeConfig {
        workers,
        queue_depth: jobs.max(1),
        ..ServeConfig::default()
    });

    // One spec per binary, cloned per job: the content digest is computed
    // once here rather than once per submission.
    let specs: Vec<JobSpec> = binaries.iter().map(|b| JobSpec::new(b.clone())).collect();
    for i in 0..jobs {
        handle
            .submit(specs[i % specs.len()].clone())
            .expect("queue sized to the batch");
    }
    assert_eq!(handle.join().len(), jobs, "every job reports an outcome");

    let stats = handle.stats();
    ServeThroughputRow {
        backend,
        workers,
        jobs,
        cache_hit_rate: stats.cache_hit_rate(),
        cache_misses: stats.cache_misses,
        failures: stats.jobs_failed,
    }
}

/// One traced serving run over the workload suite: the Chrome-trace
/// document plus the latency summary `figures trace` prints alongside it.
#[derive(Debug, Clone)]
pub struct ServeTraceRun {
    /// Backend the traced session executed under.
    pub backend: BackendKind,
    /// Worker threads that drained the session's queue.
    pub workers: usize,
    /// Jobs the traced batch completed.
    pub jobs: usize,
    /// Chrome trace-event JSON — load it in Perfetto (`ui.perfetto.dev`)
    /// or `chrome://tracing`. Validated against the vendored JSON parser
    /// before it is returned.
    pub chrome_json: String,
    /// Session counters, including the histogram-backed latency quantiles
    /// (`job_wall` / `job_queue_wait` / `job_execute`).
    pub stats: janus_serve::ServeStats,
    /// Events resident in the recorder's ring buffers at export.
    pub events: usize,
    /// Events dropped by ring overflow (the flight recorder keeps the most
    /// recent window; a non-zero value means the window was exceeded).
    pub dropped: u64,
}

/// Serves the whole workload suite (two jobs per workload) through a traced
/// session and exports the flight recorder: per-job `serve.job` spans
/// (queue wait, cache probe, execute), the core pipeline's
/// analysis/schedule spans and the execution backends' chunk/speculation
/// events, on one timeline with one track per worker.
///
/// # Panics
///
/// Panics if a workload fails to compile, a submission is rejected, a job
/// fails, or the exported trace is not valid JSON (the export is the
/// product here, so a malformed document is a hard error).
#[must_use]
pub fn serve_trace(backend: BackendKind, workers: usize) -> ServeTraceRun {
    use janus_serve::{JobSpec, ServeConfig, ServeSession};
    use std::sync::Arc;

    let names: Vec<&str> = parallel_benchmarks()
        .into_iter()
        .chain(speculative_benchmarks())
        .collect();
    let janus = Janus::with_config(JanusConfig {
        threads: 4,
        backend,
        ..JanusConfig::default()
    });
    let trace = janus_obs::Recorder::enabled();
    let handle = janus.serve(ServeConfig {
        workers,
        queue_depth: names.len() * 2,
        trace: trace.clone(),
        ..ServeConfig::default()
    });
    // Two jobs per workload: the second submission of each binary is a
    // cache hit, so the trace shows both a cold job (analysis + schedule
    // spans inside the probe) and a warm one (probe returns immediately).
    let mut jobs = 0;
    for name in &names {
        let spec = JobSpec::new(Arc::new(compile_train(name, CompileOptions::gcc_o3())));
        for _ in 0..2 {
            handle.submit(spec.clone()).expect("queue sized to batch");
            jobs += 1;
        }
    }
    let outcomes = handle.join();
    for (id, outcome) in &outcomes {
        outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("traced batch job {id} failed: {e}"));
    }
    let chrome_json = trace.chrome_trace();
    janus_obs::json::parse(&chrome_json).expect("chrome trace is valid JSON");
    ServeTraceRun {
        backend,
        workers,
        jobs,
        chrome_json,
        stats: handle.shutdown(),
        events: trace.len(),
        dropped: trace.dropped(),
    }
}

/// One warm-vs-cold serving comparison: the same workload suite served by
/// a cold session (empty artifact store, every pipeline built) and by a
/// restarted session over the now-populated store (disk hits only).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeWarmStartRow {
    /// Execution backend the sessions ran on.
    pub backend: BackendKind,
    /// Worker threads per session.
    pub workers: usize,
    /// Distinct workloads served (one job each per session).
    pub workloads: usize,
    /// Analyses run by the cold session (= workloads on a healthy run).
    pub cold_misses: u64,
    /// Analyses run by the warm session (**0** on a healthy run — the
    /// acceptance criterion).
    pub warm_misses: u64,
    /// Warm-session artifacts served from the disk store.
    pub warm_disk_hits: u64,
    /// Bytes the populated store occupies on disk (schedule compactness,
    /// Figure 10 flavoured).
    pub store_bytes: u64,
    /// Jobs that finished with an error across both sessions (0 healthy).
    pub failures: u64,
}

/// Serves the whole workload suite twice — a cold session against an empty
/// store directory, then a restarted session against the populated one —
/// and summarises what the persistent artifact store buys a warm start.
/// The store directory is created under the system temp dir and removed
/// afterwards.
///
/// # Panics
///
/// Panics if a workload fails to compile, the store cannot be opened, or a
/// submission is rejected.
#[must_use]
pub fn serve_warm_start(backend: BackendKind, workers: usize) -> ServeWarmStartRow {
    use janus_serve::{JobSpec, ServeConfig, ServeSession};
    use std::sync::Arc;

    let names: Vec<&str> = parallel_benchmarks()
        .into_iter()
        .chain(speculative_benchmarks())
        .collect();
    let binaries: Vec<Arc<JBinary>> = names
        .iter()
        .map(|name| Arc::new(compile_train(name, CompileOptions::gcc_o3())))
        .collect();
    let janus = Janus::with_config(JanusConfig {
        threads: 4,
        backend,
        ..JanusConfig::default()
    });
    let dir = std::env::temp_dir().join(format!(
        "janus-bench-warm-start-{}-{}",
        backend.label(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        workers,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    let mut failures = 0;
    let session = |label: &str| -> janus_serve::ServeStats {
        let handle = janus
            .try_serve(config())
            .unwrap_or_else(|e| panic!("{label} session opens its store: {e}"));
        for binary in &binaries {
            handle
                .submit(JobSpec::new(binary.clone()))
                .expect("queue sized to the suite");
        }
        let outcomes = handle.join();
        assert_eq!(outcomes.len(), binaries.len());
        handle.stats()
    };

    let cold_stats = session("cold");
    failures += cold_stats.jobs_failed;
    let warm_stats = session("warm");
    failures += warm_stats.jobs_failed;

    let store_bytes = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|ext| ext == "jpa"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);

    ServeWarmStartRow {
        backend,
        workers,
        workloads: names.len(),
        cold_misses: cold_stats.cache_misses,
        warm_misses: warm_stats.cache_misses,
        warm_disk_hits: warm_stats.disk_hits,
        store_bytes,
        failures,
    }
}

/// Renders backend-bench rows — plus optional serving-batch and warm-start
/// sections — as a JSON document (no external dependencies; the format is
/// flat and append-friendly for trend tooling).
#[must_use]
pub fn backend_bench_json(
    rows: &[BackendBenchRow],
    threads: u32,
    serve: Option<&ServeThroughputRow>,
    warm: Option<&ServeWarmStartRow>,
) -> String {
    let mut out = String::from("{\n");
    let backend = rows.first().map_or("unknown", |r| r.backend.label());
    out.push_str(&format!("  \"backend\": \"{backend}\",\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!(
        "  \"geomean_speedup\": {:.6},\n",
        geomean(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>())
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"speedup\": {:.6}, \"cycles\": {}, \
             \"os_threads_used\": {}, \"outputs_match\": {}}}{}\n",
            r.name,
            r.speedup,
            r.cycles,
            r.os_threads_used,
            r.outputs_match,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    let mut sections = Vec::new();
    if let Some(s) = serve {
        sections.push(format!(
            "  \"serve_throughput\": {{\"workers\": {}, \"jobs\": {}, \
             \"cache_hit_rate\": {:.6}, \"cache_misses\": {}, \"failures\": {}}}",
            s.workers, s.jobs, s.cache_hit_rate, s.cache_misses, s.failures,
        ));
    }
    if let Some(w) = warm {
        sections.push(format!(
            "  \"serve_warm_start\": {{\"workers\": {}, \"workloads\": {}, \
             \"cold_misses\": {}, \"warm_misses\": {}, \"warm_disk_hits\": {}, \
             \"store_bytes\": {}, \"failures\": {}}}",
            w.workers,
            w.workloads,
            w.cold_misses,
            w.warm_misses,
            w.warm_disk_hits,
            w.store_bytes,
            w.failures,
        ));
    }
    if sections.is_empty() {
        out.push_str("  ]\n}\n");
    } else {
        out.push_str("  ],\n");
        out.push_str(&sections.join(",\n"));
        out.push_str("\n}\n");
    }
    out
}

/// Geometric mean helper used when summarising speedups.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values_is_that_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn table2_has_a_row_per_tool_plus_header() {
        assert_eq!(table2_tool_comparison().len(), 5);
    }

    #[test]
    fn backend_bench_json_is_well_formed() {
        let rows = [
            BackendBenchRow {
                name: "470.lbm",
                backend: BackendKind::NativeThreads,
                speedup: 6.5,
                cycles: 123,
                os_threads_used: 8,
                outputs_match: true,
            },
            BackendBenchRow {
                name: "433.milc",
                backend: BackendKind::NativeThreads,
                speedup: 0.75,
                cycles: 456,
                os_threads_used: 0,
                outputs_match: true,
            },
        ];
        let json = backend_bench_json(&rows, 8, None, None);
        assert!(json.contains("\"backend\": \"native\""));
        assert!(json.contains("\"threads\": 8"));
        assert!(json.contains("\"name\": \"470.lbm\""));
        assert!(json.contains("\"os_threads_used\": 8"));
        assert!(
            json.matches('{').count() == json.matches('}').count(),
            "balanced braces:\n{json}"
        );
        // Exactly one trailing comma between the two workload objects.
        assert_eq!(json.matches("},\n").count(), rows.len() - 1);

        // With the serving section appended the document stays well formed.
        let serve = ServeThroughputRow {
            backend: BackendKind::NativeThreads,
            workers: 4,
            jobs: 200,
            cache_hit_rate: 0.935,
            cache_misses: 13,
            failures: 0,
        };
        let json = backend_bench_json(&rows, 8, Some(&serve), None);
        assert!(json.contains("\"serve_throughput\""));
        assert!(json.contains("\"jobs\": 200"));
        assert!(json.contains("\"cache_hit_rate\": 0.935000"));
        assert!(
            json.matches('{').count() == json.matches('}').count(),
            "balanced braces:\n{json}"
        );

        // And with both serving sections present.
        let warm = ServeWarmStartRow {
            backend: BackendKind::NativeThreads,
            workers: 4,
            workloads: 13,
            cold_misses: 13,
            warm_misses: 0,
            warm_disk_hits: 13,
            store_bytes: 4096,
            failures: 0,
        };
        let json = backend_bench_json(&rows, 8, Some(&serve), Some(&warm));
        assert!(json.contains("\"serve_warm_start\""));
        assert!(json.contains("\"warm_misses\": 0"));
        assert!(json.contains("\"store_bytes\": 4096"));
        assert!(
            json.matches('{').count() == json.matches('}').count(),
            "balanced braces:\n{json}"
        );
    }

    #[test]
    fn serve_throughput_amortises_analysis_over_the_batch() {
        // A small batch keeps the smoke test quick; the 13 distinct binaries
        // each build once, every further job is a cache hit.
        let row = serve_throughput(BackendKind::from_env(), 4, 26);
        assert_eq!(row.jobs, 26);
        assert_eq!(row.failures, 0);
        assert_eq!(row.cache_misses, 13, "one analysis per distinct binary");
        assert!(
            (row.cache_hit_rate - 0.5).abs() < 1e-12,
            "13 of 26 amortised"
        );
    }

    #[test]
    fn histogram_percentiles_cross_check_against_exact_values() {
        // The log-bucketed histogram must bound the exact nearest-rank value
        // from above by strictly less than 2×.
        let samples: Vec<u64> = (1..=200u64)
            .map(|i| i * 7_000 + (i % 13) * 911) // skewed, non-uniform
            .collect();
        let hist = janus_obs::Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let stats = hist.latency_stats();
        for (q, estimate) in [
            (0.50, stats.p50_nanos),
            (0.90, stats.p90_nanos),
            (0.99, stats.p99_nanos),
        ] {
            // Exact nearest-rank: ceil(q*n), 1-based.
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            assert!(
                estimate >= exact,
                "p{q}: histogram {estimate} under-reports exact {exact}"
            );
            assert!(
                estimate < exact * 2,
                "p{q}: histogram {estimate} exceeds 2x exact {exact}"
            );
        }
        assert_eq!(stats.max_nanos, *sorted.last().unwrap(), "max is exact");
    }

    #[test]
    fn serve_trace_exports_a_valid_chrome_document() {
        let run = serve_trace(BackendKind::from_env(), 4);
        assert_eq!(run.stats.jobs_failed, 0);
        assert_eq!(run.stats.job_wall.count as usize, run.jobs);
        let doc = janus_obs::json::parse(&run.chrome_json).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents");
        for span in ["queue.wait", "cache.probe", "execute", "analysis"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(span)),
                "trace is missing {span:?} events"
            );
        }
    }

    #[test]
    fn serve_warm_start_replays_the_suite_with_zero_rebuilds() {
        let row = serve_warm_start(BackendKind::from_env(), 4);
        assert_eq!(row.failures, 0);
        assert_eq!(row.cold_misses, row.workloads as u64);
        assert_eq!(row.warm_misses, 0, "warm session must not rebuild");
        assert_eq!(row.warm_disk_hits, row.workloads as u64);
        assert!(row.store_bytes > 0, "the store persisted real entries");
    }

    #[test]
    fn fig7_on_the_two_headline_benchmarks_shows_the_paper_shape() {
        // lbm and libquantum are the paper's best performers: Janus beats the
        // statically-driven configuration, which beats DynamoRIO-only.
        for name in ["470.lbm", "462.libquantum"] {
            let binary = compile_ref(name, CompileOptions::gcc_o3());
            let backend = BackendKind::from_env();
            let dr = run_mode(&binary, backend, OptimisationMode::DynamoRioOnly, 8).speedup();
            let full = run_mode(&binary, backend, OptimisationMode::Full, 8).speedup();
            assert!(dr <= 1.05, "{name}: DBM alone must not speed up ({dr:.2})");
            assert!(full > 3.0, "{name}: Janus should scale well, got {full:.2}");
        }
    }

    #[test]
    fn table3_speculation_parallelises_may_dependent_workloads() {
        let rows = table3_speculation(BackendKind::from_env(), 8);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.outputs_match, "{}: speculative output diverged", r.name);
            assert!(r.iterations > 0, "{}: nothing ran speculatively", r.name);
            assert!(r.executions >= r.iterations, "{}", r.name);
        }
        // The acceptance bar: loops the seed serialises now go faster than
        // native, with abort accounting in the report.
        assert!(
            rows.iter().any(|r| r.speedup > 1.0),
            "at least one may-dependent workload must speed up: {rows:#?}"
        );
        // The sliding-window kernel conflicts inside the speculation window:
        // its abort counters must be non-trivial.
        let window = rows
            .iter()
            .find(|r| r.name == "spec.doacross-window")
            .unwrap();
        assert!(
            window.aborts > 0 && window.retries > 0,
            "distance-6 dependences under 8 lanes must abort: {window:?}"
        );
    }

    #[test]
    fn table1_reports_benchmarks_with_checks() {
        let t = table1_bounds_checks();
        assert!(t.iter().any(|(n, _)| *n == "459.GemsFDTD"));
        for (_, mean) in &t {
            assert!(*mean >= 1.0);
        }
    }
}
