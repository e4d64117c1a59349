//! Regenerates every table and figure of the paper's evaluation and prints
//! them as text tables, plus a machine-readable per-backend benchmark.
//!
//! Usage:
//! `cargo run --release -p janus-bench --bin figures -- \
//!     [fig6|fig7|...|table3|bench-json|trace|all] [--backend virtual|native] [--threads N]`
//!
//! `--backend` selects the execution backend for every figure; it defaults
//! to `JANUS_BACKEND` (or virtual time) and is threaded explicitly through
//! every figure function — the process environment is never mutated.
//! Modelled cycles — and therefore every printed figure — are identical
//! across backends, so the flag matters for which runtime is exercised and
//! for `bench-json`, which writes `BENCH_<backend>.json` with per-workload
//! speedup and cycles. `--threads` controls the thread-scaling figures
//! (default 8). `fuzz [--cases N] [--seed S]` runs the differential
//! guest-program fuzzer (see `janus_bench::fuzz`) instead of a figure.

use janus_bench as bench;
use janus_core::BackendKind;

/// A named figure renderer taking the execution backend and thread count.
type Figure = (&'static str, fn(BackendKind, u32));

const FIGURES: [Figure; 12] = [
    ("fig6", |_, _| fig6()),
    ("fig7", fig7),
    ("fig8", |backend, _| fig8(backend)),
    ("fig9", fig9),
    ("fig10", |backend, _| fig10(backend)),
    ("fig11", fig11),
    ("fig12", fig12),
    ("table1", |_, _| table1()),
    ("table2", |_, _| table2()),
    ("table3", table3),
    ("bench-json", bench_json),
    ("trace", |backend, _| trace(backend)),
];

fn usage() -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    eprintln!(
        "usage: figures [{} | fuzz | all] [--backend virtual|native] \
         [--threads N] [--cases N] [--seed S]\n       \
         figures bench-diff BASELINE.json NEW.json",
        names.join(" | ")
    );
    std::process::exit(2);
}

fn main() {
    let mut positionals: Vec<String> = Vec::new();
    let mut threads: u32 = 8;
    // The backend is threaded explicitly through every figure function
    // (never written back into the environment); the flag overrides the
    // JANUS_BACKEND default.
    let mut backend = BackendKind::from_env();
    let mut cases: usize = 256;
    let mut seed: u64 = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => {
                let value = args.next().unwrap_or_else(|| usage());
                let Some(kind) = BackendKind::parse(&value) else {
                    eprintln!("unknown backend {value:?}; expected virtual or native");
                    std::process::exit(2);
                };
                backend = kind;
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|t| *t > 0)
                    .unwrap_or_else(|| usage());
            }
            "--cases" => {
                cases = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|c| *c > 0)
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            name if !name.starts_with('-') => {
                positionals.push(name.to_string());
            }
            _ => usage(),
        }
    }
    let which = positionals
        .first()
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    if which == "bench-diff" {
        let [_, baseline, fresh] = positionals.as_slice() else {
            usage();
        };
        bench_diff(baseline, fresh);
        return;
    }
    if positionals.len() > 1 {
        usage();
    }
    if which == "fuzz" {
        fuzz(cases, seed);
        return;
    }
    if which == "all" {
        for (name, run) in FIGURES {
            // `bench-json` and `trace` are export commands (they write
            // files); keep the default figure sweep a pure print.
            if name != "bench-json" && name != "trace" {
                run(backend, threads);
            }
        }
        return;
    }
    match FIGURES.iter().find(|(name, _)| *name == which) {
        Some((_, run)) => run(backend, threads),
        None => usage(),
    }
}

/// The regression sentinel: diff a fresh `BENCH_<backend>.json` against the
/// committed baseline, failing (exit 1) when any leaf changed or went
/// missing. See `janus_bench::diff`.
fn bench_diff(baseline: &str, fresh: &str) {
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench-diff: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let old = read(baseline);
    let new = read(fresh);
    let diff = match bench::diff::diff_bench_json(&old, &new) {
        Ok(diff) => diff,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "bench-diff: {baseline} vs {fresh}: {} metrics compared exactly",
        diff.compared
    );
    if diff.passed() {
        println!("bench-diff: PASS");
        return;
    }
    for failure in &diff.failures {
        eprintln!("  FAIL: {failure}");
    }
    eprintln!("bench-diff: {} regression(s)", diff.failures.len());
    std::process::exit(1);
}

/// The differential guest-program fuzzer: `cases` generated programs from
/// `seed`, each checked across the whole (backend × threads × commit mode ×
/// adaptive) equivalence matrix. Both backends are always exercised —
/// `--backend` does not apply here.
fn fuzz(cases: usize, seed: u64) {
    println!("=== Differential fuzz: {cases} generated programs, seed {seed} ===");
    let report = bench::fuzz::run_differential_fuzz(cases, seed);
    println!("{}", report.summary());
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
}

fn bench_json(backend: BackendKind, threads: u32) {
    let rows = bench::backend_bench(backend, threads);
    // The serving figure: a mixed 200-job batch over the whole suite through
    // a 4-worker `janus-serve` session — one analysis per distinct binary.
    let serve = bench::serve_throughput(backend, 4, 200);
    // The warm-vs-cold serve figure: the suite served against an empty
    // artifact store, then again by a restarted session over the populated
    // one — persistence's restart payoff (zero rebuilds) on record.
    let warm = bench::serve_warm_start(backend, 4);
    let json = bench::backend_bench_json(&rows, threads, Some(&serve), Some(&warm));
    let path = format!("BENCH_{}.json", backend.label());
    std::fs::write(&path, &json).expect("write benchmark json");
    println!(
        "\n=== Backend benchmark ({} backend, {} threads) -> {} ===",
        backend.label(),
        threads,
        path
    );
    println!(
        "{:<22} {:>9} {:>14} {:>10} {:>6}",
        "workload", "speedup", "cycles", "threads", "match"
    );
    for r in &rows {
        println!(
            "{:<22} {:>9.2} {:>14} {:>10} {:>6}",
            r.name,
            r.speedup,
            r.cycles,
            r.os_threads_used,
            if r.outputs_match { "yes" } else { "NO" },
        );
    }
    println!(
        "serve-throughput: {} jobs / {} workers: hit rate {:.1}%, {} analyses, {} failures",
        serve.jobs,
        serve.workers,
        serve.cache_hit_rate * 100.0,
        serve.cache_misses,
        serve.failures,
    );
    println!(
        "serve-warm-start: {} workloads: cold {} analyses -> \
         warm {} analyses, {} disk hits, store {} bytes",
        warm.workloads, warm.cold_misses, warm.warm_misses, warm.warm_disk_hits, warm.store_bytes,
    );
}

fn trace(backend: BackendKind) {
    let run = bench::serve_trace(backend, 4);
    let path = format!("TRACE_{}.json", backend.label());
    std::fs::write(&path, &run.chrome_json).expect("write chrome trace");
    println!(
        "\n=== Flight recorder: {} jobs / {} workers ({} backend) -> {} ===",
        run.jobs,
        run.workers,
        backend.label(),
        path
    );
    println!(
        "events: {} captured, {} dropped; load the file in ui.perfetto.dev",
        run.events, run.dropped
    );
    println!(
        "{:<14} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "stage", "count", "p50 (s)", "p90 (s)", "p99 (s)", "max (s)"
    );
    for (stage, s) in [
        ("queue-wait", run.stats.job_queue_wait),
        ("execute", run.stats.job_execute),
        ("job-wall", run.stats.job_wall),
    ] {
        println!(
            "{:<14} {:>6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            stage,
            s.count,
            s.p50_seconds(),
            s.p90_seconds(),
            s.p99_seconds(),
            s.max_seconds(),
        );
    }
}

fn fig6() {
    println!("\n=== Figure 6: loop classification (static % | execution-time %) ===");
    println!(
        "{:<16} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}   {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "benchmark", "A", "B", "C", "D", "spec", "inc", "A", "B", "C", "D", "spec", "inc"
    );
    for row in bench::fig6_loop_classification() {
        let s = row.static_fraction;
        let t = row.time_fraction;
        println!(
            "{:<16} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%   {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            row.name,
            s[0] * 100.0, s[1] * 100.0, s[2] * 100.0, s[3] * 100.0, s[4] * 100.0, s[5] * 100.0,
            t[0] * 100.0, t[1] * 100.0, t[2] * 100.0, t[3] * 100.0, t[4] * 100.0, t[5] * 100.0
        );
    }
}

fn fig7(backend: BackendKind, threads: u32) {
    println!("\n=== Figure 7: whole-program speedup, {threads} threads ===");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "DynamoRIO", "Static", "+Profile", "Janus"
    );
    let rows = bench::fig7_speedup(backend, threads);
    for r in &rows {
        println!(
            "{:<16} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            r.name, r.dynamorio, r.statically_driven, r.with_profile, r.janus
        );
    }
    println!(
        "{:<16} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
        "geomean",
        bench::geomean(&rows.iter().map(|r| r.dynamorio).collect::<Vec<_>>()),
        bench::geomean(&rows.iter().map(|r| r.statically_driven).collect::<Vec<_>>()),
        bench::geomean(&rows.iter().map(|r| r.with_profile).collect::<Vec<_>>()),
        bench::geomean(&rows.iter().map(|r| r.janus).collect::<Vec<_>>()),
    );
}

fn fig8(backend: BackendKind) {
    println!("\n=== Figure 8: execution-time breakdown (fractions) ===");
    println!(
        "{:<16} {:>3}  {:>10} {:>10} {:>12} {:>12} {:>10}",
        "benchmark", "T", "sequential", "parallel", "init/finish", "translation", "checks"
    );
    for row in bench::fig8_breakdown(backend) {
        let f = row.fractions;
        println!(
            "{:<16} {:>3}  {:>9.1}% {:>9.1}% {:>11.1}% {:>11.1}% {:>9.1}%",
            row.name,
            row.threads,
            f[0] * 100.0,
            f[1] * 100.0,
            f[2] * 100.0,
            f[3] * 100.0,
            f[4] * 100.0
        );
    }
}

fn fig9(backend: BackendKind, threads: u32) {
    println!("\n=== Figure 9: speedup vs number of threads ===");
    print!("{:<16}", "benchmark");
    for t in 1..=threads {
        print!(" {:>6}", format!("{t}T"));
    }
    println!();
    for (name, series) in bench::fig9_scaling(backend, threads) {
        print!("{name:<16}");
        for (_, s) in series {
            print!(" {s:>6.2}");
        }
        println!();
    }
}

fn fig10(backend: BackendKind) {
    println!("\n=== Figure 10: rewrite-schedule size (% of binary size) ===");
    let rows = bench::fig10_schedule_size(backend);
    for (name, pct) in &rows {
        println!("{name:<16} {pct:>6.2}%");
    }
    println!(
        "{:<16} {:>6.2}%",
        "geomean",
        bench::geomean(&rows.iter().map(|(_, p)| *p).collect::<Vec<_>>())
    );
}

fn fig11(backend: BackendKind, threads: u32) {
    println!("\n=== Figure 11: Janus vs compiler auto-parallelisation ({threads} threads) ===");
    println!(
        "{:<16} {:>12} {:>14} {:>12} {:>14}",
        "benchmark", "gcc -parallel", "Janus on gcc", "icc -parallel", "Janus on icc"
    );
    let rows = bench::fig11_compiler_comparison(backend, threads);
    for r in &rows {
        println!(
            "{:<16} {:>12.2} {:>14.2} {:>12.2} {:>14.2}",
            r.name, r.gcc_parallel, r.janus_on_gcc, r.icc_parallel, r.janus_on_icc
        );
    }
    println!(
        "{:<16} {:>12.2} {:>14.2} {:>12.2} {:>14.2}",
        "geomean",
        bench::geomean(&rows.iter().map(|r| r.gcc_parallel).collect::<Vec<_>>()),
        bench::geomean(&rows.iter().map(|r| r.janus_on_gcc).collect::<Vec<_>>()),
        bench::geomean(&rows.iter().map(|r| r.icc_parallel).collect::<Vec<_>>()),
        bench::geomean(&rows.iter().map(|r| r.janus_on_icc).collect::<Vec<_>>()),
    );
}

fn fig12(backend: BackendKind, threads: u32) {
    println!("\n=== Figure 12: Janus speedup by compiler optimisation level ===");
    println!(
        "{:<16} {:>8} {:>8} {:>10}",
        "benchmark", "-O2", "-O3", "-O3 -mavx"
    );
    let rows = bench::fig12_opt_levels(backend, threads);
    for (name, s) in &rows {
        println!("{:<16} {:>8.2} {:>8.2} {:>10.2}", name, s[0], s[1], s[2]);
    }
    for (i, label) in ["-O2", "-O3", "-O3 -mavx"].iter().enumerate() {
        let g = bench::geomean(&rows.iter().map(|(_, s)| s[i]).collect::<Vec<_>>());
        println!("geomean {label:<10} {g:>8.2}");
    }
}

fn table1() {
    println!("\n=== Table I: mean array-bounds checks per loop requiring them ===");
    for (name, mean) in bench::table1_bounds_checks() {
        println!("{name:<16} {mean:>6.1}");
    }
}

fn table3(backend: BackendKind, threads: u32) {
    println!("\n=== Table III: speculative DOACROSS execution ({threads} threads) ===");
    println!(
        "{:<22} {:>10} {:>10} {:>8} {:>8} {:>8} {:>10} {:>9} {:>6}",
        "workload",
        "iters",
        "execs",
        "aborts",
        "retries",
        "abort%",
        "stm.abrts",
        "speedup",
        "match"
    );
    for r in bench::table3_speculation(backend, threads) {
        println!(
            "{:<22} {:>10} {:>10} {:>8} {:>8} {:>7.1}% {:>10} {:>9.2} {:>6}",
            r.name,
            r.iterations,
            r.executions,
            r.aborts,
            r.retries,
            r.abort_rate * 100.0,
            r.stm_aborts,
            r.speedup,
            if r.outputs_match { "yes" } else { "NO" },
        );
    }
}

fn table2() {
    println!("\n=== Table II: binary parallelisation tools (qualitative) ===");
    for row in bench::table2_tool_comparison() {
        println!(
            "{:<22} {:<26} {:<12} {:<22} {:<15} {:<17} {}",
            row[0], row[1], row[2], row[3], row[4], row[5], row[6]
        );
    }
}
