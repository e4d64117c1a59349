//! Serving mode: drive a mixed batch of guest invocations through a
//! `janus-serve` session and watch the content-addressed artifact cache
//! amortise analysis across jobs.
//!
//! The batch mixes a DOALL stencil (`470.lbm`), a bounds-checked pointer
//! kernel (`459.GemsFDTD`) and a may-dependent scatter (`spec.histogram`),
//! submits every binary several times — including per-job backend overrides,
//! so virtual-time and native-thread jobs interleave in one session — and
//! cross-checks each result against a serial run of the same cached
//! artifact.
//!
//! With `--store DIR` the session persists every artifact to a
//! content-addressed disk store in `DIR`; run the example twice against the
//! same directory and the second run serves every binary from disk with
//! zero pipeline rebuilds (`--expect-warm` asserts exactly that).
//!
//! With `--trace-out FILE` the session runs with the flight recorder
//! enabled and writes a Chrome trace-event JSON of the whole batch — per-job
//! queue-wait/cache-probe/execute spans, the pipeline's analysis/schedule
//! spans and per-worker tracks — loadable in Perfetto (`ui.perfetto.dev`)
//! or `chrome://tracing`.
//!
//! With `--telemetry ADDR` (e.g. `--telemetry 127.0.0.1:9184`) the session
//! serves live telemetry over HTTP while the batch runs: `GET /metrics`
//! (Prometheus exposition), `/healthz`, `/statusz` (JSON snapshot) and
//! `/tracez` (Chrome trace, when tracing is on). The example scrapes its
//! own `/metrics` once before shutdown and prints the bound address, so
//! `curl http://ADDR/metrics` works from another terminal mid-batch.
//!
//! Run with:
//! `cargo run --release --example serve -- [--backend virtual|native] [--threads N] [--store DIR [--expect-warm]] [--trace-out FILE] [--telemetry ADDR]`

use janus::core::{BackendKind, Janus, JanusConfig, PreparedDbm};
use janus::serve::{JobSpec, ServeConfig, ServeSession};
use janus::vm::Process;
use janus::workloads::workload;
use std::collections::HashMap;
use std::sync::Arc;

#[path = "util/flags.rs"]
mod flags;

const NAMES: [&str; 3] = ["470.lbm", "459.GemsFDTD", "spec.histogram"];
const JOBS_PER_BINARY: usize = 4;

/// The example's own flags on top of the shared `--backend`/`--threads`
/// parser (which ignores flags it does not know).
struct ServeFlags {
    store: Option<std::path::PathBuf>,
    expect_warm: bool,
    trace_out: Option<std::path::PathBuf>,
    telemetry: Option<String>,
}

/// Parses `--store DIR` / `--expect-warm` / `--trace-out FILE` /
/// `--telemetry ADDR`.
fn store_flags() -> ServeFlags {
    let mut flags = ServeFlags {
        store: None,
        expect_warm: false,
        trace_out: None,
        telemetry: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => {
                let dir = args.next().unwrap_or_else(|| {
                    eprintln!("--store expects a directory path");
                    std::process::exit(2);
                });
                flags.store = Some(std::path::PathBuf::from(dir));
            }
            "--expect-warm" => flags.expect_warm = true,
            "--trace-out" => {
                let file = args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out expects a file path");
                    std::process::exit(2);
                });
                flags.trace_out = Some(std::path::PathBuf::from(file));
            }
            "--telemetry" => {
                let addr = args.next().unwrap_or_else(|| {
                    eprintln!("--telemetry expects a bind address, e.g. 127.0.0.1:9184");
                    std::process::exit(2);
                });
                flags.telemetry = Some(addr);
            }
            _ => {}
        }
    }
    if flags.expect_warm && flags.store.is_none() {
        eprintln!("--expect-warm requires --store DIR");
        std::process::exit(2);
    }
    flags
}

fn main() {
    let (backend, threads) = flags::parse(4);
    let ServeFlags {
        store: store_dir,
        expect_warm,
        trace_out,
        telemetry,
    } = store_flags();
    let janus = Janus::with_config(JanusConfig {
        threads,
        backend,
        ..JanusConfig::default()
    });

    // Compile the mixed workload set once; the serving layer keys everything
    // else off each binary's content digest.
    let binaries: Vec<(&str, Arc<janus::ir::JBinary>)> = NAMES
        .iter()
        .map(|name| {
            let w = workload(name).expect("workload exists");
            let binary = janus::compile::Compiler::new()
                .compile(&w.train_program)
                .expect("compiles");
            (*name, Arc::new(binary))
        })
        .collect();

    // Serial references: the same cached-artifact path, one job at a time.
    let mut reference = HashMap::new();
    for (name, binary) in &binaries {
        let artifacts = janus.prepare(binary, &[]).expect("prepares");
        let prepared = PreparedDbm::new(
            Process::load(binary).expect("loads"),
            &artifacts.schedule,
            janus.dbm_config(),
        );
        let run = prepared.execute(&[]).expect("serial run succeeds");
        println!(
            "{name:<16} digest {:#018x}: {} selected loops, schedule {} bytes",
            binary.content_digest(),
            artifacts.selected_loops.len(),
            artifacts.schedule_size,
        );
        reference.insert(*name, run);
    }

    // The serving session: 4 workers, every binary submitted several times,
    // alternating the execution backend per job.
    let trace = if trace_out.is_some() {
        janus::obs::Recorder::enabled()
    } else {
        janus::obs::Recorder::default()
    };
    let handle = janus.serve(ServeConfig {
        workers: 4,
        store_dir: store_dir.clone(),
        trace: trace.clone(),
        telemetry_addr: telemetry.clone(),
        ..ServeConfig::default()
    });
    if let Some(addr) = handle.telemetry_addr() {
        println!("telemetry: http://{addr}/metrics (also /healthz /statusz /tracez)");
    }
    // One spec per binary (the content digest is computed once in
    // `JobSpec::new`), cloned per submission with its per-job override.
    let specs: Vec<(&str, JobSpec)> = binaries
        .iter()
        .map(|(name, binary)| (*name, JobSpec::new(binary.clone())))
        .collect();
    let mut submitted = Vec::new();
    for round in 0..JOBS_PER_BINARY {
        for (i, (name, spec)) in specs.iter().enumerate() {
            let job_backend = if (round + i) % 2 == 0 {
                BackendKind::VirtualTime
            } else {
                BackendKind::NativeThreads
            };
            let id = handle
                .submit(spec.clone().with_backend(job_backend))
                .expect("queue has room for the batch");
            submitted.push((id, *name));
        }
    }

    let outcomes = handle.join();
    let mut matches = 0;
    for ((id, outcome), (_, name)) in outcomes.iter().zip(&submitted) {
        let report = outcome.as_ref().expect("job succeeds");
        let expect = &reference[name];
        assert_eq!(report.memory_digest, expect.memory_digest, "{id} {name}");
        assert_eq!(report.output_ints, expect.output_ints, "{id} {name}");
        assert_eq!(report.output_floats, expect.output_floats, "{id} {name}");
        matches += 1;
    }

    // With telemetry on, scrape our own /metrics once before shutdown and
    // check it: the page parses and counts this session's batch exactly,
    // in the serving counters and in the DBM's run counters alike (the
    // serial reference runs above were made outside the session).
    if let Some(addr) = handle.telemetry_addr() {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("telemetry endpoint accepts");
        write!(stream, "GET /metrics HTTP/1.0\r\nHost: janus\r\n\r\n").expect("request writes");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("response reads");
        assert!(raw.starts_with("HTTP/1.0 200"), "scrape succeeds: {raw}");
        let (_, body) = raw.split_once("\r\n\r\n").expect("response has a body");
        let doc = janus::obs::metrics::parse_exposition(body).expect("exposition parses");
        assert_eq!(
            doc.value("janus_serve_jobs_completed_total", &[]),
            Some(outcomes.len() as f64),
            "the scrape counts this session's batch"
        );
        let dbm_runs: f64 = doc
            .series("janus_dbm_runs_total")
            .iter()
            .map(|s| s.value)
            .sum();
        assert_eq!(
            dbm_runs,
            outcomes.len() as f64,
            "the DBM families count this session's runs alone"
        );
        println!(
            "telemetry: scraped /metrics — {} series, {} jobs completed",
            doc.samples.len(),
            outcomes.len()
        );
    }

    let stats = handle.shutdown();
    println!(
        "\n{} jobs over {} binaries: all {} match their serial runs",
        outcomes.len(),
        binaries.len(),
        matches
    );
    println!(
        "cache: {} analyses, {} hits + {} in-flight waits ({:.0}% amortised), {} resident",
        stats.cache_misses,
        stats.cache_hits,
        stats.cache_inflight_waits,
        stats.cache_hit_rate() * 100.0,
        stats.cache_entries,
    );
    println!(
        "jobs: {} submitted, {} completed, {} failed, {} rejected, peak in-flight {}",
        stats.jobs_submitted,
        stats.jobs_completed,
        stats.jobs_failed,
        stats.jobs_rejected,
        stats.max_in_flight_seen,
    );
    if let Some(dir) = &store_dir {
        println!(
            "store {}: {} entries, {} disk hits, {} disk misses, {} corrupt",
            dir.display(),
            stats.disk_entries,
            stats.disk_hits,
            stats.disk_misses,
            stats.disk_corrupt,
        );
    }
    println!(
        "latency: queue-wait p50 {:.6}s p99 {:.6}s, execute p50 {:.6}s, job p50 {:.6}s p99 {:.6}s",
        stats.job_queue_wait.p50_seconds(),
        stats.job_queue_wait.p99_seconds(),
        stats.job_execute.p50_seconds(),
        stats.job_wall.p50_seconds(),
        stats.job_wall.p99_seconds(),
    );
    if let Some(path) = &trace_out {
        let json = trace.chrome_trace();
        // Self-check before writing: the export must be valid JSON and
        // carry the serving spans a reader will look for.
        let doc = janus::obs::json::parse(&json).expect("chrome trace is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        for span in ["queue.wait", "cache.probe", "execute", "analysis"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(span)),
                "trace is missing {span:?} events"
            );
        }
        std::fs::write(path, &json).expect("write chrome trace");
        println!(
            "trace: {} events ({} dropped) -> {} (load in ui.perfetto.dev)",
            trace.len(),
            trace.dropped(),
            path.display(),
        );
    }
    if expect_warm {
        // A warm start over a populated store dir rebuilds nothing: every
        // artifact is deserialised from disk, no analysis runs.
        assert_eq!(stats.cache_misses, 0, "warm start must not rebuild");
        assert_eq!(stats.disk_hits, binaries.len() as u64);
        println!("warm start verified: 0 analyses, all artifacts from disk");
    } else {
        assert_eq!(stats.cache_misses, binaries.len() as u64);
    }
    assert_eq!(stats.disk_corrupt, 0);
    assert_eq!(stats.jobs_failed, 0);
}
