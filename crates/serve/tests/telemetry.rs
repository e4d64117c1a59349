//! End-to-end telemetry battery: a real serving session with a live
//! telemetry endpoint on an ephemeral port, scraped over raw `TcpStream`s
//! (no HTTP client dependency — the wire format is part of the contract).
//!
//! Pins the acceptance bar of the observability PR:
//!
//! * `/metrics` is a parseable Prometheus exposition whose counters
//!   reconcile **exactly** with the session's own `ServeStats` snapshot
//!   (a session's registry is its own, so nothing else in the process can
//!   perturb the numbers);
//! * `/healthz` answers liveness, `/statusz` is valid JSON mirroring the
//!   stats and per-tenant queues, `/tracez` serves the Chrome trace when
//!   tracing is on and 404s when it is not;
//! * concurrent scrapes during a running batch never fail, wedge the
//!   session, or corrupt a response.

use janus_compile::{CompileOptions, Compiler};
use janus_core::{BackendKind, DbmConfig, Janus, JanusConfig};
use janus_ir::JBinary;
use janus_obs::metrics::{parse_exposition, Registry};
use janus_serve::{JobSpec, ServeConfig, ServeError, ServeSession};
use janus_workloads::workload;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn train_binary(name: &str) -> Arc<JBinary> {
    let w = workload(name).expect("known workload");
    Arc::new(
        Compiler::with_options(CompileOptions::gcc_o3())
            .compile(&w.train_program)
            .expect("workload compiles"),
    )
}

fn session_janus() -> Janus {
    Janus::with_config(JanusConfig {
        threads: 4,
        backend: BackendKind::from_env(),
        ..JanusConfig::default()
    })
}

/// One blocking HTTP/1.0 GET over a raw socket; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("telemetry endpoint accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: janus\r\n\r\n").expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line has a code")
        .parse()
        .expect("numeric status");
    let content_length: Option<usize> = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse().ok())?
    });
    if let Some(len) = content_length {
        assert_eq!(body.len(), len, "Content-Length matches the body");
    }
    (status, body.to_string())
}

#[test]
fn scraped_metrics_reconcile_exactly_with_serve_stats() {
    let binary = train_binary("429.mcf");
    let janus = session_janus();
    // A dedicated registry the test can also read in-process; every
    // counter below must match ServeStats to the digit.
    let registry = Registry::new();
    let handle = janus.serve(ServeConfig {
        workers: 2,
        metrics: Some(registry.clone()),
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        trace: janus_obs::Recorder::enabled(),
        ..ServeConfig::default()
    });
    let addr = handle.telemetry_addr().expect("endpoint is live");

    // A mixed multi-tenant batch: repeats (cache hits), two tenants, and a
    // generous deadline that every job will hit.
    for i in 0..6 {
        let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
        let job = JobSpec {
            deadline: Some(Duration::from_secs(600)),
            ..JobSpec::new(binary.clone()).with_tenant(tenant)
        };
        handle.submit(job).unwrap();
    }
    let outcomes = handle.join();
    assert_eq!(outcomes.len(), 6);
    assert!(outcomes.iter().all(|(_, r)| r.is_ok()));

    let stats = handle.stats();
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let doc = parse_exposition(&body).expect("exposition parses");

    let value = |name: &str| {
        doc.value(name, &[])
            .unwrap_or_else(|| panic!("series {name} present\n{body}"))
    };
    assert_eq!(value("janus_serve_jobs_submitted_total"), 6.0);
    assert_eq!(
        value("janus_serve_jobs_completed_total"),
        stats.jobs_completed as f64
    );
    assert_eq!(
        value("janus_serve_jobs_failed_total"),
        stats.jobs_failed as f64
    );
    assert_eq!(
        value("janus_serve_cache_hits_total"),
        stats.cache_hits as f64
    );
    assert_eq!(
        value("janus_serve_cache_misses_total"),
        stats.cache_misses as f64
    );
    assert_eq!(
        value("janus_serve_cache_inflight_waits_total"),
        stats.cache_inflight_waits as f64
    );
    assert_eq!(
        value("janus_serve_deadline_hit_total"),
        stats.jobs_deadline_hit as f64
    );
    assert_eq!(
        value("janus_serve_deadline_missed_total"),
        stats.jobs_deadline_missed as f64
    );
    assert_eq!(stats.jobs_deadline_hit, 6, "every deadline was generous");
    // The wall histogram saw exactly the successful completions.
    assert_eq!(
        value("janus_serve_job_wall_nanos_count"),
        (stats.jobs_completed - stats.jobs_failed) as f64
    );
    // Per-tenant families carry the tenant label.
    assert_eq!(
        doc.value("janus_serve_tenant_served_total", &[("tenant", "alpha")]),
        Some(3.0)
    );
    assert_eq!(
        doc.value("janus_serve_tenant_served_total", &[("tenant", "beta")]),
        Some(3.0)
    );
    // Gauges were refreshed by the scrape: the drained queue reads 0 and
    // the cache holds the one artifact.
    assert_eq!(value("janus_serve_queue_depth"), 0.0);
    assert_eq!(
        value("janus_serve_cache_entries"),
        stats.cache_entries as f64
    );
    // Process self-metrics ride along on the same page.
    assert!(value("janus_process_uptime_seconds") >= 0.0);
    assert!(doc.families.contains_key("janus_process_rss_bytes"));

    // /healthz: alive and unsaturated.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.starts_with("ok"), "healthy session: {body}");

    // /statusz: valid JSON whose counters mirror ServeStats and whose
    // tenant array carries both tenants' ledgers.
    let (status, body) = http_get(addr, "/statusz");
    assert_eq!(status, 200);
    let doc = janus_obs::json::parse(&body).expect("statusz is valid JSON");
    let jobs = doc.get("jobs").expect("jobs object");
    assert_eq!(
        jobs.get("completed").and_then(|v| v.as_f64()),
        Some(stats.jobs_completed as f64)
    );
    assert_eq!(
        jobs.get("deadline_hit").and_then(|v| v.as_f64()),
        Some(stats.jobs_deadline_hit as f64)
    );
    assert_eq!(
        doc.get("deadline_attainment").and_then(|v| v.as_f64()),
        Some(1.0)
    );
    let tenants = doc
        .get("tenants")
        .and_then(|v| v.as_array())
        .expect("tenants array");
    assert_eq!(tenants.len(), 2, "alpha and beta: {body}");
    let names: Vec<&str> = tenants
        .iter()
        .filter_map(|t| t.get("tenant")?.as_str())
        .collect();
    assert_eq!(names, ["alpha", "beta"], "sorted by tenant name");
    for t in tenants {
        assert_eq!(t.get("served").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(t.get("deadline_hit").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(t.get("pending").and_then(|v| v.as_f64()), Some(0.0));
    }

    // /tracez: the session was traced, so a Chrome trace comes back.
    let (status, body) = http_get(addr, "/tracez");
    assert_eq!(status, 200);
    let trace = janus_obs::json::parse(&body).expect("tracez is valid JSON");
    assert!(trace.get("traceEvents").is_some());

    // Unknown paths 404; the endpoint dies with the session.
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);
    let _ = handle.shutdown();
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A TIME_WAIT accept can still connect; a read must yield EOF.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let _ = write!(s, "GET /healthz HTTP/1.0\r\n\r\n");
            let mut buf = String::new();
            s.read_to_string(&mut buf).map(|n| n == 0).unwrap_or(true)
        },
        "endpoint stopped with the session"
    );
}

#[test]
fn default_sessions_keep_their_own_counters() {
    // Two default-config sessions (no `metrics`) in one process: each owns
    // its registry, so each scrape reconciles with that session's stats
    // alone, DBM run counts included.
    let binary = train_binary("429.mcf");
    let janus = session_janus();
    let sessions: Vec<_> = [2usize, 3]
        .into_iter()
        .map(|jobs| {
            let handle = janus.serve(ServeConfig {
                workers: 1,
                telemetry_addr: Some("127.0.0.1:0".to_string()),
                ..ServeConfig::default()
            });
            for _ in 0..jobs {
                handle.submit(JobSpec::new(binary.clone())).unwrap();
            }
            (handle, jobs)
        })
        .collect();
    for (handle, jobs) in &sessions {
        let outcomes = handle.join();
        assert_eq!(outcomes.len(), *jobs);
        assert!(outcomes.iter().all(|(_, r)| r.is_ok()));
    }
    for (handle, jobs) in &sessions {
        let stats = handle.stats();
        assert_eq!(stats.jobs_completed, *jobs as u64);
        let (status, body) = http_get(handle.telemetry_addr().unwrap(), "/metrics");
        assert_eq!(status, 200);
        let doc = parse_exposition(&body).expect("exposition parses");
        let value = |name: &str| {
            doc.value(name, &[])
                .unwrap_or_else(|| panic!("series {name} present\n{body}"))
        };
        assert_eq!(
            value("janus_serve_jobs_completed_total"),
            stats.jobs_completed as f64
        );
        assert_eq!(
            value("janus_serve_cache_misses_total"),
            stats.cache_misses as f64
        );
        assert_eq!(
            value("janus_serve_job_wall_nanos_count"),
            stats.job_wall.count as f64
        );
        let dbm_runs: f64 = doc
            .series("janus_dbm_runs_total")
            .iter()
            .map(|s| s.value)
            .sum();
        assert_eq!(
            dbm_runs, stats.jobs_completed as f64,
            "the DBM families count this session's runs alone"
        );
    }
}

#[test]
fn failed_executions_count_as_dbm_run_failures() {
    // Profiling runs under its own limit, so the job builds and then fails
    // in execution once the DBM's cycle limit is hit.
    let janus = Janus::with_config(JanusConfig {
        dbm: DbmConfig {
            cycle_limit: 1_000,
            ..DbmConfig::default()
        },
        ..JanusConfig::default()
    });
    let registry = Registry::new();
    let handle = janus.serve(ServeConfig {
        workers: 1,
        metrics: Some(registry.clone()),
        ..ServeConfig::default()
    });
    handle
        .submit(JobSpec::new(train_binary("470.lbm")).with_backend(BackendKind::NativeThreads))
        .unwrap();
    let outcomes = handle.join();
    assert!(matches!(outcomes[0].1, Err(ServeError::Execution(_))));
    let doc = parse_exposition(&registry.prometheus_text()).expect("exposition parses");
    let native = [("backend", "native")];
    assert_eq!(
        doc.value("janus_dbm_run_failures_total", &native),
        Some(1.0)
    );
    assert_eq!(doc.value("janus_dbm_runs_total", &native), Some(0.0));
    assert_eq!(
        doc.value("janus_dbm_run_failures_total", &[("backend", "virtual")]),
        Some(0.0)
    );
}

#[test]
fn untraced_sessions_answer_tracez_with_404() {
    let janus = session_janus();
    let handle = janus.serve(ServeConfig {
        workers: 1,
        metrics: Some(Registry::new()),
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    });
    let addr = handle.telemetry_addr().expect("endpoint is live");
    let (status, _) = http_get(addr, "/tracez");
    assert_eq!(status, 404);
    // Non-GET methods are refused, and the connection is answered (not
    // dropped) so clients see the verdict.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.0 405"), "{raw}");
}

#[test]
fn concurrent_scrapes_under_load_never_fail() {
    let binary = train_binary("470.lbm");
    let janus = session_janus();
    let handle = janus.serve(ServeConfig {
        workers: 2,
        metrics: Some(Registry::new()),
        telemetry_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    });
    let addr = handle.telemetry_addr().expect("endpoint is live");

    // Scrapers hammer every endpoint while jobs are being submitted and
    // executed; every response must be complete and well-formed.
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                for _ in 0..10 {
                    let (status, body) = http_get(addr, "/metrics");
                    assert_eq!(status, 200);
                    parse_exposition(&body).expect("mid-load exposition parses");
                    let (status, _) = http_get(addr, "/healthz");
                    assert_eq!(status, 200);
                    let (status, body) = http_get(addr, "/statusz");
                    assert_eq!(status, 200);
                    janus_obs::json::parse(&body).expect("mid-load statusz parses");
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..8 {
                handle.submit(JobSpec::new(binary.clone())).unwrap();
            }
        });
    });
    let outcomes = handle.join();
    assert_eq!(outcomes.len(), 8);
    assert!(outcomes.iter().all(|(_, r)| r.is_ok()));

    // After the dust settles the scrape agrees with the final stats.
    let stats = handle.stats();
    let (_, body) = http_get(addr, "/metrics");
    let doc = parse_exposition(&body).expect("final exposition parses");
    assert_eq!(
        doc.value("janus_serve_jobs_completed_total", &[]),
        Some(stats.jobs_completed as f64)
    );
}
