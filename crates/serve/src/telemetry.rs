//! The live telemetry endpoint: a dependency-free HTTP/1.0 server bound to
//! [`ServeConfig::telemetry_addr`](crate::ServeConfig::telemetry_addr),
//! answering operator scrapes for the lifetime of the serving session.
//!
//! # Endpoints
//!
//! | Path        | Content          | Body                                        |
//! |-------------|------------------|---------------------------------------------|
//! | `/metrics`  | `text/plain`     | Prometheus exposition of the session's registry: its jobs' DBM counters, plus process self-metrics refreshed per scrape |
//! | `/healthz`  | `text/plain`     | Liveness plus a saturation verdict (`503` once shutdown begins) |
//! | `/statusz`  | `application/json` | Snapshot of [`ServeStats`](crate::ServeStats), per-tenant queues, SLO attainment and store occupancy |
//! | `/tracez`   | `application/json` | Chrome trace of the session's flight recorder (`404` when tracing is disabled) |
//!
//! # Design
//!
//! The server is deliberately minimal: one `std::net::TcpListener`, one
//! accept thread, HTTP/1.0 with `Connection: close` — no keep-alive, no
//! chunking, no dependencies. Every response is rendered from a coherent
//! point-in-time snapshot; gauges (queue depth, occupancy) are re-sampled
//! from their sources of truth on each scrape, so the hot path never
//! maintains a gauge. Shutdown is graceful and bounded: the handle sets a
//! stop flag and pokes the listener with a self-connection so the accept
//! loop observes it immediately.

use crate::executor::Shared;
use janus_obs::metrics::ProcessMetrics;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection I/O budget: a scraper that stalls past this is dropped so
/// one bad client cannot wedge the accept loop.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Upper bound on accepted request bytes (method + path + headers); scrape
/// requests are tiny, anything larger is noise.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// The running telemetry listener of one serving session. Owned by the
/// session's `ServeHandle`; dropping it (or the handle) stops the thread.
pub(crate) struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl TelemetryServer {
    /// Binds `addr` and spawns the accept thread. Process self-metrics
    /// (uptime, RSS, thread count) are registered into the session's
    /// registry here and refreshed on every `/metrics` scrape.
    pub(crate) fn start(addr: &str, shared: Arc<Shared>) -> Result<TelemetryServer, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let process = ProcessMetrics::register(&shared.meter().registry);
        let thread = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("janus-telemetry".to_string())
                .spawn(move || accept_loop(&listener, &shared, &stop, &process))
                .map_err(|e| format!("spawn telemetry thread: {e}"))?
        };
        Ok(TelemetryServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves `"host:0"` to the ephemeral port).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept thread and joins it.
    pub(crate) fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop may be blocked in accept(); a throwaway
        // self-connection wakes it so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Shared,
    stop: &AtomicBool,
    process: &ProcessMetrics,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        // Scrapes are cheap (a snapshot and a render); handling them inline
        // on the accept thread keeps the server single-threaded and bounds
        // concurrent snapshot work to one scrape at a time.
        let response = match read_request_path(&mut stream) {
            Ok(Some(path)) => route(&path, shared, process),
            Ok(None) => Response::text(405, "method not allowed\n"),
            Err(_) => Response::text(400, "bad request\n"),
        };
        let _ = response.write_to(&mut stream);
    }
}

/// Reads the request head and returns the path of a GET request (`None`
/// for other methods). Errors on malformed or oversized requests.
fn read_request_path(stream: &mut TcpStream) -> Result<Option<String>, ()> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    while !head_complete(&buf) {
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(()),
        }
    }
    let head = std::str::from_utf8(&buf).map_err(|_| ())?;
    let request_line = head.lines().next().ok_or(())?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(())?;
    let target = parts.next().ok_or(())?;
    if method != "GET" {
        return Ok(None);
    }
    // Ignore any query string: `/metrics?format=x` routes as `/metrics`.
    let path = target.split('?').next().unwrap_or(target);
    Ok(Some(path.to_string()))
}

/// Whether `buf` holds a complete request head (blank line seen). A bare
/// request line followed by EOF also completes via the `Ok(0)` arm above.
fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

/// One rendered HTTP response.
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        let head = format!(
            "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

fn route(path: &str, shared: &Shared, process: &ProcessMetrics) -> Response {
    match path {
        "/metrics" => metrics_response(shared, process),
        "/healthz" => healthz_response(shared),
        "/statusz" => statusz_response(shared),
        "/tracez" => tracez_response(shared),
        _ => Response::text(404, "not found; try /metrics /healthz /statusz /tracez\n"),
    }
}

/// `/metrics`: the Prometheus exposition of the session's registry, with
/// the point-in-time gauges (queue depth, occupancy, process self-metrics)
/// re-sampled first so every scrape is current.
fn metrics_response(shared: &Shared, process: &ProcessMetrics) -> Response {
    shared.refresh_gauges();
    process.refresh();
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: shared.meter().registry.prometheus_text(),
    }
}

/// `/healthz`: liveness plus a saturation verdict. `503` once shutdown has
/// begun (the session no longer accepts work); `200` otherwise, with the
/// verdict and the in-flight/limit numbers in the body for humans.
fn healthz_response(shared: &Shared) -> Response {
    if shared.is_stopping() {
        return Response::text(503, "stopping\n");
    }
    let stats = shared.stats_snapshot();
    let in_flight = stats.jobs_pending + stats.jobs_running;
    let limit = shared.serve_config().effective_max_in_flight() as u64;
    let saturated =
        stats.jobs_pending >= shared.serve_config().queue_depth as u64 || in_flight >= limit;
    let verdict = if saturated { "saturated" } else { "ok" };
    Response::text(
        200,
        format!("{verdict}\nin_flight: {in_flight}\nlimit: {limit}\npending: {pending}\nqueue_depth: {depth}\n",
            pending = stats.jobs_pending,
            depth = shared.serve_config().queue_depth),
    )
}

/// `/statusz`: a JSON snapshot of the session — [`crate::ServeStats`]
/// field-for-field, latency quantiles, deadline SLO attainment, per-tenant
/// queues and accounts, and store occupancy. Hand-rendered (and validated
/// round-trip by `janus_obs::json` in the tests); key order is stable.
fn statusz_response(shared: &Shared) -> Response {
    let stats = shared.stats_snapshot();
    let tenants = shared.tenant_snapshots();
    let config = shared.serve_config();
    let mut body = String::with_capacity(2048);
    body.push_str("{\n");
    body.push_str(&format!(
        "  \"workers\": {},\n  \"queue_depth\": {},\n  \"max_in_flight\": {},\n",
        config.workers,
        config.queue_depth,
        config.effective_max_in_flight()
    ));
    body.push_str("  \"jobs\": {\n");
    let jobs: &[(&str, u64)] = &[
        ("submitted", stats.jobs_submitted),
        ("completed", stats.jobs_completed),
        ("failed", stats.jobs_failed),
        ("rejected_saturated", stats.jobs_rejected),
        ("rejected_deadline", stats.jobs_deadline_rejected),
        ("rejected_quota", stats.jobs_quota_rejected),
        ("deadline_hit", stats.jobs_deadline_hit),
        ("deadline_missed", stats.jobs_deadline_missed),
        ("pending", stats.jobs_pending),
        ("running", stats.jobs_running),
        ("max_in_flight_seen", stats.max_in_flight_seen),
    ];
    push_fields(&mut body, "    ", jobs);
    body.push_str("  },\n");
    body.push_str(&format!(
        "  \"deadline_attainment\": {},\n",
        stats
            .deadline_attainment()
            .map_or_else(|| "null".to_string(), |f| format!("{f:.6}"))
    ));
    body.push_str("  \"cache\": {\n");
    let cache: &[(&str, u64)] = &[
        ("hits", stats.cache_hits),
        ("misses", stats.cache_misses),
        ("inflight_waits", stats.cache_inflight_waits),
        ("evictions", stats.cache_evictions),
        ("entries", stats.cache_entries),
    ];
    push_fields(&mut body, "    ", cache);
    body.push_str("  },\n");
    body.push_str("  \"store\": {\n");
    let store: &[(&str, u64)] = &[
        ("hits", stats.disk_hits),
        ("misses", stats.disk_misses),
        ("corrupt", stats.disk_corrupt),
        ("evicted_bytes", stats.disk_evicted_bytes),
        ("entries", stats.disk_entries),
        ("bytes", shared.disk_store_bytes()),
    ];
    push_fields(&mut body, "    ", store);
    body.push_str("  },\n");
    body.push_str("  \"latency_nanos\": {\n");
    for (i, (name, l)) in [
        ("job_wall", stats.job_wall),
        ("queue_wait", stats.job_queue_wait),
        ("execute", stats.job_execute),
    ]
    .iter()
    .enumerate()
    {
        body.push_str(&format!(
            "    \"{name}\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}{}\n",
            l.count,
            l.p50_nanos,
            l.p90_nanos,
            l.p99_nanos,
            l.max_nanos,
            if i < 2 { "," } else { "" }
        ));
    }
    body.push_str("  },\n");
    body.push_str("  \"tenants\": [\n");
    for (i, t) in tenants.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"tenant\": \"{}\", \"pending\": {}, \"deficit\": {}, \"quantum\": {}, \"served\": {}, \"deadline_hit\": {}, \"deadline_missed\": {}}}{}\n",
            janus_obs::json::escape(&t.tenant),
            t.pending,
            t.deficit,
            t.quantum,
            t.served,
            t.deadline_hit,
            t.deadline_missed,
            if i + 1 < tenants.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    Response::json(200, body)
}

/// Appends `"key": value,` lines (the last without the comma).
fn push_fields(body: &mut String, indent: &str, fields: &[(&str, u64)]) {
    for (i, (key, value)) in fields.iter().enumerate() {
        body.push_str(&format!(
            "{indent}\"{key}\": {value}{}\n",
            if i + 1 < fields.len() { "," } else { "" }
        ));
    }
}

/// `/tracez`: the flight recorder's Chrome trace, when tracing is on.
fn tracez_response(shared: &Shared) -> Response {
    if !shared.recorder().is_enabled() {
        return Response::text(
            404,
            "tracing disabled; configure ServeConfig::trace with an enabled Recorder\n",
        );
    }
    Response::json(200, shared.recorder().chrome_trace())
}
