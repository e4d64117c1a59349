//! janus-obs behaviour battery: histogram bucket edges / saturation /
//! shard merging, ring-buffer overflow accounting, and export validity
//! (both exporters parse as JSON; complete spans nest monotonically per
//! track).

use janus_obs::json::{self, Value};
use janus_obs::{bucket_index, bucket_upper_bound, Histogram, Recorder};

// ---------------------------------------------------------------------------
// Histogram bucket boundaries.

#[test]
fn bucket_index_hits_every_power_of_two_edge() {
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    for k in 1..64usize {
        let low = 1u64 << (k - 1);
        let high = (1u64 << k) - 1;
        assert_eq!(bucket_index(low), k, "lower edge of bucket {k}");
        assert_eq!(bucket_index(high), k, "upper edge of bucket {k}");
        if k < 63 {
            assert_eq!(bucket_index(high + 1), k + 1, "first value past bucket {k}");
        }
    }
    assert_eq!(bucket_index(u64::MAX), 64);
    assert_eq!(bucket_upper_bound(0), 0);
    assert_eq!(bucket_upper_bound(1), 1);
    assert_eq!(bucket_upper_bound(10), 1023);
    assert_eq!(bucket_upper_bound(64), u64::MAX);
}

#[test]
fn histogram_saturates_at_the_top_bucket_not_wraps() {
    let h = Histogram::new();
    h.record(u64::MAX);
    h.record(u64::MAX - 1);
    let snap = h.snapshot();
    assert_eq!(snap.count, 2);
    assert_eq!(snap.buckets[64], 2);
    assert_eq!(snap.max, u64::MAX);
    assert_eq!(snap.quantile(1.0), u64::MAX);
}

#[test]
fn quantile_is_never_below_exact_and_within_2x() {
    // A skewed sample set exercising several buckets.
    let samples: Vec<u64> = (0..200u64).map(|i| (i + 1) * (i + 1) * 17).collect();
    let h = Histogram::new();
    for &s in &samples {
        h.record(s);
    }
    let mut sorted = samples.clone();
    sorted.sort_unstable();
    let snap = h.snapshot();
    for &(q, label) in &[(0.50, "p50"), (0.90, "p90"), (0.99, "p99")] {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let est = snap.quantile(q);
        assert!(est >= exact, "{label}: estimate {est} below exact {exact}");
        assert!(
            est < exact.saturating_mul(2),
            "{label}: estimate {est} not within 2x of exact {exact}"
        );
    }
    assert_eq!(snap.quantile(1.0), *sorted.last().unwrap());
    let stats = snap.latency_stats();
    assert_eq!(stats.count, 200);
    assert_eq!(stats.max_nanos, *sorted.last().unwrap());
}

#[test]
fn empty_histogram_reports_zeros() {
    let snap = Histogram::new().snapshot();
    assert_eq!(snap.quantile(0.5), 0);
    assert_eq!(snap.latency_stats(), janus_obs::LatencyStats::default());
}

// ---------------------------------------------------------------------------
// Ring-buffer overflow: drops counted, never silent.

#[test]
fn ring_overflow_overwrites_oldest_and_counts_drops() {
    let rec = Recorder::with_capacity(8);
    // Single-threaded: everything lands in one shard of capacity 8.
    for _ in 0..13 {
        rec.instant("test", "tick", &[]);
    }
    assert_eq!(rec.len(), 8, "ring retains its capacity");
    assert_eq!(rec.dropped(), 5, "overflow is counted, not silent");
    assert_eq!(rec.len() as u64 + rec.dropped(), 13);
}

#[test]
fn disabled_recorder_is_inert() {
    let rec = Recorder::disabled();
    assert!(!rec.is_enabled());
    rec.instant("test", "tick", &[]);
    {
        let _g = rec.span("test", "span").arg("k", 1u64);
    }
    rec.async_span("test", "async", 0, 10, &[]);
    assert!(rec.is_empty());
    assert_eq!(rec.dropped(), 0);
    assert_eq!(rec.chrome_trace().matches("\"ph\":\"X\"").count(), 0);
}

#[test]
fn recorder_clones_share_one_sink() {
    let rec = Recorder::enabled();
    let clone = rec.clone();
    assert_eq!(rec, clone);
    clone.instant("test", "from-clone", &[]);
    assert_eq!(rec.len(), 1);
    assert_ne!(rec, Recorder::enabled());
    assert_eq!(Recorder::disabled(), Recorder::default());
}

// ---------------------------------------------------------------------------
// Export validity.

fn collect_x_events(trace: &Value) -> Vec<(u64, f64, f64, String)> {
    // (tid, ts_us, dur_us, name) for every complete span.
    trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| {
            (
                e.get("tid").and_then(Value::as_f64).expect("tid") as u64,
                e.get("ts").and_then(Value::as_f64).expect("ts"),
                e.get("dur").and_then(Value::as_f64).expect("dur"),
                e.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
            )
        })
        .collect()
}

/// Spans on one track must nest: sorted by start, each successive span is
/// either disjoint from or fully contained in every open ancestor.
fn assert_monotone_nesting(mut spans: Vec<(u64, f64, f64, String)>) {
    spans.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
    let mut stack: Vec<(u64, f64, f64)> = Vec::new();
    for (tid, ts, dur, name) in spans {
        while let Some(&(stid, _, send)) = stack.last() {
            if stid != tid || ts >= send {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(stid, sts, send)) = stack.last() {
            if stid == tid {
                assert!(
                    ts >= sts && ts + dur <= send + 1e-3,
                    "span {name:?} [{ts}, {}] escapes its parent [{sts}, {send}]",
                    ts + dur
                );
            }
        }
        stack.push((tid, ts, ts + dur));
    }
}

#[test]
fn chrome_trace_parses_and_spans_nest() {
    let rec = Recorder::enabled();
    rec.set_thread_track("main-track");
    for i in 0..3u64 {
        let _outer = rec.span("test", "outer").arg("round", i);
        std::thread::sleep(std::time::Duration::from_micros(50));
        {
            let _inner = rec
                .span("test", "inner")
                .arg("quote", "needs \"escaping\"\n");
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }
    let submit = rec.now_nanos();
    rec.async_span(
        "test",
        "queue.wait",
        submit,
        submit + 1000,
        &[("tenant", "default".into())],
    );
    rec.instant(
        "test",
        "marker",
        &[
            ("n", 7u64.into()),
            ("ok", true.into()),
            ("x", 1.5f64.into()),
            ("path", "a\\b\"c".into()),
        ],
    );

    let text = rec.chrome_trace();
    let trace = json::parse(&text).expect("chrome trace is valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    // Every argument type parses back to the value recorded.
    let marker = events
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("marker"))
        .and_then(|e| e.get("args"))
        .expect("the instant event and its args");
    assert_eq!(marker.get("n"), Some(&Value::Num(7.0)));
    assert_eq!(marker.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(marker.get("x").and_then(Value::as_f64), Some(1.5));
    assert_eq!(marker.get("path").and_then(Value::as_str), Some("a\\b\"c"));
    // Thread-name metadata present.
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(Value::as_str) == Some("M")
            && e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                == Some("main-track")
    }));
    // Async pair present and correlated.
    let begins: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("b"))
        .collect();
    let ends: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("e"))
        .collect();
    assert_eq!(begins.len(), 1);
    assert_eq!(ends.len(), 1);
    assert_eq!(
        begins[0].get("id").and_then(Value::as_str),
        ends[0].get("id").and_then(Value::as_str)
    );
    let spans = collect_x_events(&trace);
    assert_eq!(spans.len(), 6, "three outer + three inner complete spans");
    assert_monotone_nesting(spans);
}

#[test]
fn concurrent_recording_from_many_threads_is_complete_or_counted() {
    let rec = Recorder::with_capacity(64);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let rec = rec.clone();
            scope.spawn(move || {
                rec.set_thread_track(&format!("worker-{t}"));
                for i in 0..500u64 {
                    let _g = rec.span("test", "unit").arg("i", i);
                }
            });
        }
    });
    // Every event either resides in a ring or was counted as dropped.
    assert_eq!(rec.len() as u64 + rec.dropped(), 8 * 500);
    let trace = json::parse(&rec.chrome_trace()).expect("valid JSON under contention");
    assert_monotone_nesting(collect_x_events(&trace));
}

// ---------------------------------------------------------------------------
// json module edge cases (it validates all the exports above).

#[test]
fn json_parser_round_trips_escapes_and_rejects_garbage() {
    let v = json::parse(r#"{"a": [1, -2.5e3, true, null, "q\"\nA"]}"#).unwrap();
    let arr = v.get("a").and_then(Value::as_array).unwrap();
    assert_eq!(arr[0], Value::Num(1.0));
    assert_eq!(arr[1], Value::Num(-2500.0));
    assert_eq!(arr[4], Value::Str("q\"\nA".to_string()));
    assert!(json::parse("{\"a\": }").is_err());
    assert!(json::parse("[1, 2,]").is_err());
    assert!(json::parse("{} trailing").is_err());
    assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}
