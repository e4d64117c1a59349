//! The flight recorder's one event exporter: Chrome trace-event JSON
//! (Perfetto-loadable). Prometheus text is the metrics registry's job ([`Registry::prometheus_text`](crate::metrics::Registry::prometheus_text)).

use crate::json::escape;
use crate::{ArgValue, Phase, Recorder};
use std::fmt::Write as _;

/// Microseconds (Chrome trace unit) with sub-microsecond precision.
fn micros(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1000.0)
}

fn json_value(v: &ArgValue) -> String {
    match v {
        ArgValue::U64(n) => n.to_string(),
        ArgValue::I64(n) => n.to_string(),
        ArgValue::F64(n) if n.is_finite() => format!("{n}"),
        ArgValue::F64(_) => "null".to_string(),
        ArgValue::Str(s) => format!("\"{}\"", escape(s)),
        ArgValue::Bool(b) => b.to_string(),
    }
}

fn json_args(args: &[(&'static str, ArgValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape(k), json_value(v));
    }
    out.push('}');
    out
}

impl Recorder {
    /// Renders every resident event as a Chrome trace-event JSON document
    /// (`{"traceEvents": [...]}`), loadable in Perfetto or
    /// `chrome://tracing`. Complete spans become `X` events on one track
    /// per recording thread (named via [`Recorder::set_thread_track`]);
    /// async intervals become `b`/`e` pairs so overlapping intervals —
    /// queue waits — do not break per-track nesting. Disabled recorders
    /// render an empty event list.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&line);
        };
        push(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"janus\"}}"
                .to_string(),
            &mut out,
        );
        for (tid, name) in self.tracks() {
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    escape(&name)
                ),
                &mut out,
            );
        }
        for e in self.events() {
            let common = format!(
                "\"pid\":1,\"tid\":{},\"ts\":{},\"cat\":\"{}\",\"name\":\"{}\"",
                e.tid,
                micros(e.ts_nanos),
                escape(e.cat),
                escape(&e.name),
            );
            let line = match &e.phase {
                Phase::Complete { dur_nanos } => format!(
                    "{{\"ph\":\"X\",{common},\"dur\":{},\"args\":{}}}",
                    micros(*dur_nanos),
                    json_args(&e.args)
                ),
                Phase::Instant => format!(
                    "{{\"ph\":\"i\",{common},\"s\":\"t\",\"args\":{}}}",
                    json_args(&e.args)
                ),
                Phase::AsyncBegin { id } => format!(
                    "{{\"ph\":\"b\",{common},\"id\":\"{id:#x}\",\"args\":{}}}",
                    json_args(&e.args)
                ),
                Phase::AsyncEnd { id } => {
                    format!("{{\"ph\":\"e\",{common},\"id\":\"{id:#x}\",\"args\":{{}}}}")
                }
            };
            push(line, &mut out);
        }
        out.push_str("\n]}\n");
        out
    }
}
