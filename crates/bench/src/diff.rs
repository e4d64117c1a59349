//! The benchmark regression sentinel: a structural diff of two
//! `BENCH_<backend>.json` documents (`figures bench-diff OLD NEW`), used in
//! CI to gate merges against the committed per-backend baselines.
//!
//! Every leaf of the document is a modelled or counted quantity — cycles,
//! speedups over modelled cycles, cache and disk counters, configuration
//! echoes — so two runs of one commit agree on all of them and every leaf
//! must match **exactly**: any drift means the guest computed something
//! different, the cost model moved or the caching contract changed. Host
//! wall time is not in the document; it is measured by the ledger
//! (`benchmark/`) alone.
//!
//! Leaves are addressed by path, not position, so the diff survives
//! reordering. A leaf present in the baseline but missing from the new run
//! fails (silently dropping a measurement is how regressions hide); leaves
//! new in the new run are ignored so adding sections never requires a
//! lock-step baseline refresh.

use janus_obs::json::{self, Value};

/// The outcome of one bench-diff run.
#[derive(Debug, Default)]
pub struct BenchDiff {
    /// Human-readable failure lines; empty means the gate passes.
    pub failures: Vec<String>,
    /// Leaf metrics compared.
    pub compared: usize,
}

impl BenchDiff {
    /// Whether the new run is acceptable against the baseline.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Flattens a JSON document to `(path, leaf)` pairs. Array elements that
/// carry a `"name"` key are addressed by that name (`workloads[470.lbm]`),
/// so the diff is stable under reordering; anonymous elements use their
/// index.
fn flatten(value: &Value, path: &str, out: &mut Vec<(String, Value)>) {
    match value {
        Value::Obj(pairs) => {
            for (key, v) in pairs {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten(v, &sub, out);
            }
        }
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let label = item
                    .get("name")
                    .and_then(Value::as_str)
                    .map_or_else(|| i.to_string(), str::to_string);
                flatten(item, &format!("{path}[{label}]"), out);
            }
        }
        leaf => out.push((path.to_string(), leaf.clone())),
    }
}

/// Diffs two benchmark JSON documents; see the [module docs](self) for the
/// comparison rule.
///
/// # Errors
///
/// Returns a message when either document fails to parse as JSON.
pub fn diff_bench_json(old: &str, new: &str) -> Result<BenchDiff, String> {
    let old = json::parse(old).map_err(|e| format!("baseline: {e}"))?;
    let new = json::parse(new).map_err(|e| format!("new run: {e}"))?;
    let mut old_flat = Vec::new();
    let mut new_flat = Vec::new();
    flatten(&old, "", &mut old_flat);
    flatten(&new, "", &mut new_flat);

    let mut diff = BenchDiff::default();
    for (path, old_value) in &old_flat {
        let Some((_, new_value)) = new_flat.iter().find(|(p, _)| p == path) else {
            diff.failures
                .push(format!("{path}: present in baseline, missing from new run"));
            continue;
        };
        diff.compared += 1;
        if old_value != new_value {
            diff.failures.push(format!(
                "{path}: changed: {} -> {}",
                render(old_value),
                render(new_value)
            ));
        }
    }
    Ok(diff)
}

fn render(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => format!("{n}"),
        Value::Str(s) => format!("{s:?}"),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cycles: u64, matches: bool) -> String {
        format!(
            r#"{{
  "backend": "native",
  "threads": 4,
  "geomean_speedup": 1.5,
  "workloads": [
    {{"name": "a", "speedup": 2.0, "cycles": {cycles}, "outputs_match": {matches}}},
    {{"name": "b", "speedup": 1.0, "cycles": 100, "outputs_match": true}}
  ],
  "serve_throughput": {{"jobs": 200, "cache_hit_rate": 0.935, "cache_misses": 13}}
}}"#
        )
    }

    #[test]
    fn identical_documents_pass() {
        let base = doc(500, true);
        let diff = diff_bench_json(&base, &base).unwrap();
        assert!(diff.passed(), "{:?}", diff.failures);
        assert_eq!(diff.compared, 14);
    }

    #[test]
    fn any_correctness_counter_change_fails_regardless_of_size() {
        let base = doc(500, true);
        let cycles = diff_bench_json(&base, &doc(501, true)).unwrap();
        assert!(!cycles.passed(), "one cycle of drift is a failure");
        assert!(
            cycles.failures[0].contains("workloads[a].cycles"),
            "{:?}",
            cycles.failures
        );
        let mismatch = diff_bench_json(&base, &doc(500, false)).unwrap();
        assert!(!mismatch.passed());
        assert!(
            mismatch.failures[0].contains("outputs_match"),
            "{:?}",
            mismatch.failures
        );
    }

    /// Speedups and hit rates are ratios of modelled or counted quantities:
    /// exact rows, in both directions.
    #[test]
    fn ratios_of_exact_counters_are_exact_too() {
        let base = doc(500, true);
        for (from, to) in [
            ("\"geomean_speedup\": 1.5", "\"geomean_speedup\": 1.500001"),
            ("\"speedup\": 2.0", "\"speedup\": 2.4"),
            ("\"speedup\": 2.0", "\"speedup\": 1.999999"),
            ("\"cache_hit_rate\": 0.935", "\"cache_hit_rate\": 0.94"),
        ] {
            let moved = base.replace(from, to);
            assert_ne!(base, moved, "replacement matched");
            let diff = diff_bench_json(&base, &moved).unwrap();
            assert_eq!(diff.failures.len(), 1, "{to}: {:?}", diff.failures);
        }
    }

    #[test]
    fn missing_metrics_fail_and_new_metrics_are_ignored() {
        let base = doc(500, true);
        // New run drops workload "b" entirely.
        let dropped = base.replace(
            ",\n    {\"name\": \"b\", \"speedup\": 1.0, \"cycles\": 100, \"outputs_match\": true}",
            "",
        );
        assert_ne!(base, dropped, "replacement matched");
        let diff = diff_bench_json(&base, &dropped).unwrap();
        assert!(!diff.passed());
        assert!(
            diff.failures.iter().any(|f| f.contains("workloads[b]")),
            "{:?}",
            diff.failures
        );
        // The reverse direction — new sections in the new run — is fine.
        let diff = diff_bench_json(&dropped, &base).unwrap();
        assert!(diff.passed(), "{:?}", diff.failures);
    }

    #[test]
    fn reordered_workloads_compare_by_name() {
        let base = doc(500, true);
        // Swap the two workload rows; every metric still lines up.
        let swapped = base.replace(
            "{\"name\": \"a\", \"speedup\": 2.0, \"cycles\": 500, \"outputs_match\": true},\n    {\"name\": \"b\", \"speedup\": 1.0, \"cycles\": 100, \"outputs_match\": true}",
            "{\"name\": \"b\", \"speedup\": 1.0, \"cycles\": 100, \"outputs_match\": true},\n    {\"name\": \"a\", \"speedup\": 2.0, \"cycles\": 500, \"outputs_match\": true}",
        );
        assert_ne!(base, swapped, "replacement matched");
        let diff = diff_bench_json(&base, &swapped).unwrap();
        assert!(diff.passed(), "{:?}", diff.failures);
    }

    #[test]
    fn malformed_documents_error_instead_of_passing() {
        assert!(diff_bench_json("{", &doc(1, true)).is_err());
        assert!(diff_bench_json(&doc(1, true), "not json").is_err());
    }
}
