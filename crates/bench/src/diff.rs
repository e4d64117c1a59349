//! The benchmark regression sentinel: a structural diff of two
//! `BENCH_<backend>.json` documents (`figures bench-diff OLD NEW`), used in
//! CI to gate merges against the committed per-backend baselines.
//!
//! Metrics are classified by leaf key, not position, so the diff survives
//! reordering and new sections:
//!
//! * **Correctness counters** (`cycles`, `outputs_match`, `failures`,
//!   cache/disk miss counts, …) must match **exactly** — any drift means
//!   the guest computed something different or the caching contract
//!   changed, and no tolerance excuses that.
//! * **Wall-clock metrics** (`*_seconds`, `jobs_per_sec`, speedups, hit
//!   rates) are noisy; they fail only on a **regression** beyond the
//!   tolerance (default 15%), judged direction-aware — slower seconds and
//!   lower speedups regress, improvements of any size pass. A `*_seconds`
//!   metric must also slow down by more than an absolute noise floor: the
//!   rows are single-shot, and a relative bound on a 5 ms run measures the
//!   host's scheduler, not the code.
//! * **Nondeterministic counters** (`tune_*`, `pages_skipped`) are
//!   timing-dependent by design and are skipped entirely.
//!
//! A metric present in the baseline but missing from the new run fails
//! (silently dropping a measurement is how regressions hide); metrics new
//! in the new run are ignored so adding sections never requires a
//! lock-step baseline refresh.

use janus_obs::json::{self, Value};

/// Default wall-clock regression tolerance: 15%.
pub const DEFAULT_WALL_TOLERANCE: f64 = 0.15;

/// Absolute slowdown below which a `*_seconds` metric never regresses: what
/// one single-shot run jitters by on a shared CI runner. A step-function
/// regression of a millisecond-scale row (the quadratic it once had) still
/// clears it by an order of magnitude.
pub const WALL_NOISE_FLOOR_SECONDS: f64 = 0.05;

/// How one leaf metric is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricClass {
    /// Must match exactly (correctness counters, configuration echoes).
    Exact,
    /// Noisy measurement where smaller is better (`*_seconds`).
    WallLowerIsBetter,
    /// Noisy measurement where larger is better (speedups, rates).
    WallHigherIsBetter,
    /// Nondeterministic by design; never compared.
    Skipped,
}

/// Classifies a metric by its leaf key.
fn classify(key: &str) -> MetricClass {
    match key {
        "tune_parallel" | "tune_sequential" | "pages_skipped" => MetricClass::Skipped,
        "jobs_per_sec" | "cache_hit_rate" | "speedup" | "geomean_speedup" | "warm_speedup"
        | "adaptive_gain" | "geomean_gain" => MetricClass::WallHigherIsBetter,
        key if key.ends_with("_seconds") => MetricClass::WallLowerIsBetter,
        _ => MetricClass::Exact,
    }
}

/// The outcome of one bench-diff run.
#[derive(Debug, Default)]
pub struct BenchDiff {
    /// Human-readable failure lines; empty means the gate passes.
    pub failures: Vec<String>,
    /// Regressions within tolerance and improvements — reported, not fatal.
    pub notes: Vec<String>,
    /// Leaf metrics compared.
    pub compared: usize,
    /// Leaf metrics skipped as nondeterministic.
    pub skipped: usize,
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

/// The leaf key of a flattened path (`workloads[470.lbm].cycles` →
/// `cycles`).
fn leaf_key(path: &str) -> &str {
    path.rsplit('.').next().unwrap_or(path)
}

/// Diffs two benchmark JSON documents; see the [module docs](self) for the
/// comparison rules. `wall_tolerance` is the fractional wall-clock
/// regression allowed (0.15 = 15%).
///
/// # Errors
///
/// Returns a message when either document fails to parse as JSON.
pub fn diff_bench_json(old: &str, new: &str, wall_tolerance: f64) -> Result<BenchDiff, String> {
    let old = json::parse(old).map_err(|e| format!("baseline: {e}"))?;
    let new = json::parse(new).map_err(|e| format!("new run: {e}"))?;
    let mut old_flat = Vec::new();
    let mut new_flat = Vec::new();
    flatten(&old, "", &mut old_flat);
    flatten(&new, "", &mut new_flat);

    let mut diff = BenchDiff::default();
    for (path, old_value) in &old_flat {
        let class = classify(leaf_key(path));
        if class == MetricClass::Skipped {
            diff.skipped += 1;
            continue;
        }
        let Some((_, new_value)) = new_flat.iter().find(|(p, _)| p == path) else {
            diff.failures
                .push(format!("{path}: present in baseline, missing from new run"));
            continue;
        };
        diff.compared += 1;
        match class {
            MetricClass::Exact => {
                if !exact_eq(old_value, new_value) {
                    diff.failures.push(format!(
                        "{path}: correctness counter changed: {} -> {}",
                        render(old_value),
                        render(new_value)
                    ));
                }
            }
            MetricClass::WallLowerIsBetter | MetricClass::WallHigherIsBetter => {
                let (Some(a), Some(b)) = (old_value.as_f64(), new_value.as_f64()) else {
                    diff.failures.push(format!(
                        "{path}: expected numbers, got {} -> {}",
                        render(old_value),
                        render(new_value)
                    ));
                    continue;
                };
                // Relative change, signed so that positive = regression.
                let denom = a.abs().max(1e-12);
                let regression = match class {
                    MetricClass::WallLowerIsBetter if b - a <= WALL_NOISE_FLOOR_SECONDS => 0.0,
                    MetricClass::WallLowerIsBetter => (b - a) / denom,
                    _ => (a - b) / denom,
                };
                if regression > wall_tolerance {
                    diff.failures.push(format!(
                        "{path}: wall-clock regression {:.1}% exceeds {:.1}% tolerance \
                         ({a:.6} -> {b:.6})",
                        regression * 100.0,
                        wall_tolerance * 100.0
                    ));
                } else if regression > wall_tolerance / 2.0 {
                    diff.notes.push(format!(
                        "{path}: within tolerance but drifting {:.1}% ({a:.6} -> {b:.6})",
                        regression * 100.0
                    ));
                }
            }
            MetricClass::Skipped => unreachable!("skipped above"),
        }
    }
    Ok(diff)
}

/// Exact equality for correctness counters: numbers bitwise via their
/// parsed `f64` (both sides came through the same parser), everything else
/// structurally.
fn exact_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x == y,
        _ => a == b,
    }
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

    fn doc(wall: f64, cycles: u64, matches: bool, tune: u64) -> String {
        format!(
            r#"{{
  "backend": "native",
  "threads": 4,
  "geomean_speedup": 1.5,
  "workloads": [
    {{"name": "a", "speedup": 2.0, "cycles": {cycles}, "wall_seconds": {wall}, "outputs_match": {matches}}},
    {{"name": "b", "speedup": 1.0, "cycles": 100, "wall_seconds": 0.5, "outputs_match": true}}
  ],
  "adaptive": {{"geomean_gain": 1.05, "workloads": [
    {{"name": "a", "adaptive_gain": 1.1, "tune_parallel": {tune}, "pages_skipped": 7}}
  ]}}
}}"#
        )
    }

    #[test]
    fn identical_documents_pass() {
        let base = doc(1.0, 500, true, 3);
        let diff = diff_bench_json(&base, &base, DEFAULT_WALL_TOLERANCE).unwrap();
        assert!(diff.passed(), "{:?}", diff.failures);
        assert!(diff.compared > 0);
    }

    #[test]
    fn the_fifteen_percent_wall_criterion_is_pinned() {
        let base = doc(1.0, 500, true, 3);
        // 14% slower: inside the default 15% tolerance.
        let near =
            diff_bench_json(&base, &doc(1.14, 500, true, 3), DEFAULT_WALL_TOLERANCE).unwrap();
        assert!(near.passed(), "{:?}", near.failures);
        // 16% slower: over the line, and the message names the path.
        let over =
            diff_bench_json(&base, &doc(1.16, 500, true, 3), DEFAULT_WALL_TOLERANCE).unwrap();
        assert!(!over.passed());
        assert!(
            over.failures[0].contains("workloads[a].wall_seconds"),
            "{:?}",
            over.failures
        );
        // A 16% improvement is not a regression.
        let faster =
            diff_bench_json(&base, &doc(0.84, 500, true, 3), DEFAULT_WALL_TOLERANCE).unwrap();
        assert!(faster.passed(), "{:?}", faster.failures);
        // A custom tolerance moves the line.
        let loose = diff_bench_json(&base, &doc(1.4, 500, true, 3), 0.5).unwrap();
        assert!(loose.passed(), "{:?}", loose.failures);
    }

    /// A millisecond-scale row doubling is jitter; the same row growing past
    /// the noise floor is the regression the gate exists for.
    #[test]
    fn sub_floor_wall_slowdowns_are_noise() {
        let base = doc(0.004, 500, true, 3);
        let jitter = diff_bench_json(&base, &doc(0.009, 500, true, 3), DEFAULT_WALL_TOLERANCE);
        assert!(jitter.unwrap().passed());
        let step = diff_bench_json(&base, &doc(0.3, 500, true, 3), 0.5).unwrap();
        assert!(!step.passed());
        assert!(
            step.failures[0].contains("wall_seconds"),
            "{:?}",
            step.failures
        );
    }

    #[test]
    fn higher_is_better_metrics_regress_downward() {
        let base = doc(1.0, 500, true, 3);
        // Drop the geomean speedup by 20%: that is the regression direction.
        let slower = base.replace("\"geomean_speedup\": 1.5", "\"geomean_speedup\": 1.2");
        let diff = diff_bench_json(&base, &slower, DEFAULT_WALL_TOLERANCE).unwrap();
        assert!(!diff.passed());
        assert!(
            diff.failures[0].contains("geomean_speedup"),
            "{:?}",
            diff.failures
        );
        // Raising it by 20% passes.
        let faster = base.replace("\"geomean_speedup\": 1.5", "\"geomean_speedup\": 1.8");
        assert!(diff_bench_json(&base, &faster, DEFAULT_WALL_TOLERANCE)
            .unwrap()
            .passed());
    }

    /// `adaptive.geomean_gain` is a geomean of wall-time ratios: two runs of
    /// one commit never agree on it to six digits (observed
    /// `0.951678 -> 1.012069` with every real counter equal), so it takes
    /// the wall tolerance like the `adaptive_gain` values it summarises.
    #[test]
    fn adaptive_geomean_gain_is_a_wall_ratio_not_an_exact_counter() {
        let base = doc(1.0, 500, true, 3);
        let moved = |to: &str| base.replace("\"geomean_gain\": 1.05", to);
        for jitter in ["\"geomean_gain\": 1.0185", "\"geomean_gain\": 1.0815"] {
            let diff = diff_bench_json(&base, &moved(jitter), DEFAULT_WALL_TOLERANCE).unwrap();
            assert!(diff.passed(), "a 3% move is noise: {:?}", diff.failures);
        }
        // A 60% drop fails even at CI's wide 50% tolerance.
        let diff = diff_bench_json(&base, &moved("\"geomean_gain\": 0.42"), 0.5).unwrap();
        assert!(!diff.passed());
        assert!(
            diff.failures[0].contains("geomean_gain"),
            "{:?}",
            diff.failures
        );
    }

    #[test]
    fn any_correctness_counter_change_fails_regardless_of_size() {
        let base = doc(1.0, 500, true, 3);
        let cycles =
            diff_bench_json(&base, &doc(1.0, 501, true, 3), DEFAULT_WALL_TOLERANCE).unwrap();
        assert!(!cycles.passed(), "one cycle of drift is a failure");
        assert!(
            cycles.failures[0].contains("cycles"),
            "{:?}",
            cycles.failures
        );
        let mismatch =
            diff_bench_json(&base, &doc(1.0, 500, false, 3), DEFAULT_WALL_TOLERANCE).unwrap();
        assert!(!mismatch.passed());
        assert!(
            mismatch.failures[0].contains("outputs_match"),
            "{:?}",
            mismatch.failures
        );
    }

    #[test]
    fn nondeterministic_counters_are_skipped() {
        let base = doc(1.0, 500, true, 3);
        let retuned = doc(1.0, 500, true, 9999);
        let diff = diff_bench_json(&base, &retuned, DEFAULT_WALL_TOLERANCE).unwrap();
        assert!(diff.passed(), "{:?}", diff.failures);
        assert!(diff.skipped >= 2, "tune_parallel and pages_skipped skipped");
    }

    #[test]
    fn missing_metrics_fail_and_new_metrics_are_ignored() {
        let base = doc(1.0, 500, true, 3);
        // New run drops workload "b" entirely.
        let dropped = base.replace(
            ",\n    {\"name\": \"b\", \"speedup\": 1.0, \"cycles\": 100, \"wall_seconds\": 0.5, \"outputs_match\": true}",
            "",
        );
        assert_ne!(base, dropped, "replacement matched");
        let diff = diff_bench_json(&base, &dropped, DEFAULT_WALL_TOLERANCE).unwrap();
        assert!(!diff.passed());
        assert!(
            diff.failures.iter().any(|f| f.contains("workloads[b]")),
            "{:?}",
            diff.failures
        );
        // The reverse direction — new sections in the new run — is fine.
        let diff = diff_bench_json(&dropped, &base, DEFAULT_WALL_TOLERANCE).unwrap();
        assert!(diff.passed(), "{:?}", diff.failures);
    }

    #[test]
    fn reordered_workloads_compare_by_name() {
        let base = doc(1.0, 500, true, 3);
        // Swap the two workload rows; every metric still lines up.
        let swapped = base.replace(
            "{\"name\": \"a\", \"speedup\": 2.0, \"cycles\": 500, \"wall_seconds\": 1, \"outputs_match\": true},\n    {\"name\": \"b\", \"speedup\": 1.0, \"cycles\": 100, \"wall_seconds\": 0.5, \"outputs_match\": true}",
            "{\"name\": \"b\", \"speedup\": 1.0, \"cycles\": 100, \"wall_seconds\": 0.5, \"outputs_match\": true},\n    {\"name\": \"a\", \"speedup\": 2.0, \"cycles\": 500, \"wall_seconds\": 1, \"outputs_match\": true}",
        );
        let diff = diff_bench_json(&base, &swapped, DEFAULT_WALL_TOLERANCE).unwrap();
        assert!(diff.passed(), "{:?}", diff.failures);
    }

    #[test]
    fn malformed_documents_error_instead_of_passing() {
        assert!(diff_bench_json("{", &doc(1.0, 1, true, 0), 0.15).is_err());
        assert!(diff_bench_json(&doc(1.0, 1, true, 0), "not json", 0.15).is_err());
    }
}
