//! `benchmark compare A.json B.json`: per (workload, end-to-end metric) both
//! values, the relative difference and the bound from `BENCHMARK.json`.
//!
//! Exits non-zero when B is worse than A by more than a bound or fails
//! operations A did not. A pair whose run-to-run spread exceeds its bound is
//! flagged *unresolved*: the two sets cannot tell a difference of that size
//! from noise. Modelled counts are reported as identical or not — two runs of
//! one commit and seed must agree bit for bit, two commits need not — and
//! the modelled speedup is held to its own bound.

use crate::json::{self, number, Value};
use crate::metrics::Manifest;
use std::path::Path;

/// Share by which `modelled_speedup` may fall. The number is deterministic,
/// so the bound only has to clear float rounding in the geomean.
pub const MODELLED_SPEEDUP_BOUND: f64 = 0.005;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints one row. `worse` is how much worse B is than A, as a share of A;
/// returns whether that is past the bound.
fn row(
    workload: &str,
    name: &str,
    (va, vb): (f64, f64),
    worse: f64,
    bound: f64,
    spread: f64,
) -> bool {
    let regressed = worse > bound || !worse.is_finite();
    let verdict = match (regressed, spread > bound) {
        (true, true) => "REGRESSED (unresolved: spread exceeds the bound)",
        (true, false) => "REGRESSED",
        (false, true) => "unresolved: spread exceeds the bound",
        (false, false) => "ok",
    };
    println!(
        "{workload:<12} {name:<16} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.1}%  {verdict}",
        worse * 100.0,
        bound * 100.0
    );
    regressed
}

/// Returns the process exit code.
pub fn run(a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    let manifest = Manifest::load()?;

    let mut regressions = 0;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (workload, a_entry) in a.get("workloads").and_then(Value::as_object).unwrap_or(&[]) {
        let Some(b_entry) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<12} missing from B");
            regressions += 1;
            continue;
        };
        for m in &manifest.end_to_end {
            let of = |entry: &Value, field: &str| {
                number(
                    entry
                        .get("end_to_end")
                        .and_then(|e| e.get(&m.name))
                        .and_then(|e| e.get(field)),
                )
            };
            let (va, vb) = (of(a_entry, "value"), of(b_entry, "value"));
            let worse = if m.lower_is_better {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let spread = of(a_entry, "spread").max(of(b_entry, "spread"));
            if row(workload, &m.name, (va, vb), worse, m.bound, spread) {
                regressions += 1;
            }
        }
        let speedups = (
            a_entry.get("modelled_speedup").and_then(Value::as_f64),
            b_entry.get("modelled_speedup").and_then(Value::as_f64),
        );
        if let (Some(va), Some(vb)) = speedups {
            let worse = (va - vb) / va;
            if row(
                workload,
                "modelled_speedup",
                (va, vb),
                worse,
                MODELLED_SPEEDUP_BOUND,
                0.0,
            ) {
                regressions += 1;
            }
        }
        let (fa, fb) = (
            number(a_entry.get("failed_share")),
            number(b_entry.get("failed_share")),
        );
        if fb > fa {
            println!("{workload:<12} failed_share     {fa:>14.6} {fb:>14.6}  REGRESSED (any increase counts)");
            regressions += 1;
        }
        let differing: Vec<&str> = a_entry
            .get("counts")
            .and_then(Value::as_object)
            .unwrap_or(&[])
            .iter()
            .filter(|(name, v)| b_entry.get("counts").and_then(|c| c.get(name)) != Some(v))
            .map(|(name, _)| name.as_str())
            .collect();
        if differing.is_empty() {
            println!("{workload:<12} modelled counts  identical");
        } else {
            println!(
                "{workload:<12} modelled counts  differ ({}): expected between two commits or two seeds",
                differing.join(", ")
            );
        }
    }
    if regressions == 0 {
        println!("compare: B is within every bound of A");
        Ok(0)
    } else {
        println!("compare: {regressions} pair(s) past a bound");
        Ok(1)
    }
}
