//! `BENCHMARK.json`: the one place the ledger's workloads, metric names,
//! units, directions and bounds are written down. `run` takes its default
//! `--seconds` and the units it prints from it, `compare` its bounds. Which
//! workload's traced run measures each per-layer metric, and which
//! end-to-end metric it should move, is the table in the README.

use crate::json::{self, number, Value};

pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
}

pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    /// Name and unit of every per-layer metric, in the file's order.
    pub per_layer: Vec<(String, String)>,
}

fn field<'a>(entry: &'a Value, key: &str) -> Result<&'a str, String> {
    entry
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: an entry has no {key}"))
}

fn list<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], String> {
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
}

impl Manifest {
    pub fn load() -> Result<Manifest, String> {
        let path = crate::harness::benchmark_dir().join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Manifest {
            run_seconds: number(doc.get("run_seconds")),
            workloads: list(&doc, "workloads")?
                .iter()
                .map(|w| field(w, "name").map(String::from))
                .collect::<Result<_, _>>()?,
            end_to_end: list(&doc, "end_to_end")?
                .iter()
                .map(|m| {
                    Ok(EndToEnd {
                        name: field(m, "name")?.to_string(),
                        unit: field(m, "unit")?.to_string(),
                        lower_is_better: field(m, "better")? == "lower",
                        bound: number(m.get("bound")),
                    })
                })
                .collect::<Result<_, String>>()?,
            per_layer: list(&doc, "per_layer")?
                .iter()
                .map(|m| Ok((field(m, "name")?.to_string(), field(m, "unit")?.to_string())))
                .collect::<Result<_, String>>()?,
        })
    }

    /// The unit of a per-layer metric; empty for a name the file lacks.
    pub fn layer_unit(&self, name: &str) -> &str {
        self.per_layer
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, unit)| unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_committed_manifest_is_within_the_contract_limits() {
        let m = Manifest::load().expect("BENCHMARK.json loads");
        let mut names = HashSet::new();
        for name in m
            .workloads
            .iter()
            .chain(m.end_to_end.iter().map(|e| &e.name))
            .chain(m.per_layer.iter().map(|(name, _)| name))
        {
            assert!(well_formed(name), "{name}");
            assert!(names.insert(name), "{name} is used twice");
        }
        assert_eq!(m.workloads, crate::workloads::NAMES);
        assert!((1..=60).contains(&(m.run_seconds as u64)) && m.run_seconds.fract() == 0.0);
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));
        for e in &m.end_to_end {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
        }
        assert!(m
            .end_to_end
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.lower_is_better));
        for (name, unit) in &m.per_layer {
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}");
        }
    }
}
