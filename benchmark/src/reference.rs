//! The committed reference (`expected.json`) and the rules a measured result
//! is checked against.
//!
//! The oracle is plain `Vm::run`: its outputs, exit code, memory digest and
//! cycle count are committed, so neither the DBM nor a later change to the
//! interpreter can silently redefine "correct". A DBM or serve run is checked
//! against the interpreter's outputs and exit code. Its final *image* differs
//! from the interpreter's (thread-private frames leave dead stack bytes
//! behind, and the bytes depend on the thread count) and its modelled cycles
//! are what a change to loop selection or the schedule is meant to move, so
//! neither is pinned: both are modelled counts, which must repeat exactly
//! within a run and which `compare` reports between runs.

use crate::harness::{self, Scale};
use crate::json::{self, num, nums, obj, text, Value};
use janus::dbm::DbmRunResult;
use janus::serve::JobReport;
use janus::vm::{RunResult, Vm};
use std::collections::BTreeMap;
use std::path::Path;

/// What a guest run leaves behind that a user can observe.
#[derive(Debug, Clone, PartialEq)]
pub struct GuestResult {
    pub exit_code: i64,
    pub ints: Vec<i64>,
    pub floats: Vec<f64>,
    pub memory_digest: u64,
    /// Modelled cycles.
    pub cycles: u64,
}

impl GuestResult {
    /// The result of a finished plain `Vm::run`.
    pub fn from_vm(vm: &Vm, run: &RunResult) -> GuestResult {
        GuestResult {
            exit_code: run.exit_code,
            ints: vm.output_ints().to_vec(),
            floats: vm.output_floats().to_vec(),
            memory_digest: vm.mem.image_digest(),
            cycles: run.cycles,
        }
    }

    pub fn from_dbm(run: &DbmRunResult) -> GuestResult {
        GuestResult {
            exit_code: run.exit_code,
            ints: run.output_ints.clone(),
            floats: run.output_floats.clone(),
            memory_digest: run.memory_digest,
            cycles: run.cycles,
        }
    }

    pub fn from_job(report: &JobReport) -> GuestResult {
        GuestResult {
            exit_code: report.exit_code,
            ints: report.output_ints.clone(),
            floats: report.output_floats.clone(),
            memory_digest: report.memory_digest,
            cycles: report.cycles,
        }
    }

    /// Exit code and integer outputs equal; float outputs bit-equal or
    /// within 1e-9 relative. The tolerance is the pipeline's own
    /// `outputs_match` rule: a parallel float reduction reassociates, and a
    /// guest may legally print NaN.
    pub fn outputs_match(&self, reference: &GuestResult) -> Result<(), String> {
        if self.exit_code != reference.exit_code {
            return Err(format!(
                "exit code {} != reference {}",
                self.exit_code, reference.exit_code
            ));
        }
        if self.ints != reference.ints {
            return Err("integer outputs differ from the reference".to_string());
        }
        let floats_ok = self.floats.len() == reference.floats.len()
            && self.floats.iter().zip(&reference.floats).all(|(a, b)| {
                a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-9 * b.abs().max(1.0)
            });
        if !floats_ok {
            return Err(format!(
                "float outputs {:?} differ from the reference {:?}",
                self.floats, reference.floats
            ));
        }
        Ok(())
    }

    /// Folds the whole result into a digest (population pin).
    fn fold(&self, mut h: u64) -> u64 {
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.exit_code as u64);
        mix(self.ints.len() as u64);
        self.ints.iter().for_each(|&i| mix(i as u64));
        mix(self.floats.len() as u64);
        self.floats.iter().for_each(|f| mix(f.to_bits()));
        mix(self.memory_digest);
        mix(self.cycles);
        h
    }
}

#[derive(Debug, Clone)]
pub struct SuiteEntry {
    pub vm: GuestResult,
    pub vm_retired: u64,
}

#[derive(Debug, Clone, Default)]
pub struct Expected {
    suite: BTreeMap<(String, String), SuiteEntry>,
    population: BTreeMap<String, u64>,
}

fn hex(v: u64) -> Value {
    Value::Str(format!("{v:#018x}"))
}

fn parse_hex(v: Option<&Value>, what: &str) -> Result<u64, String> {
    let s = v
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: missing hex string"))?;
    u64::from_str_radix(s.trim_start_matches("0x"), 16)
        .map_err(|_| format!("{what}: bad hex {s:?}"))
}

fn parse_int(v: Option<&Value>, what: &str) -> Result<i64, String> {
    v.and_then(Value::as_f64)
        .map(|n| n as i64)
        .ok_or_else(|| format!("{what}: missing number"))
}

pub fn population_key(seed: u64, n: usize) -> String {
    format!("seed{seed}.n{n}")
}

/// Digest over a population's reference results, in population order.
pub fn population_digest(population: &[harness::Generated]) -> u64 {
    population.iter().fold(0xcbf2_9ce4_8422_2325, |h, g| {
        g.reference.fold(h ^ g.binary.content_digest())
    })
}

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut expected = Expected::default();
        let suite = doc
            .get("suite")
            .and_then(Value::as_object)
            .ok_or("expected: no suite")?;
        for (scale, binaries) in suite {
            for (name, entry) in binaries.as_object().ok_or("expected: bad scale")? {
                let what = format!("{scale}/{name}");
                let list = |key: &str| -> Result<&[Value], String> {
                    entry
                        .get(key)
                        .and_then(Value::as_array)
                        .ok_or_else(|| format!("{what}: missing {key}"))
                };
                let ints = list("ints")?
                    .iter()
                    .map(|v| parse_int(Some(v), &what))
                    .collect::<Result<Vec<_>, _>>()?;
                let floats = list("float_bits")?
                    .iter()
                    .map(|v| parse_hex(Some(v), &what).map(f64::from_bits))
                    .collect::<Result<Vec<_>, _>>()?;
                expected.suite.insert(
                    (scale.clone(), name.clone()),
                    SuiteEntry {
                        vm: GuestResult {
                            exit_code: parse_int(entry.get("exit_code"), &what)?,
                            ints,
                            floats,
                            memory_digest: parse_hex(entry.get("vm_memory_digest"), &what)?,
                            cycles: parse_int(entry.get("vm_cycles"), &what)? as u64,
                        },
                        vm_retired: parse_int(entry.get("vm_retired"), &what)? as u64,
                    },
                );
            }
        }
        for (key, digest) in doc
            .get("population")
            .and_then(Value::as_object)
            .unwrap_or(&[])
        {
            expected
                .population
                .insert(key.clone(), parse_hex(Some(digest), key)?);
        }
        Ok(expected)
    }

    pub fn entry(&self, scale: Scale, name: &str) -> Result<&SuiteEntry, String> {
        self.suite
            .get(&(scale.key().to_string(), name.to_string()))
            .ok_or_else(|| format!("{}/{name}: not in expected.json (run --bless)", scale.key()))
    }

    /// A plain `Vm::run` must reproduce the committed result exactly.
    pub fn check_vm(
        &self,
        scale: Scale,
        name: &str,
        got: &GuestResult,
        retired: u64,
    ) -> Result<(), String> {
        let want = self.entry(scale, name)?;
        if *got != want.vm || retired != want.vm_retired {
            return Err(format!(
                "{}/{name}: Vm::run result differs from expected.json",
                scale.key()
            ));
        }
        Ok(())
    }

    /// A DBM (or serve) run: exit code and outputs against the interpreter's.
    pub fn check_outputs(&self, scale: Scale, name: &str, got: &GuestResult) -> Result<(), String> {
        got.outputs_match(&self.entry(scale, name)?.vm)
            .map_err(|e| format!("{}/{name}: {e}", scale.key()))
    }

    /// Checks the seeded population against its pin, when this (seed, size)
    /// has one; other seeds rely on the per-program interpreter reference.
    pub fn check_population(
        &self,
        seed: u64,
        population: &[harness::Generated],
    ) -> Result<(), String> {
        let key = population_key(seed, population.len());
        match self.population.get(&key) {
            Some(&want) if want != population_digest(population) => Err(format!(
                "population {key}: digest differs from expected.json"
            )),
            _ => Ok(()),
        }
    }
}

/// Regenerates `expected.json`: interpreter results for both scales and
/// population digests for the two documented seeds.
pub fn bless(path: &Path) -> Result<(), String> {
    let mut scales = Vec::new();
    for scale in [Scale::Ref, Scale::Train] {
        let mut binaries = Vec::new();
        for b in harness::compile_suite(&harness::suite_names(), scale) {
            let (vm, retired) = harness::run_vm(&b.process)?;
            binaries.push((
                b.name,
                obj([
                    ("exit_code", num(vm.exit_code as f64)),
                    ("ints", nums(vm.ints.iter().map(|&i| i as f64))),
                    (
                        "float_bits",
                        Value::Arr(vm.floats.iter().map(|f| hex(f.to_bits())).collect()),
                    ),
                    ("vm_cycles", num(vm.cycles as f64)),
                    ("vm_retired", num(retired as f64)),
                    ("vm_memory_digest", hex(vm.memory_digest)),
                ]),
            ));
        }
        scales.push((scale.key(), obj(binaries)));
    }
    let population = [1u64, 2].into_iter().map(|seed| {
        let p = harness::population(seed, harness::POPULATION);
        (population_key(seed, p.len()), hex(population_digest(&p)))
    });
    let doc = obj([
        ("format", num(1.0)),
        (
            "note",
            text(
                "Reference results from plain Vm::run (outputs, exit code, cycles, memory digest). \
                 Regenerate with `benchmark run --bless`; review the diff before committing.",
            ),
        ),
        ("suite", obj(scales)),
        ("population", obj(population)),
    ]);
    std::fs::write(path, json::render_pretty(&doc)).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(floats: Vec<f64>) -> GuestResult {
        GuestResult {
            exit_code: 0,
            ints: vec![7],
            floats,
            memory_digest: 1,
            cycles: 10,
        }
    }

    #[test]
    fn outputs_match_tolerates_reassociation_and_identical_nans_only() {
        let reference = result(vec![1000.0, f64::NAN]);
        assert!(result(vec![1000.0 + 1e-8, f64::NAN])
            .outputs_match(&reference)
            .is_ok());
        assert!(result(vec![1000.1, f64::NAN])
            .outputs_match(&reference)
            .is_err());
        assert!(result(vec![1000.0]).outputs_match(&reference).is_err());
        let mut wrong_int = result(vec![1000.0, f64::NAN]);
        wrong_int.ints = vec![8];
        assert!(wrong_int.outputs_match(&reference).is_err());
    }
}
