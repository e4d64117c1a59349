//! The parent process: plans which children to run, pools what they report
//! and prints the ledger.
//!
//! Untraced, every workload is run as `PASSES` children, round-robin over
//! the workloads when there is more than one, and their repetitions are
//! pooled: slow regimes on a shared host last 5-10 s, so a workload's
//! samples have to be spread out, and three set-ups give `setup_s` a median.
//! `wall_s` is the lower quartile of the pooled repetitions over the run's
//! host slowdown, the lower quartile of its calibration samples over their
//! reference: interference and a process's unlucky memory layout only ever
//! add time, and the lower quartile stays put while up to three quarters of
//! the samples are disturbed (see `calib`; the README has the evidence). The
//! raw median and quartiles are printed beside it.
//! Traced, the workload under measurement alternates untraced and traced
//! repetitions in one child, and every other workload contributes one traced
//! repetition, so one traced run yields every per-layer metric.

use crate::calib;
use crate::child::Role;
use crate::harness;
use crate::json::{self, num, number, nums, obj, text, Value};
use crate::metrics::{EndToEnd, Manifest};
use crate::stats;
use crate::workloads::NAMES;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

pub const PASSES: usize = 3;
/// Share of `--seconds` a traced primary child spends alternating
/// repetitions; the rest of the run is the other workloads' context.
const TRACED_SHARE: f64 = 0.4;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub expected: PathBuf,
    pub out: Option<PathBuf>,
}

struct Leg {
    workload: &'static str,
    role: Role,
    seconds: f64,
}

/// Everything the children of one workload reported.
#[derive(Default)]
struct Pool {
    setups: Vec<f64>,
    /// Wall seconds of every pooled repetition.
    walls: Vec<f64>,
    /// Host-speed samples, taken between the repetitions.
    calibration: Vec<f64>,
    rss: Vec<f64>,
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
    counts: Option<Value>,
    /// The paper's Fig. 7 number, from the workloads that have one.
    modelled_speedup: Option<f64>,
    layers: Vec<(String, f64)>,
    self_time_ms: Option<Value>,
    /// Whether the workload is one the run measures (not traced-run context).
    measured: bool,
}

/// One end-to-end metric of one workload, with the samples behind it.
struct Measured<'m> {
    spec: &'m EndToEnd,
    value: f64,
    samples: Vec<f64>,
}

/// One workload's row of the ledger.
struct Entry<'m> {
    workload: &'static str,
    pool: Pool,
    end_to_end: Vec<Measured<'m>>,
    /// The lower quartile of the run's calibration samples over the kernel's
    /// reference time.
    host_slowdown: f64,
}

fn plan(opts: &RunOptions) -> Result<Vec<Leg>, String> {
    let chosen: Vec<&'static str> = match &opts.workload {
        Some(name) => vec![*NAMES
            .iter()
            .find(|n| *n == name)
            .ok_or_else(|| format!("unknown workload {name:?}; one of {NAMES:?}"))?],
        None => NAMES.to_vec(),
    };
    let mut legs = Vec::new();
    if opts.trace {
        for &workload in &NAMES {
            let primary = chosen.contains(&workload);
            legs.push(Leg {
                workload,
                role: if primary {
                    Role::Primary
                } else {
                    Role::Context
                },
                seconds: opts.seconds * TRACED_SHARE,
            });
        }
        // The measured workload first, while the host is as it was.
        legs.sort_by_key(|leg| leg.role != Role::Primary);
    } else {
        let passes = if opts.quick { 1 } else { PASSES };
        for _ in 0..passes {
            for &workload in &chosen {
                legs.push(Leg {
                    workload,
                    role: Role::Primary,
                    seconds: opts.seconds / passes as f64,
                });
            }
        }
    }
    Ok(legs)
}

fn spawn(leg: &Leg, opts: &RunOptions) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", leg.workload])
        .args([
            "--role",
            if leg.role == Role::Primary {
                "primary"
            } else {
                "context"
            },
        ])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &leg.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--expected")
        .arg(&opts.expected);
    if opts.quick {
        cmd.arg("--quick");
    }
    // The library reads these for its defaults; the harness fixes both.
    cmd.env_remove("JANUS_BACKEND").env_remove("JANUS_ADAPTIVE");
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{} child: {e}", leg.workload))?;
    if !output.status.success() {
        return Err(format!(
            "{} child exited with {}",
            leg.workload, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} child printed nothing", leg.workload))?;
    json::parse(line).map_err(|e| format!("{} child result: {e}", leg.workload))
}

fn numbers(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_array)
        .map(|items| items.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn metric(value: f64, unit: &str) -> Value {
    obj([("value", num(value)), ("unit", text(unit))])
}

fn header(opts: &RunOptions, threads: u32) -> Vec<(&'static str, Value)> {
    let capture = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .current_dir(harness::benchmark_dir())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    vec![
        ("git_commit", text(&capture("git", &["rev-parse", "HEAD"]))),
        ("rustc", text(&capture("rustc", &["-V"]))),
        ("nproc", num(f64::from(harness::nproc()))),
        ("threads", num(f64::from(threads))),
        ("seed", num(opts.seed as f64)),
        ("seconds", num(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        ("quick", Value::Bool(opts.quick)),
    ]
}

impl<'m> Entry<'m> {
    fn new(workload: &'static str, pool: Pool, manifest: &'m Manifest) -> Result<Self, String> {
        let host_slowdown = calib::slowdown(&pool.calibration);
        let end_to_end = manifest
            .end_to_end
            .iter()
            .map(|spec| {
                let (value, samples) = match spec.name.as_str() {
                    "wall_s" => (
                        stats::quartiles(&pool.walls)[0] / host_slowdown,
                        pool.walls.clone(),
                    ),
                    "setup_s" => (stats::median(&pool.setups), pool.setups.clone()),
                    "peak_rss_mb" => (stats::median(&pool.rss), pool.rss.clone()),
                    other => {
                        return Err(format!(
                            "BENCHMARK.json names {other}, which is not measured"
                        ))
                    }
                };
                Ok(Measured {
                    spec,
                    value,
                    samples,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Entry {
            workload,
            pool,
            end_to_end,
            host_slowdown,
        })
    }

    fn failed_share(&self) -> f64 {
        self.pool.failed as f64 / self.pool.attempted.max(1) as f64
    }

    fn layer(&self, name: &str) -> Option<f64> {
        let (_, value) = self.pool.layers.iter().find(|(n, _)| n == name)?;
        Some(*value)
    }

    fn to_json(&self, manifest: &Manifest) -> Value {
        let end_to_end = self.end_to_end.iter().map(|m| {
            let mut fields = vec![
                ("value", num(m.value)),
                ("unit", text(&m.spec.unit)),
                ("median", num(stats::median(&m.samples))),
                ("samples", num(m.samples.len() as f64)),
                ("quartiles", nums(stats::quartiles(&m.samples))),
                ("spread", num(stats::spread(&m.samples))),
                ("values", nums(m.samples.iter().copied())),
            ];
            if m.spec.name == "wall_s" {
                fields.push(("host_slowdown", num(self.host_slowdown)));
                fields.push(("calibration", nums(self.pool.calibration.iter().copied())));
            }
            (m.spec.name.as_str(), obj(fields))
        });
        obj([
            ("measured", Value::Bool(self.pool.measured)),
            ("end_to_end", obj(end_to_end)),
            ("attempted", num(self.pool.attempted as f64)),
            ("failed", num(self.pool.failed as f64)),
            ("failed_share", num(self.failed_share())),
            (
                "reasons",
                Value::Arr(self.pool.reasons.iter().map(|r| text(r)).collect()),
            ),
            ("counts", self.pool.counts.clone().unwrap_or(Value::Null)),
            (
                "modelled_speedup",
                self.pool.modelled_speedup.map_or(Value::Null, num),
            ),
            (
                "per_layer",
                obj(self
                    .pool
                    .layers
                    .iter()
                    .map(|(name, v)| (name.as_str(), metric(*v, manifest.layer_unit(name))))),
            ),
            (
                "self_time_ms",
                self.pool.self_time_ms.clone().unwrap_or(Value::Null),
            ),
        ])
    }

    fn print(&self, trace: bool, manifest: &Manifest) {
        if self.pool.measured {
            println!("\n== {} ==", self.workload);
            for m in &self.end_to_end {
                let [q1, _, q3] = stats::quartiles(&m.samples);
                println!(
                    "  {:<16} {:>12.6} {:<4} n={:<3} median={:.6} q1={:.6} q3={:.6} sample-spread={:.4} (bound {})",
                    m.spec.name,
                    m.value,
                    m.spec.unit,
                    m.samples.len(),
                    stats::median(&m.samples),
                    q1,
                    q3,
                    stats::spread(&m.samples),
                    m.spec.bound,
                );
            }
            if let Some(speedup) = self.pool.modelled_speedup {
                println!(
                    "  {:<16} {speedup:>12.6} x    (modelled, repeats exactly; bound {})",
                    "modelled_speedup",
                    crate::compare::MODELLED_SPEEDUP_BOUND
                );
            }
            println!(
                "  {:<16} {:>12.6}      ({} failed of {} attempted; host slowdown {:.3})",
                "failed_share",
                self.failed_share(),
                self.pool.failed,
                self.pool.attempted,
                self.host_slowdown,
            );
            for reason in &self.pool.reasons {
                println!("  FAILED: {reason}");
            }
        }
        if trace {
            println!(
                "\n-- per-layer, measured by {}{} --",
                self.workload,
                if self.pool.measured {
                    ""
                } else {
                    " (context: one cold traced repetition)"
                }
            );
            for (name, value) in &self.pool.layers {
                println!("  {name:<32} {value:>16.4} {}", manifest.layer_unit(name));
            }
            if let Some(self_time) = self.pool.self_time_ms.as_ref().and_then(Value::as_object) {
                let line: Vec<String> = self_time
                    .iter()
                    .map(|(layer, ms)| format!("{layer}={:.1}ms", number(Some(ms))))
                    .collect();
                println!("  self time by layer: {}", line.join(" "));
            }
        }
    }
}

/// Folds one child's report into its workload's pool.
fn absorb(pool: &mut Pool, report: &Value) {
    pool.setups.push(number(report.get("setup_s")));
    // A context child has no untraced repetition; its one traced repetition
    // stands in so the ledger file still shows a wall.
    let walls = numbers(report.get("walls"));
    pool.walls.extend(if walls.is_empty() {
        numbers(report.get("traced_walls"))
    } else {
        walls
    });
    pool.calibration.extend(numbers(report.get("calibration")));
    pool.rss.push(number(report.get("peak_rss_mb")));
    pool.attempted += number(report.get("attempted")) as u64;
    pool.failed += number(report.get("failed")) as u64;
    let reasons = report
        .get("reasons")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    pool.reasons
        .extend(reasons.iter().filter_map(Value::as_str).map(String::from));
    // Every child of a workload does the same work: its modelled counts must
    // agree across processes too.
    pool.modelled_speedup = report.get("modelled_speedup").and_then(Value::as_f64);
    let counts = report.get("counts").cloned().unwrap_or(Value::Null);
    match &pool.counts {
        Some(first) if *first != counts => {
            pool.attempted += 1;
            pool.failed += 1;
            pool.reasons
                .push("modelled counts differ between child processes".to_string());
        }
        Some(_) => {}
        None => pool.counts = Some(counts),
    }
    if let Some(layers) = report.get("layers").and_then(Value::as_object) {
        pool.layers = layers
            .iter()
            .map(|(name, v)| (name.clone(), number(Some(v))))
            .collect();
    }
    pool.self_time_ms = report.get("self_time_ms").cloned();
}

/// Runs the plan. Returns the process exit code.
pub fn run(opts: &RunOptions, manifest: &Manifest) -> Result<i32, String> {
    let legs = plan(opts)?;
    let mut head = header(opts, harness::harness_threads());
    println!("janus ledger: {}", json::render(&obj(head.iter().cloned())));

    let mut pools: BTreeMap<&'static str, Pool> = BTreeMap::new();
    for leg in &legs {
        let report = spawn(leg, opts)?;
        let pool = pools.entry(leg.workload).or_default();
        pool.measured = leg.role == Role::Primary;
        absorb(pool, &report);
    }
    let entries = pools
        .into_iter()
        .map(|(workload, pool)| Entry::new(workload, pool, manifest))
        .collect::<Result<Vec<_>, _>>()?;
    for entry in &entries {
        entry.print(opts.trace, manifest);
    }

    // The header is complete only now: repetition counts are whatever fit
    // the time budget.
    let repetitions = obj(entries
        .iter()
        .map(|e| (e.workload, num(e.pool.walls.len() as f64))));
    println!("\nrepetitions: {}", json::render(&repetitions));
    head.push(("repetitions", repetitions));
    let doc = obj([
        ("header", obj(head)),
        (
            "workloads",
            obj(entries.iter().map(|e| (e.workload, e.to_json(manifest)))),
        ),
    ]);
    let out = opts.out.clone().unwrap_or_else(|| {
        harness::benchmark_dir().join("out").join(format!(
            "ledger-{}-seed{}{}.json",
            opts.workload.as_deref().unwrap_or("all"),
            opts.seed,
            if opts.trace { "-trace" } else { "" }
        ))
    });
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, json::render_pretty(&doc))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("ledger written to {}", out.display());

    let attempted: u64 = entries.iter().map(|e| e.pool.attempted).sum();
    let failed: u64 = entries.iter().map(|e| e.pool.failed).sum();
    // The driver's contract: with one workload named, the last line of
    // standard output is the result object — the end-to-end metrics of that
    // workload, or (traced) every per-layer metric. A per-layer metric is
    // emitted by the one workload that measures it; the diagnostics every
    // child emits about itself are taken from the named workload's.
    if let Some(workload) = &opts.workload {
        let metrics = if opts.trace {
            let measured_first = entries
                .iter()
                .filter(|e| e.pool.measured)
                .chain(entries.iter());
            obj(manifest.per_layer.iter().filter_map(|(name, unit)| {
                let value = measured_first.clone().find_map(|e| e.layer(name))?;
                Some((name.as_str(), metric(value, unit)))
            }))
        } else {
            let entry = entries
                .iter()
                .find(|e| e.workload == workload)
                .expect("the named workload was planned");
            obj(entry
                .end_to_end
                .iter()
                .map(|m| (m.spec.name.as_str(), metric(m.value, &m.spec.unit))))
        };
        let result = obj([
            ("correct", Value::Bool(failed == 0)),
            ("attempted", num(attempted.max(1) as f64)),
            ("failed", num(failed as f64)),
            ("metrics", metrics),
        ]);
        println!("{}", json::render(&result));
    }
    Ok(if failed == 0 { 0 } else { 1 })
}
