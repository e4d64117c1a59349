//! One child process: one workload, set up once, repeated, reported as one
//! JSON line on stdout. A process per workload isolates peak memory and
//! warm-up from the other workloads.

use crate::calib::Calibrator;
use crate::harness::{procfs, Cfg, ThreadSampler};
use crate::json::{self, num, nums, obj, text, Value};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Counts, Ops};
use std::time::Instant;

/// What the parent asked this child for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The workload under measurement: a warm-up repetition, then
    /// repetitions for `cfg.seconds` (untraced), or alternating untraced and
    /// traced repetitions for `cfg.seconds` (traced).
    Primary,
    /// A traced run's other workloads: one traced repetition and the
    /// per-layer readings this workload is the home of; no warm-up.
    Context,
}

/// Fewest untraced repetitions of a primary child, so a median exists even
/// when one repetition outlasts the budget; also the fixed work after which
/// peak memory is read.
const MIN_REPS: usize = 2;
/// Share of the measured time spent on host-speed samples.
const CALIBRATION_SHARE: f64 = 0.05;

pub fn run(workload: &str, role: Role, cfg: &Cfg, started: Instant) -> Result<Value, String> {
    let mut w = workloads::build(workload, cfg)?;
    let sampler = cfg.trace.then(ThreadSampler::start);
    let mut ops = Ops::default();
    let mut tracer = Tracer::new(false);
    let mut first_counts: Option<Counts> = None;
    let mut check_counts = |counts: Counts, ops: &mut Ops| match &first_counts {
        None => first_counts = Some(counts),
        Some(first) => ops.check(if *first == counts {
            Ok(())
        } else {
            let name = first
                .iter()
                .find(|(k, v)| counts.get(*k) != Some(v))
                .map_or("?", |(k, _)| k);
            Err(format!("modelled count {name} did not repeat exactly"))
        }),
    };

    // The untimed warm-up repetition belongs to set-up.
    if role == Role::Primary {
        let counts = w.rep(&mut tracer, &mut ops);
        check_counts(counts, &mut ops);
    }
    let setup_s = started.elapsed().as_secs_f64();

    ops.wall_s = 0.0;

    let cpu_before = procfs::cpu_seconds();
    let measured = Instant::now();
    // Wall seconds of every untraced and of every traced repetition.
    let mut plain: Vec<f64> = Vec::new();
    let mut traced: Vec<f64> = Vec::new();
    let mut peak_rss_mb = None;
    // Host-speed samples (see `calib`), taken between repetitions: at least
    // one before each, and as many as keep a twentieth of the measured time
    // spent reading the host, so a slow workload's few repetitions still
    // give a quartile of the samples enough to stand on.
    let mut calibrator = Calibrator::new();
    let mut calibration: Vec<f64> = Vec::new();
    let mut calibrate = |calibration: &mut Vec<f64>| loop {
        calibration.push(calibrator.sample());
        if calibration.iter().sum::<f64>() > CALIBRATION_SHARE * measured.elapsed().as_secs_f64() {
            break;
        }
    };
    let mut rep = 0u32;
    let budget = if cfg.quick { 0.0 } else { cfg.seconds };
    loop {
        if role == Role::Primary {
            calibrate(&mut calibration);
            let counts = w.rep(&mut tracer, &mut ops);
            plain.push(std::mem::take(&mut ops.wall_s));
            check_counts(counts, &mut ops);
            // Peak memory is read after fixed work — set-up, the warm-up and
            // `MIN_REPS` repetitions — not at exit: some workloads grow with
            // every repetition (`spec` by 2 MiB), and how many fit the time
            // budget depends on the host.
            if plain.len() == MIN_REPS {
                peak_rss_mb = Some(procfs::peak_rss_mb());
            }
        }
        if cfg.trace {
            rep += 1;
            calibrate(&mut calibration);
            tracer.set_enabled(true);
            tracer.set_rep(rep);
            let span = tracer.begin("rep", "");
            let counts = w.rep(&mut tracer, &mut ops);
            tracer.end(span);
            tracer.set_enabled(false);
            traced.push(std::mem::take(&mut ops.wall_s));
            check_counts(counts, &mut ops);
        }
        let enough = cfg.trace || cfg.quick || plain.len() >= MIN_REPS;
        if role == Role::Context || (enough && measured.elapsed().as_secs_f64() >= budget) {
            break;
        }
    }
    let measured_s = measured.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu_before;

    let mut layers = Vec::new();
    let mut self_time = Vec::new();
    if cfg.trace {
        layers = w.layers(&tracer);
        // A context child has no untraced repetition to compare with; the
        // parent reports these diagnostics from the primary child only.
        let overhead = if plain.is_empty() {
            0.0
        } else {
            stats::median(&traced) / stats::median(&plain) - 1.0
        };
        let walls = if plain.is_empty() { &traced } else { &plain };
        layers.extend([
            ("proc.cpu_s", cpu_s),
            ("proc.cpu_over_wall", cpu_s / measured_s),
            (
                "proc.threads_peak",
                sampler.map_or(0, ThreadSampler::finish) as f64,
            ),
            ("bench.samples", walls.len() as f64),
            ("bench.wall_median_s", stats::median(walls)),
            ("bench.host_slowdown", crate::calib::slowdown(&calibration)),
            ("bench.spread", stats::spread(walls)),
            ("bench.trace_overhead_share", overhead),
            ("bench.span_coverage", tracer.min_leaf_coverage()),
        ]);
        self_time = tracer
            .self_time_by_layer()
            .into_iter()
            .map(|(layer, ns)| (layer.to_string(), num(ns as f64 / 1e6)))
            .collect();
        let path = cfg.out_dir.join(format!("trace-{workload}.json"));
        std::fs::create_dir_all(&cfg.out_dir)
            .and_then(|()| std::fs::write(&path, json::render(&tracer.chrome_trace(workload))))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let modelled_speedup = w.modelled_speedup();
    drop(w);

    let counts = first_counts.unwrap_or_default();
    Ok(obj([
        ("workload", text(workload)),
        ("setup_s", num(setup_s)),
        ("walls", nums(plain)),
        ("traced_walls", nums(traced)),
        ("calibration", nums(calibration)),
        ("attempted", num(ops.attempted as f64)),
        ("failed", num(ops.failed as f64)),
        (
            "reasons",
            Value::Arr(ops.reasons.iter().map(|r| text(r)).collect()),
        ),
        (
            "peak_rss_mb",
            num(peak_rss_mb.unwrap_or_else(procfs::peak_rss_mb)),
        ),
        // Strings: a digest fold does not fit a JSON number.
        (
            "counts",
            obj(counts.into_iter().map(|(k, v)| (k, text(&v.to_string())))),
        ),
        (
            "modelled_speedup",
            modelled_speedup.map_or(Value::Null, num),
        ),
        (
            "layers",
            obj(layers.into_iter().map(|(name, v)| (name, num(v)))),
        ),
        ("self_time_ms", Value::Obj(self_time)),
    ]))
}
