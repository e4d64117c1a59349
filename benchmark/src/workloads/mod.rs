//! The six workloads. Each is fixed work per repetition against the public
//! API of the `janus` facade; what differs is which layers carry the work.

use crate::harness::Cfg;
use crate::trace::Tracer;
use std::collections::BTreeMap;

mod dbm;
mod interp;
mod prepare;
mod serve_churn;
mod serve_hot;

/// A per-layer reading: metric name and value, in the unit the metric table
/// declares.
pub type Reading = (&'static str, f64);

/// Modelled counts of one repetition. Every repetition of a workload does
/// the same work, so these must repeat exactly.
pub type Counts = BTreeMap<&'static str, u64>;

/// What a repetition reports beside its counts: operations attempted and
/// failed (with the first few reasons) and its wall seconds.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    /// Wall seconds of the repetition in progress: the calls under
    /// measurement only, without the checks of their results and without
    /// the traced run's extras.
    pub wall_s: f64,
}

impl Ops {
    /// Charges the repetition for a measured call that began at `start`
    /// and ends now.
    pub fn timed(&mut self, start: std::time::Instant) {
        self.wall_s += start.elapsed().as_secs_f64();
    }

    /// Counts one operation; an `Err` is a failure.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }
}

pub trait Workload {
    /// One repetition. With `t` enabled the same calls are made inside
    /// spans, followed by the traced-run-only extras.
    fn rep(&mut self, t: &mut Tracer, ops: &mut Ops) -> Counts;

    /// The per-layer readings this workload is the home of, from the spans
    /// of its traced repetitions plus its layer's unit-cost microbenchmarks.
    fn layers(&mut self, t: &Tracer) -> Vec<Reading>;

    /// Modelled `Vm::run` cycles over modelled DBM cycles of the last
    /// repetition, for the workloads that are `execute` of the suite.
    fn modelled_speedup(&self) -> Option<f64> {
        None
    }
}

pub const NAMES: [&str; 6] = [
    "interp",
    "doall",
    "spec",
    "prepare",
    "serve-hot",
    "serve-churn",
];

/// Builds the named workload; everything done here is set-up time.
pub fn build(name: &str, cfg: &Cfg) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "interp" => Box::new(interp::Interp::setup(cfg)?),
        "doall" => Box::new(dbm::DbmWorkload::setup(cfg, dbm::Kind::Doall)?),
        "spec" => Box::new(dbm::DbmWorkload::setup(cfg, dbm::Kind::Spec)?),
        "prepare" => Box::new(prepare::Prepare::setup(cfg)?),
        "serve-hot" => Box::new(serve_hot::ServeHot::setup(cfg)?),
        "serve-churn" => Box::new(serve_churn::ServeChurn::setup(cfg)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The highest percentile with at least ten samples beyond it; with fewer
/// than twenty samples that is no percentile at all, so the maximum.
pub fn tail(values: &[f64]) -> f64 {
    let n = values.len();
    if n > 20 {
        crate::stats::nearest_rank(values, 1.0 - 10.0 / n as f64)
    } else {
        values.iter().copied().fold(f64::NAN, f64::max)
    }
}

/// Adds `value` to the named count.
pub fn bump(counts: &mut Counts, name: &'static str, value: u64) {
    *counts.entry(name).or_default() += value;
}

/// Folds `value` (a digest) into the named count, order-sensitively: the
/// count repeats only when every digest does.
pub fn fold(counts: &mut Counts, name: &'static str, value: u64) {
    let folded = counts.entry(name).or_default();
    *folded = (*folded ^ value)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(17);
}
