//! Adaptive execution: a per-loop tuner that decides, invocation by
//! invocation, whether a parallelisable loop should actually run in
//! parallel and with how many chunks.
//!
//! The static planner (iteration counting, bounds checks, the
//! `MIN_ITERATIONS_PER_THREAD` gate) answers *may this loop run in
//! parallel*; it cannot answer *does parallelism pay for itself on this
//! host*. Loops with small bodies or invocations dominated by thread
//! fan-out and overlay merge can run slower than sequential execution —
//! that is exactly the wall-clock gap this module closes. The tuner keeps,
//! per loop, an EWMA ([`janus_obs::ewma`]) of measured nanoseconds per
//! iteration for every *arm* it has tried — sequential execution, or
//! parallel execution with a particular chunk count — plus a model-based
//! sequential estimate (modelled cycles per iteration × a globally
//! calibrated nanoseconds-per-cycle pace) for loops it has never run
//! sequentially. Decisions compare arms per iteration:
//!
//! * **Cold start is parallel-optimistic**: until the primary parallel arm
//!   (one chunk per configured thread) has [`MIN_SAMPLES`] measurements,
//!   the tuner keeps the planner's choice. Adaptation only ever *removes*
//!   unprofitable parallelism; it never denies a loop its first chance.
//! * **Switching needs conviction**: a challenger arm must beat the
//!   incumbent by the [`HYSTERESIS`] margin (≥15% faster) to displace it,
//!   so measurement noise cannot make the decision flap.
//! * **Probes keep the picture fresh**: every [`PROBE_PERIOD`] invocations
//!   an unmeasured candidate chunk count gets one try, and a loop settled
//!   on sequential execution re-tries parallel every [`REPROBE_SEQ`]
//!   invocations — a loop whose behaviour changes mid-run is re-detected.
//!   Probe invocations never update the incumbent decision directly; only
//!   their measurements (folded into the arms) can.
//!
//! Everything here is wall-time-only policy: guest results are identical
//! whichever arm runs, and with adaptation off the tuner is never
//! constructed. The tuner itself is deliberately free of clocks — callers
//! pass measured nanoseconds in — which is what makes the decision logic
//! unit-testable with synthetic timings.

use janus_obs::ewma::Ewma;
use std::collections::HashMap;

/// Measurements an arm needs before its estimate is trusted for decisions.
pub(crate) const MIN_SAMPLES: u64 = 2;
/// A challenger must be at least this much faster (ratio of per-iteration
/// estimates) to displace the incumbent arm.
pub(crate) const HYSTERESIS: f64 = 0.85;
/// Invocations between probes of unmeasured candidate chunk counts.
pub(crate) const PROBE_PERIOD: u64 = 16;
/// Invocations between parallel re-probes once a loop settled on
/// sequential execution.
pub(crate) const REPROBE_SEQ: u64 = 32;
/// Arm key for sequential execution (parallel arms are keyed by their
/// chunk count, which is always ≥ 1).
const SEQ_ARM: u32 = 0;

/// What the tuner decided for one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneDecision {
    /// Run the invocation sequentially on the coordinating thread.
    Sequential,
    /// Run the invocation in parallel, split into `chunks` chunks.
    Parallel {
        /// Number of chunks to split the iteration space into.
        chunks: u32,
    },
}

/// One tuner decision plus the evidence behind it, for observability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneOutcome {
    /// The decision to act on.
    pub decision: TuneDecision,
    /// Predicted wall nanoseconds for the chosen arm at this iteration
    /// count, when the tuner had evidence to predict from.
    pub predicted_nanos: Option<u64>,
    /// Whether this invocation is a probe of an unmeasured arm rather than
    /// the incumbent choice.
    pub probe: bool,
}

/// Per-loop adaptive state: measured arms, the model-based sequential
/// fallback and the incumbent decision.
#[derive(Debug, Default)]
struct LoopTune {
    /// Parallel-eligible invocations seen (decisions asked).
    invocations: u64,
    /// Measured nanoseconds per iteration, per arm ([`SEQ_ARM`] or a chunk
    /// count).
    arms: HashMap<u32, Ewma>,
    /// Modelled cycles per iteration of the loop body — the bridge to a
    /// sequential estimate for loops never run sequentially.
    cycles_per_iter: Ewma,
    /// The settled decision, once the primary arm has enough evidence.
    decision: Option<TuneDecision>,
    /// Invocations since the last probe.
    since_probe: u64,
}

impl LoopTune {
    /// Measured per-iteration estimate of an arm, requiring [`MIN_SAMPLES`].
    fn arm_estimate(&self, arm: u32) -> Option<f64> {
        self.arms
            .get(&arm)
            .filter(|e| e.samples() >= MIN_SAMPLES)
            .and_then(Ewma::value)
    }

    /// Sequential per-iteration estimate: measured when available, the
    /// cycles×pace model otherwise.
    fn sequential_estimate(&self, pace: &Ewma) -> Option<f64> {
        self.arm_estimate(SEQ_ARM).or_else(|| {
            let cycles = self.cycles_per_iter.value()?;
            let pace = pace.value()?;
            Some(cycles * pace)
        })
    }
}

/// The adaptive-execution tuner: per-loop arm statistics plus one global
/// pace estimator (nanoseconds of wall time per modelled sequential cycle)
/// calibrated from the run's own sequential regions.
#[derive(Debug, Default)]
pub struct Tuner {
    pace: Ewma,
    loops: HashMap<usize, LoopTune>,
}

impl Tuner {
    /// A fresh tuner with no evidence (every loop starts
    /// parallel-optimistic).
    #[must_use]
    pub fn new() -> Tuner {
        Tuner::default()
    }

    /// Candidate chunk counts for a loop under `threads` configured worker
    /// threads: the thread count itself, half of it (less fan-out/merge
    /// overhead) and double it (better load balance), deduplicated.
    fn candidates(threads: u32) -> impl Iterator<Item = u32> {
        let threads = threads.max(1);
        [threads, (threads / 2).max(1), threads * 2]
            .into_iter()
            .enumerate()
            .filter(move |&(i, c)| {
                // Keep the first occurrence of each distinct count.
                [threads, (threads / 2).max(1), threads * 2]
                    .iter()
                    .position(|&other| other == c)
                    == Some(i)
            })
            .map(|(_, c)| c)
    }

    /// Folds a wall-time observation of a sequential run of `loop_id` into
    /// its sequential arm.
    pub fn observe_sequential(&mut self, loop_id: usize, iterations: u64, wall_nanos: u64) {
        if iterations == 0 {
            return;
        }
        let lt = self.loops.entry(loop_id).or_default();
        lt.arms
            .entry(SEQ_ARM)
            .or_default()
            .observe(wall_nanos as f64 / iterations as f64);
    }

    /// Folds a wall-time observation of a parallel run of `loop_id` (split
    /// into `chunks`) into that arm, and the chunks' total modelled cycles
    /// into the loop's cycles-per-iteration model.
    pub fn observe_parallel(
        &mut self,
        loop_id: usize,
        chunks: u32,
        iterations: u64,
        wall_nanos: u64,
        chunk_cycles: u64,
    ) {
        if iterations == 0 {
            return;
        }
        let lt = self.loops.entry(loop_id).or_default();
        lt.arms
            .entry(chunks.max(1))
            .or_default()
            .observe(wall_nanos as f64 / iterations as f64);
        lt.cycles_per_iter
            .observe(chunk_cycles as f64 / iterations as f64);
    }

    /// Calibrates the global pace (wall nanoseconds per modelled sequential
    /// cycle) from a stretch of sequential execution. Callers should only
    /// feed stretches long enough to dominate timer noise.
    pub fn observe_pace(&mut self, sequential_cycles: u64, wall_nanos: u64) {
        if sequential_cycles == 0 {
            return;
        }
        self.pace
            .observe(wall_nanos as f64 / sequential_cycles as f64);
    }

    /// Decides how one invocation of `loop_id` with `iterations` iterations
    /// should run under `threads` configured worker threads.
    pub fn decide(&mut self, loop_id: usize, iterations: u64, threads: u32) -> TuneOutcome {
        let primary = threads.max(1);
        let pace = self.pace;
        let lt = self.loops.entry(loop_id).or_default();
        lt.invocations += 1;
        lt.since_probe += 1;
        let predict = |est: Option<f64>| est.map(|e| (e * iterations as f64) as u64);

        // Cold start: trust the planner until the primary parallel arm has
        // real evidence.
        let Some(primary_est) = lt.arm_estimate(primary) else {
            return TuneOutcome {
                decision: TuneDecision::Parallel { chunks: primary },
                predicted_nanos: None,
                probe: false,
            };
        };

        // Settle or challenge the incumbent. Arms compete on per-iteration
        // estimates; a challenger needs a HYSTERESIS-sized margin.
        let seq_est = lt.sequential_estimate(&pace);
        let best_parallel = Tuner::candidates(primary)
            .filter_map(|c| lt.arm_estimate(c).map(|e| (c, e)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((primary, primary_est));
        // First settled decision: straight comparison, no hysteresis —
        // there is no incumbent to protect yet.
        let incumbent = lt.decision.unwrap_or(match seq_est {
            Some(seq) if seq < best_parallel.1 => TuneDecision::Sequential,
            _ => TuneDecision::Parallel {
                chunks: best_parallel.0,
            },
        });
        let incumbent_est = match incumbent {
            TuneDecision::Sequential => seq_est,
            TuneDecision::Parallel { chunks } => lt.arm_estimate(chunks),
        };
        let decision = match (incumbent, incumbent_est) {
            (_, None) => incumbent,
            (TuneDecision::Sequential, Some(inc)) => {
                if best_parallel.1 < inc * HYSTERESIS {
                    TuneDecision::Parallel {
                        chunks: best_parallel.0,
                    }
                } else {
                    incumbent
                }
            }
            (TuneDecision::Parallel { chunks }, Some(inc)) => {
                if seq_est.is_some_and(|seq| seq < inc * HYSTERESIS)
                    && seq_est.is_some_and(|seq| seq < best_parallel.1 * HYSTERESIS)
                {
                    TuneDecision::Sequential
                } else if best_parallel.0 != chunks && best_parallel.1 < inc * HYSTERESIS {
                    TuneDecision::Parallel {
                        chunks: best_parallel.0,
                    }
                } else {
                    incumbent
                }
            }
        };
        lt.decision = Some(decision);

        // Probe unmeasured arms on a fixed cadence so the incumbent keeps
        // being tested against fresh evidence. Probes run instead of the
        // incumbent for one invocation but do not overwrite the settled
        // decision — only their measurements can, via the arms.
        if lt.since_probe >= PROBE_PERIOD {
            if let Some(unmeasured) = Tuner::candidates(primary)
                .find(|&c| lt.arms.get(&c).is_none_or(|e| e.samples() < MIN_SAMPLES))
            {
                lt.since_probe = 0;
                return TuneOutcome {
                    decision: TuneDecision::Parallel { chunks: unmeasured },
                    predicted_nanos: predict(lt.arm_estimate(unmeasured)),
                    probe: true,
                };
            }
        }
        if decision == TuneDecision::Sequential && lt.since_probe >= REPROBE_SEQ {
            lt.since_probe = 0;
            return TuneOutcome {
                decision: TuneDecision::Parallel {
                    chunks: best_parallel.0,
                },
                predicted_nanos: predict(Some(best_parallel.1)),
                probe: true,
            };
        }

        let predicted = match decision {
            TuneDecision::Sequential => seq_est,
            TuneDecision::Parallel { chunks } => lt.arm_estimate(chunks),
        };
        TuneOutcome {
            decision,
            predicted_nanos: predict(predicted),
            probe: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOP: usize = 7;
    const THREADS: u32 = 4;

    fn parallel(chunks: u32) -> TuneDecision {
        TuneDecision::Parallel { chunks }
    }

    #[test]
    fn cold_start_is_parallel_optimistic() {
        let mut t = Tuner::new();
        // No evidence at all: the planner's parallel choice stands, and no
        // prediction is invented.
        let out = t.decide(LOOP, 1000, THREADS);
        assert_eq!(out.decision, parallel(THREADS));
        assert_eq!(out.predicted_nanos, None);
        assert!(!out.probe);
        // One sample is still below MIN_SAMPLES: stay optimistic.
        t.observe_parallel(LOOP, THREADS, 1000, 50_000, 100_000);
        assert_eq!(t.decide(LOOP, 1000, THREADS).decision, parallel(THREADS));
    }

    #[test]
    fn regression_flips_to_sequential_and_recovers() {
        let mut t = Tuner::new();
        // Pace: 1 nano per modelled cycle, well calibrated.
        t.observe_pace(1_000_000, 1_000_000);
        // The loop body models 100 cycles/iter ⇒ sequential ≈ 100 ns/iter,
        // but parallel runs measure 250 ns/iter: parallelism regresses this
        // loop 2.5×.
        for _ in 0..3 {
            t.observe_parallel(LOOP, THREADS, 1000, 250_000, 100_000);
        }
        let out = t.decide(LOOP, 1000, THREADS);
        assert_eq!(out.decision, TuneDecision::Sequential);
        assert_eq!(out.predicted_nanos, Some(100_000), "cycles × pace × iters");
        // Sequential measurements confirm the model; the decision holds.
        t.observe_sequential(LOOP, 1000, 110_000);
        t.observe_sequential(LOOP, 1000, 110_000);
        assert_eq!(
            t.decide(LOOP, 1000, THREADS).decision,
            TuneDecision::Sequential
        );
        // The workload changes: parallel now wins big. After fresh parallel
        // evidence (e.g. from a re-probe) the tuner flips back.
        for _ in 0..8 {
            t.observe_parallel(LOOP, THREADS, 1000, 20_000, 100_000);
        }
        assert_eq!(t.decide(LOOP, 1000, THREADS).decision, parallel(THREADS));
    }

    #[test]
    fn hysteresis_does_not_flap_on_noise() {
        let mut t = Tuner::new();
        // Sequential and parallel within 10% of each other — inside the
        // hysteresis band. Whoever settles first must keep the decision.
        for _ in 0..3 {
            t.observe_parallel(LOOP, THREADS, 1000, 100_000, 100_000);
        }
        t.observe_sequential(LOOP, 1000, 95_000);
        t.observe_sequential(LOOP, 1000, 95_000);
        let first = t.decide(LOOP, 1000, THREADS).decision;
        // Alternate slightly-better measurements for each side; the
        // decision must never change.
        for i in 0..40 {
            if i % 2 == 0 {
                t.observe_sequential(LOOP, 1000, 92_000);
            } else {
                t.observe_parallel(LOOP, THREADS, 1000, 97_000, 100_000);
            }
            let out = t.decide(LOOP, 1000, THREADS);
            if !out.probe {
                assert_eq!(out.decision, first, "flapped at step {i}");
            }
        }
    }

    #[test]
    fn probes_try_unmeasured_chunk_counts_without_unsettling_the_incumbent() {
        let mut t = Tuner::new();
        for _ in 0..MIN_SAMPLES {
            t.observe_parallel(LOOP, THREADS, 1000, 50_000, 100_000);
        }
        let mut probed = Vec::new();
        for _ in 0..2 * PROBE_PERIOD + 2 {
            let out = t.decide(LOOP, 1000, THREADS);
            if out.probe {
                probed.push(out.decision);
                // A probe still proposes a concrete parallel plan.
                assert!(matches!(out.decision, TuneDecision::Parallel { .. }));
            } else {
                assert_eq!(out.decision, parallel(THREADS), "incumbent unsettled");
            }
        }
        assert!(
            !probed.is_empty(),
            "PROBE_PERIOD invocations must trigger a probe of 2 or 8 chunks"
        );
        assert!(probed.iter().all(|d| *d != parallel(THREADS)));
    }

    #[test]
    fn settled_sequential_reprobes_parallel_eventually() {
        let mut t = Tuner::new();
        for _ in 0..3 {
            t.observe_parallel(LOOP, THREADS, 1000, 300_000, 100_000);
        }
        for c in [(THREADS / 2).max(1), THREADS * 2] {
            for _ in 0..MIN_SAMPLES {
                t.observe_parallel(LOOP, c, 1000, 300_000, 100_000);
            }
        }
        t.observe_sequential(LOOP, 1000, 100_000);
        t.observe_sequential(LOOP, 1000, 100_000);
        assert_eq!(
            t.decide(LOOP, 1000, THREADS).decision,
            TuneDecision::Sequential
        );
        let mut saw_parallel_probe = false;
        for _ in 0..2 * REPROBE_SEQ {
            let out = t.decide(LOOP, 1000, THREADS);
            if out.probe {
                saw_parallel_probe |= matches!(out.decision, TuneDecision::Parallel { .. });
            }
        }
        assert!(saw_parallel_probe, "sequential loops must re-try parallel");
    }

    #[test]
    fn virtual_time_measurements_keep_parallel_execution() {
        // Under the virtual-time backend batch wall time is 0, so the
        // parallel arm estimates 0 ns/iter and always wins: adaptation is a
        // no-op there by construction.
        let mut t = Tuner::new();
        t.observe_pace(1_000_000, 1_000_000);
        for _ in 0..5 {
            t.observe_parallel(LOOP, THREADS, 1000, 0, 100_000);
        }
        let out = t.decide(LOOP, 1000, THREADS);
        assert_eq!(out.decision, parallel(THREADS));
    }

    #[test]
    fn candidates_deduplicate() {
        let c: Vec<u32> = Tuner::candidates(1).collect();
        assert_eq!(c, vec![1, 2]);
        let c: Vec<u32> = Tuner::candidates(4).collect();
        assert_eq!(c, vec![4, 2, 8]);
    }
}
