//! `prepare`: `Janus::prepare` (analysis, profile, select, schedule) over the
//! 13 reference-scale binaries plus the seeded generated population.
//!
//! The front half alone — the paper's "once per binary" cost. It is
//! profile-dominated on the big suite binaries and analysis/schedule-
//! dominated on the small generated ones; no guest program is executed
//! outside the profiler.

use super::{bump, fold, Counts, Ops, Reading, Workload};
use crate::harness::{self, Cfg, Scale};
use crate::trace::Tracer;
use janus::core::{Janus, PipelineArtifacts};
use janus::ir::JBinary;
use janus::schedule::RewriteSchedule;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub struct Prepare {
    janus: Janus,
    /// Suite binaries first, then the population.
    binaries: Vec<(String, Arc<JBinary>)>,
    suite_len: usize,
    /// Totals of the last traced repetition.
    loops: u64,
    insts: u64,
    counts: Counts,
}

impl Prepare {
    pub fn setup(cfg: &Cfg) -> Result<Prepare, String> {
        let mut binaries: Vec<(String, Arc<JBinary>)> =
            harness::compile_suite(&harness::suite_names(), Scale::Ref)
                .into_iter()
                .map(|b| (b.name.to_string(), b.binary))
                .collect();
        let suite_len = binaries.len();
        binaries.extend(
            harness::population(cfg.seed, cfg.population())
                .into_iter()
                .map(|g| (g.name, g.binary)),
        );
        Ok(Prepare {
            janus: harness::janus_with(cfg.threads),
            binaries,
            suite_len,
            loops: 0,
            insts: 0,
            counts: Counts::new(),
        })
    }
}

impl Workload for Prepare {
    fn rep(&mut self, t: &mut Tracer, ops: &mut Ops) -> Counts {
        let mut counts = Counts::new();
        let (mut loops, mut insts) = (0u64, 0u64);
        for (name, binary) in &self.binaries {
            let span = t.begin("binary", name);
            let start = Instant::now();
            let prepared = t.time("core.prepare", name, || self.janus.prepare(binary, &[]));
            ops.timed(start);
            let artifacts = match prepared {
                Ok(artifacts) => {
                    ops.check(Ok(()));
                    artifacts
                }
                Err(e) => {
                    ops.check(Err(format!("{name}: prepare failed: {e}")));
                    t.end(span);
                    continue;
                }
            };
            bump(
                &mut counts,
                "core.selected_loops",
                artifacts.selected_loops.len() as u64,
            );
            bump(
                &mut counts,
                "core.speculative_loops",
                artifacts.speculative_loops.len() as u64,
            );
            bump(&mut counts, "schedule.bytes", artifacts.schedule_size);
            bump(
                &mut counts,
                "schedule.rules",
                artifacts.schedule.len() as u64,
            );
            // Order-sensitive fold of every schedule: any change to what
            // `prepare` decides shows as a count that does not repeat.
            fold(
                &mut counts,
                "schedule.digest_fold",
                artifacts.schedule.content_digest(),
            );

            if t.is_enabled() {
                insts += binary.num_instructions();
                loops += decompose(&self.janus, t, name, binary, &artifacts, ops);
            }
            t.end(span);
        }
        if t.is_enabled() {
            self.loops = loops;
            self.insts = insts;
        }
        self.counts = counts.clone();
        counts
    }

    fn layers(&mut self, t: &Tracer) -> Vec<Reading> {
        let reps = t.spans().iter().filter(|s| s.name == "rep").count().max(1) as f64;
        let total_ms = |name: &str| t.durations(name).iter().sum::<f64>() / reps / 1e6;
        let mean_us = |name: &str| t.mean_ns(name) / 1e3;
        let count = |name: &str| self.counts.get(name).copied().unwrap_or(0) as f64;
        // `profile.share` is over the suite half, where the profiler runs
        // real programs: the decomposed stages of the suite binaries only.
        let suite_ids: Vec<&str> = self.binaries[..self.suite_len]
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        let suite_ns = |name: &str| -> f64 {
            t.spans()
                .iter()
                .filter(|s| s.name == name && suite_ids.contains(&s.id.as_str()))
                .map(|s| s.dur_ns() as f64)
                .sum()
        };
        vec![
            ("analysis.analyze_us", mean_us("analysis.analyze")),
            ("analysis.loops", self.loops as f64),
            ("analysis.insts", self.insts as f64),
            ("profile.profile_ms", total_ms("profile.profile")),
            (
                "profile.share",
                suite_ns("profile.profile") / suite_ns("core.decomposed").max(1.0),
            ),
            ("schedule.generate_us", mean_us("schedule.generate")),
            ("schedule.encode_us", mean_us("schedule.encode")),
            ("schedule.decode_us", mean_us("schedule.decode")),
            ("schedule.bytes", count("schedule.bytes")),
            ("schedule.rules", count("schedule.rules")),
            ("core.prepare_ms", total_ms("core.prepare")),
            ("core.select_us", mean_us("core.select")),
            ("core.artifacts_encode_us", mean_us("core.artifacts_encode")),
            ("core.artifacts_decode_us", mean_us("core.artifacts_decode")),
            ("core.selected_loops", count("core.selected_loops")),
            ("core.speculative_loops", count("core.speculative_loops")),
        ]
    }
}

/// The traced-run extras for one binary: `prepare` again as its four public
/// stages, then the two byte formats. Returns the number of loops analysis
/// found.
fn decompose(
    janus: &Janus,
    t: &mut Tracer,
    name: &str,
    binary: &JBinary,
    artifacts: &PipelineArtifacts,
    ops: &mut Ops,
) -> u64 {
    let mut loops = 0;
    let stages = t.begin_extra("core.decomposed", name);
    let staged = (|| {
        let analysis = t.time("analysis.analyze", name, || janus.analyze(binary))?;
        loops = analysis.loops.len() as u64;
        let profile = t.time("profile.profile", name, || {
            janus.profile(binary, &analysis, &[])
        })?;
        let selected = t.time("core.select", name, || {
            janus.select_loops(&analysis, Some(&profile))
        });
        let schedule = t.time("schedule.generate", name, || {
            janus.generate_schedule(binary, &analysis, &selected)
        });
        Ok::<_, janus::core::JanusError>((selected, schedule))
    })();
    t.end(stages);
    // The stages must compose to what `prepare` returned.
    ops.check(match staged {
        Ok((selected, schedule)) => {
            if selected == artifacts.selected_loops
                && schedule.content_digest() == artifacts.schedule.content_digest()
            {
                Ok(())
            } else {
                Err(format!(
                    "{name}: staged pipeline disagrees with Janus::prepare"
                ))
            }
        }
        Err(e) => Err(format!("{name}: staged pipeline failed: {e}")),
    });

    let formats = t.begin_extra("core.formats", name);
    let bytes = t.time("schedule.encode", name, || artifacts.schedule.to_bytes());
    let decoded = t.time("schedule.decode", name, || {
        RewriteSchedule::from_bytes(&bytes)
    });
    let packed = t.time("core.artifacts_encode", name, || artifacts.to_bytes());
    let unpacked = t.time("core.artifacts_decode", name, || {
        PipelineArtifacts::from_bytes(&packed)
    });
    t.end(formats);
    ops.check(match (decoded, unpacked) {
        (Ok(schedule), Ok(unpacked))
            if schedule.content_digest() == artifacts.schedule.content_digest()
                && unpacked.binary_digest == artifacts.binary_digest =>
        {
            Ok(())
        }
        _ => Err(format!("{name}: artifact bytes do not round-trip")),
    });
    black_box(loops)
}
