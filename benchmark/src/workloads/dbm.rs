//! `doall` and `spec`: `PreparedDbm::execute` at T native threads.
//!
//! `doall` runs the nine DOALL / dynamic-DOALL binaries: chunk planning,
//! per-invocation thread spawn, `CowMemory` views and `merge_chunk_overlays`
//! carry the run, speculation does nothing. `spec` runs the four `spec.*`
//! kernels: `MvMemory`, the `Scheduler`, the racing pool and the
//! deterministic replay dominate (guest instructions are under 1% of wall).
//! Analysis and preparation are set-up for both, so each is the other's
//! bypass.

use super::{bump, fold, Counts, Ops, Reading, Workload};
use crate::harness::{self, procfs, Cfg, Scale, SuiteBinary};
use crate::micro;
use crate::reference::{Expected, GuestResult};
use crate::stats::geomean;
use crate::trace::Tracer;
use janus::core::{DbmConfig, PreparedDbm, SpecCommitMode};
use janus::dbm::{DbmRunResult, DbmStats};
use janus::schedule::RewriteSchedule;
use janus::vm::Vm;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Doall,
    Spec,
}

struct Prepared {
    suite: SuiteBinary,
    schedule: RewriteSchedule,
    dbm: PreparedDbm,
}

/// What the traced repetitions accumulate beside their spans.
#[derive(Default)]
struct Traced {
    reps: u64,
    /// Sums over the core `execute` calls at T threads.
    stats: Vec<DbmStats>,
    /// Counts of the one-thread runs (`doall` only).
    t1_retired: u64,
    t1_pages_merged: u64,
    /// CPU seconds burned inside the core `execute` calls (`spec` only).
    cpu_s: f64,
}

pub struct DbmWorkload {
    kind: Kind,
    cfg: Cfg,
    expected: Expected,
    config: DbmConfig,
    binaries: Vec<Prepared>,
    /// Per binary, the modelled cycles of the last repetition's `execute`.
    cycles: Vec<u64>,
    traced: Traced,
}

impl DbmWorkload {
    pub fn setup(cfg: &Cfg, kind: Kind) -> Result<DbmWorkload, String> {
        let expected = Expected::load(&cfg.expected)?;
        let names = match kind {
            Kind::Doall => harness::doall_names(),
            Kind::Spec => harness::spec_names(),
        };
        let janus = harness::janus_with(cfg.threads);
        let config = janus.dbm_config();
        let binaries = harness::compile_suite(&names, Scale::Ref)
            .into_iter()
            .map(|suite| {
                let artifacts = janus
                    .prepare(&suite.binary, &[])
                    .map_err(|e| format!("{}: prepare failed: {e}", suite.name))?;
                let dbm = PreparedDbm::new(suite.process.clone(), &artifacts.schedule, config);
                Ok(Prepared {
                    suite,
                    schedule: artifacts.schedule,
                    dbm,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(DbmWorkload {
            kind,
            cfg: cfg.clone(),
            expected,
            config,
            binaries,
            cycles: Vec::new(),
            traced: Traced::default(),
        })
    }
}

fn run_error(name: &str, what: &str, e: impl std::fmt::Display) -> String {
    format!("{name}: {what} failed: {e}")
}

impl Workload for DbmWorkload {
    fn rep(&mut self, t: &mut Tracer, ops: &mut Ops) -> Counts {
        let mut counts = Counts::new();
        let traced = t.is_enabled();
        if traced {
            self.traced.reps += 1;
        }
        self.cycles.clear();
        for p in &self.binaries {
            let name = p.suite.name;
            let span = t.begin("binary", name);

            let cpu_before = if traced { procfs::cpu_seconds() } else { 0.0 };
            let part = Instant::now();
            let run = t.time("dbm.execute", name, || p.dbm.execute(&[]));
            ops.timed(part);
            if traced {
                self.traced.cpu_s += procfs::cpu_seconds() - cpu_before;
            }
            let outcome = t.time("bench.check", name, || match &run {
                Ok(run) => {
                    self.expected
                        .check_outputs(Scale::Ref, name, &GuestResult::from_dbm(run))
                }
                Err(e) => Err(run_error(name, "execute", e)),
            });
            ops.check(outcome);
            if let Ok(run) = &run {
                count_run(&mut counts, run);
                self.cycles.push(run.cycles);
                if traced {
                    self.traced.stats.push(run.stats);
                }
            }

            if traced {
                // The same problem under the plain interpreter: the
                // denominator of the paper's headline, in host time.
                let x = t.begin_extra("vm.run", name);
                let mut vm = Vm::new(p.suite.process.clone());
                let native = vm.run();
                t.end(x);
                if let Err(e) = native {
                    ops.check(Err(run_error(name, "Vm::run", e)));
                }

                let x = t.begin_extra("dbm.prepare", name);
                std::hint::black_box(PreparedDbm::new(
                    p.suite.process.clone(),
                    &p.schedule,
                    self.config,
                ));
                t.end(x);

                match self.kind {
                    Kind::Doall => {
                        let one = DbmConfig {
                            threads: 1,
                            ..self.config
                        };
                        let x = t.begin_extra("dbm.execute.t1", name);
                        let run = p.dbm.execute_with(&[], one);
                        t.end(x);
                        ops.check(match &run {
                            Ok(run) => {
                                self.traced.t1_retired += run.stats.retired;
                                self.traced.t1_pages_merged += run.stats.merge_pages_merged;
                                self.expected.check_outputs(
                                    Scale::Ref,
                                    name,
                                    &GuestResult::from_dbm(run),
                                )
                            }
                            Err(e) => Err(run_error(name, "one-thread execute", e)),
                        });

                        // The tuner's trial.
                        let adaptive = DbmConfig {
                            adaptive: true,
                            ..self.config
                        };
                        let x = t.begin_extra("dbm.execute.adaptive", name);
                        let run = p.dbm.execute_with(&[], adaptive);
                        t.end(x);
                        ops.check(self.check(name, "adaptive execute", run));
                    }
                    Kind::Spec => {
                        // Commit the raced image and skip the deterministic
                        // replay: prices race-then-replay from outside.
                        let raced = DbmConfig {
                            spec_commit: SpecCommitMode::RacedImage,
                            ..self.config
                        };
                        let x = t.begin_extra("dbm.execute.raced", name);
                        let run = p.dbm.execute_with(&[], raced);
                        t.end(x);
                        ops.check(self.check(name, "raced-image execute", run));
                    }
                }
            }
            t.end(span);
        }
        counts
    }

    /// Geomean over the binaries of modelled `Vm::run` cycles over modelled
    /// DBM cycles: the paper's Fig. 7 number.
    fn modelled_speedup(&self) -> Option<f64> {
        let ratios: Vec<f64> = self
            .binaries
            .iter()
            .zip(&self.cycles)
            .filter_map(|(p, &dbm)| {
                let vm = self
                    .expected
                    .entry(Scale::Ref, p.suite.name)
                    .ok()?
                    .vm
                    .cycles;
                Some(vm as f64 / dbm.max(1) as f64)
            })
            .collect();
        (ratios.len() == self.binaries.len()).then(|| geomean(&ratios))
    }

    fn layers(&mut self, t: &Tracer) -> Vec<Reading> {
        let tr = &self.traced;
        let reps = tr.reps.max(1) as f64;
        let sum = |f: fn(&DbmStats) -> u64| tr.stats.iter().map(f).sum::<u64>() as f64 / reps;
        let total_ns = |name: &str| t.durations(name).iter().sum::<f64>() / reps;
        let execute_ns = total_ns("dbm.execute");
        let vm_ns = total_ns("vm.run");
        let retired = sum(|s| s.retired);
        let cycles = self.cycles.iter().sum::<u64>() as f64;
        let modelled_speedup = self.modelled_speedup().unwrap_or(f64::NAN);
        // Per binary: interpreter wall over DBM wall, from the last traced
        // repetition's spans (one pair per binary).
        let per_binary = |name: &str| -> Vec<f64> {
            let n = self.binaries.len();
            let d = t.durations(name);
            d[d.len().saturating_sub(n)..].to_vec()
        };
        let wall_speedups: Vec<f64> = per_binary("vm.run")
            .iter()
            .zip(per_binary("dbm.execute"))
            .map(|(vm, dbm)| vm / dbm)
            .collect();
        let vm_ns_per_inst = vm_ns / retired.max(1.0);
        let wall_per_mcycle_ms = execute_ns / 1e6 / (cycles / 1e6);

        match self.kind {
            Kind::Doall => {
                let cow =
                    micro::cow_memory(self.cfg.micro_iters(1 << 18), self.cfg.threads as usize);
                let t1_ns = total_ns("dbm.execute.t1");
                let merged = sum(|s| s.merge_pages_merged);
                let skipped = sum(|s| s.merge_pages_skipped);
                let invocations = sum(|s| s.parallel_invocations);
                let parallel_ns = sum(|s| s.parallel_wall_nanos);
                // Outside-in estimate of the one-thread run: interpretation
                // at Vm::run's rate plus merging at the microbenchmark's.
                let estimate_ns = tr.t1_retired as f64 / reps * vm_ns_per_inst
                    + tr.t1_pages_merged as f64 / reps * cow.merge_us_per_page * 1e3;
                vec![
                    ("vm.cow_load_ns", cow.load_ns),
                    ("vm.cow_store_ns", cow.store_ns),
                    ("vm.cow_first_touch_ns", cow.first_touch_ns),
                    ("vm.merge_us_per_page", cow.merge_us_per_page),
                    ("dbm.prepare_us", t.mean_ns("dbm.prepare") / 1e3),
                    ("dbm.execute_ns_per_inst", execute_ns / retired.max(1.0)),
                    (
                        "dbm.t1_ns_per_inst",
                        t1_ns / (tr.t1_retired as f64 / reps).max(1.0),
                    ),
                    ("dbm.thread_scaling", t1_ns / execute_ns),
                    ("dbm.wall_speedup_vs_vm", geomean(&wall_speedups)),
                    ("dbm.parallel_share", parallel_ns / execute_ns),
                    (
                        "dbm.us_per_invocation",
                        parallel_ns / 1e3 / invocations.max(1.0),
                    ),
                    (
                        "dbm.adaptive_over_static",
                        total_ns("dbm.execute.adaptive") / execute_ns,
                    ),
                    (
                        "dbm.merge_skip_ratio",
                        skipped / (skipped + merged).max(1.0),
                    ),
                    ("dbm.wall_per_mcycle", wall_per_mcycle_ms),
                    ("dbm.modelled_speedup", modelled_speedup),
                    ("dbm.unattributed_share", 1.0 - estimate_ns / t1_ns),
                    ("dbm.modelled_cycles", cycles),
                    ("dbm.parallel_invocations", invocations),
                    ("dbm.sequential_fallbacks", sum(|s| s.sequential_fallbacks)),
                    ("dbm.bounds_checks", sum(|s| s.bounds_checks_executed)),
                    ("dbm.blocks_translated", sum(|s| s.blocks_translated)),
                    ("dbm.merge_pages_merged", merged),
                    ("dbm.merge_pages_skipped", skipped),
                    (
                        "dbm.os_threads_used",
                        tr.stats
                            .iter()
                            .map(|s| s.os_threads_used)
                            .max()
                            .unwrap_or(0) as f64,
                    ),
                    ("dbm.stm_transactions", sum(|s| s.stm_transactions)),
                    ("dbm.stm_aborts", sum(|s| s.stm_aborts)),
                ]
            }
            Kind::Spec => {
                let unit =
                    micro::speculation(self.cfg.micro_iters(1 << 16), self.cfg.threads as usize);
                let iterations = sum(|s| s.spec_iterations);
                let executions = sum(|s| s.spec_executions);
                let validations = sum(|s| s.spec_validations);
                let reads = sum(|s| s.spec_reads);
                let writes = sum(|s| s.spec_writes);
                // Outside-in estimate of the CPU the core runs burned.
                let estimate_s = (retired * vm_ns_per_inst
                    + reads * unit.mv_read_ns
                    + writes * unit.mv_record_ns
                    + (executions + validations) * unit.sched_task_ns)
                    / 1e9;
                vec![
                    (
                        "spec.us_per_iteration",
                        execute_ns / 1e3 / iterations.max(1.0),
                    ),
                    ("spec.wall_per_mcycle", wall_per_mcycle_ms),
                    (
                        "spec.raced_over_det",
                        total_ns("dbm.execute.raced") / execute_ns,
                    ),
                    ("spec.wall_speedup_vs_vm", geomean(&wall_speedups)),
                    ("spec.mv_read_ns", unit.mv_read_ns),
                    ("spec.mv_record_ns", unit.mv_record_ns),
                    ("spec.mv_read_contended_ns", unit.mv_read_contended_ns),
                    ("spec.sched_task_ns", unit.sched_task_ns),
                    ("spec.useful_ratio", iterations / executions.max(1.0)),
                    ("spec.modelled_speedup", modelled_speedup),
                    (
                        "spec.unattributed_share",
                        1.0 - estimate_s / (tr.cpu_s / reps).max(1e-9),
                    ),
                    ("spec.invocations", sum(|s| s.spec_invocations)),
                    ("spec.iterations", iterations),
                    ("spec.executions", executions),
                    ("spec.aborts", sum(|s| s.spec_aborts)),
                    ("spec.validations", validations),
                    ("spec.fallbacks", sum(|s| s.spec_fallbacks)),
                    ("spec.reads", reads),
                    ("spec.writes", writes),
                ]
            }
        }
    }
}

impl DbmWorkload {
    /// Checks a traced-run extra: it ran, and its guest outputs are the
    /// interpreter's.
    fn check(
        &self,
        name: &str,
        what: &str,
        run: Result<DbmRunResult, impl std::fmt::Display>,
    ) -> Result<(), String> {
        let run = run.map_err(|e| run_error(name, what, e))?;
        self.expected
            .check_outputs(Scale::Ref, name, &GuestResult::from_dbm(&run))
            .map_err(|e| format!("{what}: {e}"))
    }
}

/// The modelled counts of one run that must repeat exactly.
fn count_run(counts: &mut Counts, run: &DbmRunResult) {
    let s = &run.stats;
    bump(counts, "dbm.modelled_cycles", run.cycles);
    fold(counts, "dbm.memory_digest_fold", run.memory_digest);
    bump(counts, "dbm.retired", s.retired);
    bump(counts, "dbm.blocks_translated", s.blocks_translated);
    bump(counts, "dbm.parallel_invocations", s.parallel_invocations);
    bump(counts, "dbm.sequential_fallbacks", s.sequential_fallbacks);
    bump(counts, "dbm.bounds_checks", s.bounds_checks_executed);
    bump(counts, "dbm.stm_transactions", s.stm_transactions);
    bump(counts, "spec.invocations", s.spec_invocations);
    bump(counts, "spec.iterations", s.spec_iterations);
    bump(counts, "spec.executions", s.spec_executions);
    bump(counts, "spec.aborts", s.spec_aborts);
    bump(counts, "spec.validations", s.spec_validations);
    bump(counts, "spec.reads", s.spec_reads);
    bump(counts, "spec.writes", s.spec_writes);
}
