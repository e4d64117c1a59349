//! `interp`: plain `Vm::run` of the 13 reference-scale suite binaries.
//!
//! The interpreter over `FlatMemory` does all the work; dbm, spec and serve
//! do none. It is the single-thread baseline of the problems `doall` and
//! `spec` solve, and the bypass on which a dbm/spec/serve optimisation must
//! show no change.

use super::{bump, Counts, Ops, Reading, Workload};
use crate::harness::{self, Cfg, Scale, SuiteBinary};
use crate::micro;
use crate::reference::{Expected, GuestResult};
use crate::trace::Tracer;
use janus::vm::{Process, Vm};
use std::time::Instant;

pub struct Interp {
    cfg: Cfg,
    expected: Expected,
    binaries: Vec<SuiteBinary>,
    compile_ms: f64,
    retired_per_rep: u64,
}

impl Interp {
    pub fn setup(cfg: &Cfg) -> Result<Interp, String> {
        let expected = Expected::load(&cfg.expected)?;
        let start = Instant::now();
        let binaries = harness::compile_suite(&harness::suite_names(), Scale::Ref);
        let compile_ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(Interp {
            cfg: cfg.clone(),
            expected,
            binaries,
            compile_ms,
            retired_per_rep: 0,
        })
    }
}

impl Workload for Interp {
    fn rep(&mut self, t: &mut Tracer, ops: &mut Ops) -> Counts {
        let mut counts = Counts::new();
        for b in &self.binaries {
            let span = t.begin("binary", b.name);
            if t.is_enabled() {
                let load = t.begin_extra("vm.load", b.name);
                let _ = std::hint::black_box(Process::load(&b.binary));
                t.end(load);
            }
            let part = Instant::now();
            let run = t.time("vm.run", b.name, || {
                let mut vm = Vm::new(b.process.clone());
                vm.run().map(|run| (vm, run))
            });
            ops.timed(part);
            let outcome = t.time("bench.check", b.name, || match run {
                Ok((vm, run)) => {
                    bump(&mut counts, "vm.retired", run.retired);
                    bump(&mut counts, "vm.cycles", run.cycles);
                    let got = GuestResult::from_vm(&vm, &run);
                    self.expected
                        .check_vm(Scale::Ref, b.name, &got, run.retired)
                }
                Err(e) => Err(format!("{}: Vm::run failed: {e}", b.name)),
            });
            ops.check(outcome);
            t.end(span);
        }
        self.retired_per_rep = counts.get("vm.retired").copied().unwrap_or(0);
        counts
    }

    fn layers(&mut self, t: &Tracer) -> Vec<Reading> {
        let run_ns: f64 = t.durations("vm.run").iter().sum();
        let reps = t.spans().iter().filter(|s| s.name == "rep").count().max(1) as f64;
        let retired = self.retired_per_rep;
        let flat = micro::flat_memory(self.cfg.micro_iters(1 << 18));
        vec![
            ("compile.compile_ms", self.compile_ms),
            ("vm.load_us", t.mean_ns("vm.load") / 1e3),
            ("vm.run_ns_per_inst", run_ns / reps / retired.max(1) as f64),
            ("vm.retired", retired as f64),
            ("vm.flat_load_ns", flat.flat_load_ns),
            ("vm.flat_store_ns", flat.flat_store_ns),
        ]
    }
}
