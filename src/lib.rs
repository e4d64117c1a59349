//! # janus — automatic dynamic binary parallelisation
//!
//! Facade crate for the Janus reproduction (Zhou & Jones, CGO 2019). It
//! re-exports the public API of every subsystem crate so applications can use
//! a single dependency:
//!
//! * [`ir`] — the Janus Virtual Architecture (instructions, encoding, JBin).
//! * [`vm`] — the guest machine, interpreter and shared system library.
//! * [`compile`] — the mini optimising compiler used to produce binaries.
//! * [`analysis`] — the static binary analyser (CFG, SSA, loops, dependence).
//! * [`schedule`] — rewrite rules and rewrite schedules.
//! * [`profile`] — statically-driven coverage and dependence profiling.
//! * [`dbm`] — the dynamic binary modifier and parallel runtime.
//! * [`spec`] — Block-STM-style speculative DOACROSS loop execution.
//! * [`core`] — the end-to-end Janus pipeline.
//! * [`serve`] — the multi-tenant serving layer: two-tier content-addressed
//!   artifact cache (memory LRU over a persistent disk store) plus a fair
//!   job executor with tenant quotas and deadline admission.
//! * [`obs`] — the flight recorder (structured tracing spans with the
//!   Chrome-trace exporter, threaded through the serving and
//!   execution stack behind [`serve::ServeConfig::trace`] /
//!   [`core::JanusConfig::trace`]) and the always-on metrics registry
//!   (counters, gauges, latency histograms, Prometheus exposition).
//! * [`workloads`] — the synthetic SPEC-like benchmark programs.
//!
//! `docs/ARCHITECTURE.md` in the repository is the systems-level tour of
//! how these crates fit together — the end-to-end pipeline, the two
//! execution backends and why their modelled numbers are identical, and
//! the artifact lifecycle from content digest through memory cache to the
//! persistent disk store.
//!
//! # Quickstart
//!
//! ```
//! use janus::core::{Janus, JanusConfig};
//! use janus::workloads::workload;
//!
//! // Build a DOALL workload binary (training scale) and parallelise it.
//! let w = workload("470.lbm").expect("workload exists");
//! let binary = janus::compile::Compiler::new().compile(&w.train_program).expect("compiles");
//! let janus = Janus::with_config(JanusConfig { threads: 4, ..JanusConfig::default() });
//! let report = janus.run(&binary, &[]).expect("runs to completion");
//! assert!(report.outputs_match);
//! assert!(report.speedup() > 1.0);
//! ```
//!
//! # Serving many invocations
//!
//! For batch and multi-tenant workloads, open a serving session instead of
//! calling [`core::Janus::run`] per invocation: the session caches each
//! binary's analysis and rewrite schedule by content digest (built exactly
//! once, however many clients submit it) and executes jobs concurrently on
//! a worker pool that schedules tenants fairly by deficit round-robin.
//! Set [`serve::ServeConfig::store_dir`] to persist every artifact to a
//! content-addressed disk store shared across sessions and processes — a
//! restarted session warm-starts from it with zero pipeline rebuilds.
//!
//! ```
//! use std::sync::Arc;
//! use janus::core::Janus;
//! use janus::serve::{JobSpec, ServeConfig, ServeSession};
//! use janus::workloads::workload;
//!
//! let w = workload("470.lbm").expect("workload exists");
//! let binary = Arc::new(
//!     janus::compile::Compiler::new().compile(&w.train_program).expect("compiles"),
//! );
//! let handle = Janus::new().serve(ServeConfig::default());
//! handle.submit(JobSpec::new(binary.clone())).expect("admitted");
//! handle.submit(JobSpec::new(binary)).expect("admitted");
//! let outcomes = handle.join();
//! assert!(outcomes.iter().all(|(_, r)| r.is_ok()));
//! assert_eq!(handle.stats().cache_misses, 1, "one analysis for two jobs");
//! ```

pub use janus_analysis as analysis;
pub use janus_compile as compile;
pub use janus_core as core;
pub use janus_dbm as dbm;
pub use janus_ir as ir;
pub use janus_obs as obs;
pub use janus_profile as profile;
pub use janus_schedule as schedule;
pub use janus_serve as serve;
pub use janus_spec as spec;
pub use janus_vm as vm;
pub use janus_workloads as workloads;
