//! # janus-workloads — the synthetic SPEC CPU 2006 stand-ins
//!
//! The paper evaluates Janus on SPEC CPU 2006, which cannot be redistributed
//! or compiled for the Janus Virtual Architecture. This crate provides 25
//! synthetic benchmark programs, one per SPEC benchmark used in the paper's
//! Figure 6, each modelled on the published loop-category mix and hot-loop
//! character of the original: the floating-point codes are dominated by
//! DOALL stencils and reductions (with bwaves calling `pow` from the shared
//! library inside its hot loop, and several codes walking arrays through
//! pointer parameters so that runtime bounds checks are required), while the
//! integer and C++ codes are dominated by pointer chasing, indirect calls,
//! IO and irregular control flow that make their loops incompatible with
//! DOALL parallelisation.
//!
//! Each workload carries a `train` and a `ref` input scale; profiling runs
//! use the training scale, measured runs the reference scale.
//!
//! Beyond the 25 SPEC stand-ins, [`speculative_benchmarks`] names four
//! may-dependent (DOACROSS-shaped) kernels — histogram scatter-add, sparse
//! field update, gather/scatter and a sliding-window recurrence — whose hot
//! loops the seed pipeline must serialise; they exist to exercise the
//! `janus-spec` iteration-level speculation engine and feed the `table3`
//! abort-rate figure.
//!
//! The names refer to the SPEC benchmarks only to indicate *which published
//! behaviour each synthetic program imitates*; none of the original source
//! code or data is included.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gen;
pub mod suite;

pub use gen::{ArraySpec, ElemTy, GenOp, LoopSpec, ProgramSpec};
pub use suite::{
    all_names, fuzz_regressions, parallel_benchmarks, speculative_benchmarks, suite, workload,
    Workload, WorkloadClass,
};
