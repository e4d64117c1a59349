//! The janus ledger: six fixed-work workloads against the public API of the
//! `janus` facade, every guest result checked against a committed reference,
//! end-to-end metrics from untraced runs and per-layer metrics from an
//! outside-in traced run. See `benchmark/README.md`.

pub mod calib;
pub mod child;
pub mod cli;
pub mod compare;
pub mod driver;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod micro;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workloads;
