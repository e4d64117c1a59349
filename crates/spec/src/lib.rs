//! # janus-spec — Block-STM-style speculative DOACROSS loop execution
//!
//! The seed system parallelises loops it can prove (or bounds-check) to be
//! DOALL; loops with *may* cross-iteration dependences — data-dependent
//! subscripts such as `hist[idx[i]] += w[i]`, sliding windows, sparse
//! scatters — either run serially or hide behind the one-shot JudoSTM view in
//! `janus-dbm`. This crate supplies the missing runtime: an optimistic,
//! multi-version, lazily-validated execution engine for whole loop
//! invocations, modelled on Block-STM (and its Rust incarnations such as
//! `pevm`), adapted to the deterministic virtual-time substrate of this
//! reproduction.
//!
//! ## Architecture
//!
//! * [`MvStore`] — a **multi-version guest-memory store** keyed by
//!   `(word address, iteration)`, indexed on the same
//!   [`janus_vm::PageTable`] radix as the copy-on-write overlay and layered
//!   over [`janus_vm::GuestMemory`]. A speculative read
//!   by iteration *i* observes the highest write below *i* that is *visible
//!   at the reader's virtual start time*; aborted incarnations leave
//!   *estimate* markers that block readers instead of letting them execute
//!   into a doomed validation. The engine owns it: no lock, and write sets
//!   are ranges into one buffer per invocation. [`MvMemory`] is the same
//!   store behind a lock, kept only for the ledger's micro-benchmarks.
//! * [`SpecView`] — the per-incarnation view: buffered writes, first-read
//!   origin+value tracking, byte accesses composed through aligned words,
//!   over [`ViewBuffers`] its engine reuses from incarnation to incarnation.
//!   Both sets are vectors sorted by word, searched by bisection.
//! * [`scheduler::Scheduler`] — the **collaborative scheduler**: Block-STM's
//!   execution/validation counters and task preference, with both frontier
//!   operations bounded by the highest iteration ever dispatched, so an
//!   invocation costs O(iterations + aborts); [`scheduler::Lanes`] charges
//!   every task to the least-loaded of `lanes` virtual workers so the
//!   reported parallel time is a reproducible model of `lanes`-way execution.
//! * [`run_speculative`] — the engine: dispatches tasks until every
//!   iteration validates, re-executing **only the dependents of a failed
//!   iteration**, then commits the serial-equivalent final image into base
//!   memory.
//!
//! ## One engine
//!
//! [`run_speculative`] runs tasks one at a time from a single coordinator,
//! gates multi-version visibility by virtual lane time, and therefore
//! produces bit-identical conflicts, abort counts and modelled parallel
//! cycles on every run and every machine. Both of `janus-dbm`'s backends
//! call it for every speculative invocation, which is why modelled cycles
//! and every figure are invariant across execution backends; the native
//! backend only adds the invocation's wall-clock time.
//!
//! ## Lazy validation vs. the JudoSTM design
//!
//! The `janus-dbm` STM ([`TxView`](../janus_dbm/index.html)) follows JudoSTM:
//! a transaction validates *eagerly at commit*, by re-reading every logged
//! address and comparing **values**, and a conflict rolls the whole
//! transaction back to be re-run non-speculatively. That is the right shape
//! for its job — wrapping a single dynamically-discovered call — but it has
//! no notion of *who* a conflicting write belonged to, so it cannot scope a
//! rollback to the iterations that actually depended on it.
//!
//! This engine instead validates *lazily* and *versioned*, the Block-STM way:
//! every read records the `(iteration, incarnation)` it read from, validation
//! re-resolves the read against the multi-version store and passes when the
//! **read-from version is unchanged** — falling back to JudoSTM's value
//! comparison, which forgives silent re-writes of the same value. A failed
//! iteration converts its writes to estimates and is re-executed; only
//! iterations that actually read those writes (directly, via estimates, or
//! through a failed re-resolution) follow it, while independent iterations
//! keep their results. Abort cost is therefore proportional to the *real*
//! dependence structure of the loop, not to its length — which is what makes
//! DOACROSS loops profitable to speculate at all.
//!
//! ## Determinism
//!
//! Real Block-STM races threads against each other; two runs can abort
//! different iterations. Here every source of nondeterminism is replaced by
//! virtual time: an execution task starts at the least-loaded lane's clock,
//! its writes become visible at its completion time, and a read only sees
//! writes recorded at or before the reader's start. Conflicts — and thus
//! abort counts, retry counts and the reported speedup — are a pure function
//! of the schedule, reproducible across runs and machines.
//!
//! # Example
//!
//! ```
//! use janus_spec::{run_speculative, IterationRun, SpecView};
//! use janus_vm::{FlatMemory, GuestMemory};
//!
//! // hist[i % 3] += i, speculatively, over 4 lanes.
//! let mut mem = FlatMemory::new();
//! let out = run_speculative(
//!     4,
//!     &mut mem,
//!     24,
//!     |i, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
//!         let addr = 0x1000 + (i as u64 % 3) * 8;
//!         let v = view.read_u64(addr);
//!         view.write_u64(addr, v + i as u64);
//!         Ok(IterationRun { cycles: 20, payload: () })
//!     },
//! )
//! .unwrap();
//! // The committed image equals the serial execution's final memory.
//! for k in 0..3u64 {
//!     let expect: u64 = (0..24u64).filter(|i| i % 3 == k).sum();
//!     assert_eq!(mem.read_u64(0x1000 + k * 8), expect);
//! }
//! assert_eq!(out.stats.iterations, 24);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod mv;
pub mod scheduler;

pub use engine::{run_speculative, IterationRun, SpecOutcome};
pub use mv::{
    Incarnation, Iteration, MvMemory, MvStore, ReadEntry, ReadOrigin, ReadResult, SpecView,
    ViewBuffers, ViewStats,
};
pub use scheduler::Lanes;

use std::fmt;

/// Counters describing one speculative invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Iterations in the invocation.
    pub iterations: u64,
    /// Incarnations that ran to completion (>= `iterations`; the excess is
    /// re-execution work caused by conflicts).
    pub executions: u64,
    /// Aborts: failed validations, estimate stalls and retried faults.
    pub aborts: u64,
    /// Validation tasks performed.
    pub validations: u64,
    /// Executions abandoned early because they read an estimate marker.
    pub estimate_stalls: u64,
    /// Guest faults retried as conflicts (reads of inconsistent state).
    pub faults_retried: u64,
    /// Speculative word reads tracked.
    pub reads: u64,
    /// Speculative word writes buffered.
    pub writes: u64,
    /// Highest incarnation index any iteration reached.
    pub max_incarnation: u32,
    /// Distinct words that ever held a speculative version.
    pub versioned_words: u64,
}

/// Errors raised by the speculative engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError<E> {
    /// The loop body faulted on consistent state (a genuine guest error).
    Body(E),
    /// The task budget was exhausted; the loop is too dependent to speculate
    /// profitably and should run sequentially.
    AbortLimit {
        /// Iterations in the invocation.
        iterations: usize,
        /// Tasks dispatched before giving up.
        tasks: u64,
    },
}

impl<E: fmt::Display> fmt::Display for SpecError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Body(e) => write!(f, "speculative loop body failed: {e}"),
            SpecError::AbortLimit { iterations, tasks } => write!(
                f,
                "speculation abandoned after {tasks} tasks over {iterations} iterations"
            ),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for SpecError<E> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e: SpecError<String> = SpecError::Body("bad pc".to_string());
        assert!(e.to_string().contains("bad pc"));
        let e: SpecError<String> = SpecError::AbortLimit {
            iterations: 8,
            tasks: 600,
        };
        assert!(e.to_string().contains("600 tasks"));
    }
}
