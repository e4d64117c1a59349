//! Property-based convergence test for the speculative engine: for *any*
//! random mix of per-iteration reads, writes and read-modify-writes over a
//! small shared address pool — i.e. any conflict structure, hence any
//! abort/validation interleaving the scheduler can produce — the committed
//! memory image must equal the serial execution's final memory, and every
//! iteration's validated payload must be its own.

use janus_obs::Recorder;
use janus_spec::{run_speculative, run_speculative_pooled, IterationRun, SpecConfig, SpecView};
use janus_vm::{FlatMemory, GuestMemory};
use proptest::prelude::*;

/// One guest "instruction" of a synthetic iteration body.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `acc += mem[src]`
    Load { src: u64 },
    /// `mem[dst] = acc + k`
    Store { dst: u64, k: u64 },
    /// `mem[dst] += mem[src] + k` (a dependent read-modify-write)
    AddTo { src: u64, dst: u64, k: u64 },
}

const POOL_BASE: u64 = 0x4000;

fn arb_op(pool: u64) -> impl Strategy<Value = Op> {
    let slot = move || (0..pool).prop_map(|s| POOL_BASE + s * 8);
    prop_oneof![
        slot().prop_map(|src| Op::Load { src }),
        (slot(), 0u64..50).prop_map(|(dst, k)| Op::Store { dst, k }),
        (slot(), slot(), 0u64..50).prop_map(|(src, dst, k)| Op::AddTo { src, dst, k }),
    ]
}

/// Interprets one iteration's ops against any memory; returns the
/// accumulator (used as the iteration payload).
fn interpret<M: GuestMemory>(iteration: usize, ops: &[Op], mem: &mut M) -> u64 {
    let mut acc = iteration as u64;
    for op in ops {
        match *op {
            Op::Load { src } => acc = acc.wrapping_add(mem.read_u64(src)),
            Op::Store { dst, k } => mem.write_u64(dst, acc.wrapping_add(k)),
            Op::AddTo { src, dst, k } => {
                let v = mem.read_u64(src).wrapping_add(k).wrapping_add(acc);
                mem.write_u64(dst, v);
            }
        }
    }
    acc
}

fn initial_memory(pool: u64) -> FlatMemory {
    let mut m = FlatMemory::new();
    for s in 0..pool {
        m.write_u64(POOL_BASE + s * 8, s.wrapping_mul(0x9e37) ^ 0x55);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Speculative execution == serial execution, for any program and any
    /// lane count.
    #[test]
    fn speculative_execution_converges_to_serial(
        programs in proptest::collection::vec(
            proptest::collection::vec(arb_op(6), 1..6),
            1..24,
        ),
        lanes in 1u32..9,
    ) {
        let pool = 6u64;
        // Serial reference.
        let mut serial = initial_memory(pool);
        let mut serial_accs = Vec::new();
        for (i, ops) in programs.iter().enumerate() {
            serial_accs.push(interpret(i, ops, &mut serial));
        }

        // Speculative run.
        let mut spec_mem = initial_memory(pool);
        let config = SpecConfig { lanes, ..SpecConfig::default() };
        let out = run_speculative(
            &config,
            &mut spec_mem,
            programs.len(),
            |i, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
                let acc = interpret(i, &programs[i], view);
                Ok(IterationRun { cycles: 10 + programs[i].len() as u64, payload: acc })
            },
        )
        .expect("synthetic bodies never fault");

        // Final memory converged to the serial image.
        for s in 0..pool {
            let addr = POOL_BASE + s * 8;
            prop_assert_eq!(
                spec_mem.read_u64(addr),
                serial.read_u64(addr),
                "word {} diverged (lanes={}, aborts={})",
                s, lanes, out.stats.aborts
            );
        }
        // Every iteration's surviving payload is the serial one. (The
        // accumulator folds in every value read, so a stale read that
        // mattered would change it.)
        prop_assert_eq!(&out.payloads, &serial_accs);
        // Sanity on the counters.
        prop_assert_eq!(out.stats.iterations as usize, programs.len());
        prop_assert!(out.stats.executions >= out.stats.iterations);
        prop_assert!(out.stats.validations >= out.stats.iterations);
    }

    /// The threaded path: the same arbitrary conflict structures executed
    /// through the *racing* worker pool — concurrent `MvMemory` + atomic
    /// `Scheduler`, real OS threads, nondeterministic interleavings — must
    /// also converge to the serial memory image, leave no estimate markers
    /// behind, and keep every iteration's serial payload.
    #[test]
    fn pooled_execution_converges_to_serial(
        programs in proptest::collection::vec(
            proptest::collection::vec(arb_op(6), 1..6),
            1..24,
        ),
        threads in 2usize..5,
    ) {
        let pool = 6u64;
        // Serial reference.
        let mut serial = initial_memory(pool);
        let mut serial_accs = Vec::new();
        for (i, ops) in programs.iter().enumerate() {
            serial_accs.push(interpret(i, ops, &mut serial));
        }

        // Raced run over a shared read-only base.
        let base = initial_memory(pool);
        let out = run_speculative_pooled(
            &SpecConfig::default(),
            threads,
            &base,
            programs.len(),
            |i, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
                let acc = interpret(i, &programs[i], view);
                Ok(IterationRun { cycles: 10 + programs[i].len() as u64, payload: acc })
            },
            &Recorder::disabled(),
        )
        .expect("synthetic bodies never fault");

        prop_assert_eq!(out.live_estimates, 0, "aborted writes must be re-resolved");
        let mut committed = base.clone();
        for &(w, v) in &out.image {
            committed.write_u64(w, v);
        }
        for s in 0..pool {
            let addr = POOL_BASE + s * 8;
            prop_assert_eq!(
                committed.read_u64(addr),
                serial.read_u64(addr),
                "word {} diverged (threads={}, aborts={})",
                s, threads, out.stats.aborts
            );
        }
        prop_assert_eq!(&out.payloads, &serial_accs);
        prop_assert_eq!(out.stats.iterations as usize, programs.len());
        prop_assert!(out.stats.executions >= out.stats.iterations);
        prop_assert_eq!(out.threads_used, threads.min(programs.len()));
    }

    /// A single lane degenerates to in-order execution: no aborts, ever.
    #[test]
    fn single_lane_never_aborts(
        programs in proptest::collection::vec(
            proptest::collection::vec(arb_op(4), 1..5),
            1..12,
        ),
    ) {
        let mut mem = initial_memory(4);
        let config = SpecConfig { lanes: 1, ..SpecConfig::default() };
        let out = run_speculative(
            &config,
            &mut mem,
            programs.len(),
            |i, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
                let acc = interpret(i, &programs[i], view);
                Ok(IterationRun { cycles: 10, payload: acc })
            },
        )
        .expect("runs");
        prop_assert_eq!(out.stats.aborts, 0, "in-order execution cannot conflict");
        prop_assert_eq!(out.stats.executions, out.stats.iterations);
    }
}
