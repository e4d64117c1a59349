//! Property-based convergence test for the speculative engine: for *any*
//! random mix of per-iteration reads, writes and read-modify-writes over a
//! small shared address pool — i.e. any conflict structure, hence any
//! abort/validation interleaving the scheduler can produce — the committed
//! memory image must equal the serial execution's final memory, and every
//! iteration's validated payload must be its own.
//!
//! A second family spreads word, unaligned and byte accesses over several
//! guest pages and holds every incarnation's [`ViewStats`] and the committed
//! image to a reference view that keeps its read and write sets in
//! `HashMap`s.

use janus_spec::{run_speculative, IterationRun, SpecView, ViewStats};
use janus_vm::{FlatMemory, GuestMemory};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;

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
        let out = run_speculative(
            lanes,
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

    /// A single lane degenerates to in-order execution: no aborts, ever.
    #[test]
    fn single_lane_never_aborts(
        programs in proptest::collection::vec(
            proptest::collection::vec(arb_op(4), 1..5),
            1..12,
        ),
    ) {
        let mut mem = initial_memory(4);
        let out = run_speculative(
            1,
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

/// Word slots on five guest pages. 0x4ff8 and 0x7ff8 are the last words of
/// their pages, so unaligned accesses there straddle two pages.
const SPREAD: [u64; 9] = [
    0x4000, 0x4008, 0x4ff8, 0x5000, 0x5008, 0x7ff8, 0x8000, 0x1_2340, 0x1_2348,
];

/// One access of a multi-page iteration body; `off` is a byte offset into
/// the slot, so `off > 0` makes a `u64` access unaligned.
#[derive(Debug, Clone, Copy)]
enum SpreadOp {
    /// `acc += mem_u64[addr]`
    Load { addr: u64 },
    /// `mem_u64[addr] = acc + k`
    Store { addr: u64, k: u64 },
    /// `acc += mem_u8[addr]`
    LoadByte { addr: u64 },
    /// `mem_u8[addr] = acc + k`
    StoreByte { addr: u64, k: u8 },
}

fn arb_spread_op() -> impl Strategy<Value = SpreadOp> {
    let addr = || (0..SPREAD.len(), 0u64..8).prop_map(|(s, off)| SPREAD[s] + off);
    prop_oneof![
        addr().prop_map(|addr| SpreadOp::Load { addr }),
        (addr(), 0u64..50).prop_map(|(addr, k)| SpreadOp::Store { addr, k }),
        addr().prop_map(|addr| SpreadOp::LoadByte { addr }),
        (addr(), 0u8..50).prop_map(|(addr, k)| SpreadOp::StoreByte { addr, k }),
    ]
}

fn interpret_spread<M: GuestMemory>(iteration: usize, ops: &[SpreadOp], mem: &mut M) -> u64 {
    let mut acc = iteration as u64;
    for op in ops {
        match *op {
            SpreadOp::Load { addr } => acc = acc.wrapping_add(mem.read_u64(addr)),
            SpreadOp::Store { addr, k } => mem.write_u64(addr, acc.wrapping_add(k)),
            SpreadOp::LoadByte { addr } => acc = acc.wrapping_add(u64::from(mem.read_u8(addr))),
            SpreadOp::StoreByte { addr, k } => mem.write_u8(addr, (acc as u8).wrapping_add(k)),
        }
    }
    acc
}

fn spread_memory() -> FlatMemory {
    let mut m = FlatMemory::new();
    for (s, &word) in SPREAD.iter().enumerate() {
        for w in [word, word + 8] {
            m.write_u64(w, (s as u64 + 1).wrapping_mul(0x0101_0101_9e37_79b9) ^ w);
        }
    }
    m
}

/// The speculative view's contract with its read and write sets in
/// `HashMap`s, over plain memory: reads consult the buffered writes first,
/// every other aligned read counts and the first read of a word wins;
/// unaligned and byte accesses compose through aligned words.
struct HashView<'a> {
    mem: &'a mut FlatMemory,
    reads: HashMap<u64, u64>,
    writes: HashMap<u64, u64>,
    stats: ViewStats,
}

impl<'a> HashView<'a> {
    fn new(mem: &'a mut FlatMemory) -> Self {
        HashView {
            mem,
            reads: HashMap::new(),
            writes: HashMap::new(),
            stats: ViewStats::default(),
        }
    }

    /// Applies the buffered writes and returns the view's counters.
    fn commit(self) -> ViewStats {
        for (&word, &value) in &self.writes {
            self.mem.write_u64(word, value);
        }
        self.stats
    }
}

impl GuestMemory for HashView<'_> {
    fn read_u8(&mut self, addr: u64) -> u8 {
        let word = addr & !7;
        self.read_u64(word).to_le_bytes()[(addr - word) as usize]
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        let word = addr & !7;
        let mut bytes = self.read_u64(word).to_le_bytes();
        bytes[(addr - word) as usize] = value;
        self.write_u64(word, u64::from_le_bytes(bytes));
    }

    fn read_u64(&mut self, addr: u64) -> u64 {
        let word = addr & !7;
        if word != addr {
            let lo = self.read_u64(word);
            let hi = self.read_u64(word + 8);
            let shift = (addr - word) * 8;
            return (lo >> shift) | (hi << (64 - shift));
        }
        if let Some(&v) = self.writes.get(&word) {
            return v;
        }
        self.stats.reads += 1;
        let mem = &*self.mem;
        *self.reads.entry(word).or_insert_with(|| mem.peek_u64(word))
    }

    fn write_u64(&mut self, addr: u64, value: u64) {
        let word = addr & !7;
        if word != addr {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr + i as u64, *b);
            }
            return;
        }
        self.writes.insert(word, value);
        self.stats.writes += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Word, unaligned and byte accesses over five pages: every incarnation
    /// counts the reads and writes the reference view counts, and the
    /// committed image and payloads are the reference's serial ones.
    #[test]
    fn multi_page_views_match_the_hashmap_reference(
        programs in proptest::collection::vec(
            proptest::collection::vec(arb_spread_op(), 1..10),
            1..20,
        ),
        lanes in 1u32..9,
    ) {
        let mut serial = spread_memory();
        let mut serial_accs = Vec::new();
        let mut serial_stats = Vec::new();
        for (i, ops) in programs.iter().enumerate() {
            let mut view = HashView::new(&mut serial);
            serial_accs.push(interpret_spread(i, ops, &mut view));
            serial_stats.push(view.commit());
        }

        // The counters depend only on the addresses an incarnation touches,
        // which do not depend on the values it reads: every incarnation,
        // aborted or not, must match its iteration's reference counters.
        let mismatches = RefCell::new(Vec::new());
        let mut spec_mem = spread_memory();
        let out = run_speculative(
            lanes,
            &mut spec_mem,
            programs.len(),
            |i, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
                let acc = interpret_spread(i, &programs[i], view);
                if view.stats() != serial_stats[i] {
                    mismatches.borrow_mut().push((i, view.stats(), serial_stats[i]));
                }
                Ok(IterationRun { cycles: 10, payload: acc })
            },
        )
        .expect("synthetic bodies never fault");

        prop_assert_eq!(mismatches.into_inner(), vec![]);
        prop_assert_eq!(spec_mem.image_digest(), serial.image_digest());
        prop_assert_eq!(&out.payloads, &serial_accs);
        // Re-executions only add to the serial counts.
        prop_assert!(out.stats.reads >= serial_stats.iter().map(|s| s.reads).sum::<u64>());
        prop_assert!(out.stats.writes >= serial_stats.iter().map(|s| s.writes).sum::<u64>());
    }
}

/// One incarnation reads 4 096 distinct words, highest address first, so
/// every read lands at the front of the read set: the values, the counters
/// and the committed image are still the serial ones.
#[test]
fn a_descending_scan_of_4096_words_reads_what_serial_execution_reads() {
    const WORDS: u64 = 4096;
    const BASE: u64 = 0x10_0000;
    let mut base = FlatMemory::new();
    for k in 0..WORDS {
        base.write_u64(BASE + 8 * k, k * 3 + 1);
    }
    let stats = RefCell::new(Vec::new());
    let out = run_speculative(
        2,
        &mut base,
        2,
        |i, view: &mut SpecView<'_, FlatMemory>| -> Result<_, ()> {
            let sum = if i == 0 {
                // Iteration 0 rewrites every 64th word.
                for k in (0..WORDS).step_by(64) {
                    view.write_u64(BASE + 8 * k, 1_000_000 + k);
                }
                0
            } else {
                let mut sum = 0u64;
                for k in (0..WORDS).rev() {
                    sum = sum.wrapping_add(view.read_u64(BASE + 8 * k));
                }
                // A re-read of the first word read hits the read set.
                sum = sum.wrapping_add(view.read_u64(BASE + 8 * (WORDS - 1)));
                view.write_u64(BASE - 8, sum);
                sum
            };
            stats.borrow_mut().push((i, view.stats()));
            Ok(IterationRun {
                cycles: 10,
                payload: sum,
            })
        },
    )
    .expect("runs");

    let expected: u64 = (0..WORDS)
        .map(|k| {
            if k % 64 == 0 {
                1_000_000 + k
            } else {
                k * 3 + 1
            }
        })
        .sum::<u64>()
        + (WORDS - 1) * 3
        + 1;
    assert_eq!(out.payloads, [0, expected]);
    assert_eq!(base.read_u64(BASE - 8), expected);
    assert_eq!(base.read_u64(BASE + 64 * 8), 1_000_064);
    for (i, s) in stats.into_inner() {
        let expected = if i == 0 {
            ViewStats {
                reads: 0,
                writes: WORDS / 64,
            }
        } else {
            ViewStats {
                reads: WORDS + 1,
                writes: 1,
            }
        };
        assert_eq!(s, expected, "iteration {i}");
    }
}
