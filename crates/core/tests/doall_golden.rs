//! Golden numbers of the nine DOALL / dynamic-DOALL binaries: the chunked
//! twin of `spec_golden.rs`.
//!
//! Modelled cycles, the code-cache counters, the STM transaction count, the
//! final memory image and the output streams are a pure function of the
//! binary, the schedule and the thread count — never of how the DBM looks a
//! program counter or a guest page up. A change that is meant to be a pure
//! host-time optimisation of the dispatch loops, the code-cache model or the
//! guest-memory views must reproduce every row bit for bit on both backends.
//! The values were recorded on the commit *before* the slot-addressed code
//! cache and the radix page table landed (reference-scale programs, default
//! compile options, through `Janus::run`, which also asserted that every
//! output stream matched the plain interpreter's). A change that is *meant* to move the model (selection,
//! schedule, cost knobs) regenerates the table in the same commit: on a
//! mismatch the test prints every row as it is now, ready to paste.

use janus_compile::Compiler;
use janus_core::{BackendKind, DbmConfig, Janus, PreparedDbm};
use janus_ir::digest::{fnv1a_update, FNV1A_OFFSET};
use janus_vm::Process;
use janus_workloads::{parallel_benchmarks, workload};

/// `(workload, threads, cycles, blocks_translated, block_executions,
///   stm_transactions, memory_digest, outputs_digest)`
type Golden = (&'static str, u32, u64, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("410.bwaves", 1, 16902953, 129, 1168567, 28500, 0xf9501b8470fa672d, 0xac18279013b52694),
    ("410.bwaves", 2, 8492003, 129, 1168567, 28500, 0xd985084f54c44050, 0x0cdeafc1375d0563),
    ("410.bwaves", 4, 4302783, 129, 1168567, 28500, 0x6e42667eb5679bf1, 0xe71e89cb87f644b7),
    ("433.milc", 1, 2592448, 141, 866308, 0, 0xbc961249dc1bbc1b, 0x97c5124c0e4f8747),
    ("433.milc", 2, 2241448, 141, 866308, 0, 0x5c0a90ce812d7675, 0x97c5124c0e4f8747),
    ("433.milc", 4, 2389948, 141, 866308, 0, 0xe8c879d5e3f68160, 0x97c5124c0e4f8747),
    ("436.cactusADM", 1, 3881141, 134, 1403676, 0, 0xa90d015887695e8d, 0xec467a9d9e725e3f),
    ("436.cactusADM", 2, 1976541, 134, 1403676, 0, 0x6e3d541d4eff4806, 0x5c0a56d83d872cf6),
    ("436.cactusADM", 4, 1035041, 134, 1403676, 0, 0x3468fcf8213a330b, 0xaaa60fb6619aa8ce),
    ("437.leslie3d", 1, 3248706, 197, 1155238, 0, 0x3d5465c9d31edcb4, 0x7f3c55a2881cded5),
    ("437.leslie3d", 2, 2861706, 197, 1155238, 0, 0xbef3e8b57bc0f01f, 0x7f3c55a2881cded5),
    ("437.leslie3d", 4, 2830206, 197, 1155238, 0, 0x28cf4885537e0192, 0x7f3c55a2881cded5),
    ("459.GemsFDTD", 1, 9287407, 176, 3225780, 0, 0x6c7c66e7a2617e4a, 0xae33dc2d3811039f),
    ("459.GemsFDTD", 2, 4698607, 176, 3225780, 0, 0xb9692922c6d20fcd, 0x35b3eab99d8d7122),
    ("459.GemsFDTD", 4, 2425807, 176, 3225780, 0, 0xc33baafd6ef9901c, 0xd3d2bd5a5dddeec8),
    ("462.libquantum", 1, 1419048, 101, 530048, 0, 0x3346ca6cb95da059, 0x57c11790036b6770),
    ("462.libquantum", 2, 744848, 101, 530048, 0, 0x3346ca6cb95da059, 0xb0d2c3b32a01853a),
    ("462.libquantum", 4, 423948, 101, 530048, 0, 0x3346ca6cb95da059, 0xa6d0a2141a392d9b),
    ("464.h264ref", 1, 196755, 129, 36587, 0, 0x01d0363028c9c664, 0xf07b44f56573d43f),
    ("464.h264ref", 2, 172485, 129, 36587, 0, 0x220c862c4d1712d1, 0x025748ee70ac986a),
    ("464.h264ref", 4, 176555, 129, 36587, 0, 0xff5a58e0a0c4cfa0, 0x2b9698d3f38ce0bd),
    ("470.lbm", 1, 5431464, 63, 1864871, 0, 0xafc24b257efae2dd, 0xaf5f83a28dce5cd9),
    ("470.lbm", 2, 2749464, 63, 1864871, 0, 0x931848e531f4f6fa, 0xaf5f83a28dce5cd9),
    ("470.lbm", 4, 1430064, 63, 1864871, 0, 0x85460f41dff70a47, 0xaf5f83a28dce5cd9),
    ("482.sphinx3", 1, 3803002, 190, 1428028, 0, 0xa5505b2eaa0955f4, 0x6ab313edf200d453),
    ("482.sphinx3", 2, 3040202, 190, 1428028, 0, 0xa5505b2eaa0955f4, 0x3e940eca3fd42185),
    ("482.sphinx3", 4, 2669602, 190, 1428028, 0, 0xa5505b2eaa0955f4, 0x30c3fafff10509ef),
];

/// FNV-1a over both output streams (floats by bit pattern), lengths included
/// so a value moving from one stream's tail to the other's head shows.
fn outputs_digest(ints: &[i64], floats: &[f64]) -> u64 {
    let mut h = fnv1a_update(FNV1A_OFFSET, &(ints.len() as u64).to_le_bytes());
    for v in ints {
        h = fnv1a_update(h, &v.to_le_bytes());
    }
    h = fnv1a_update(h, &(floats.len() as u64).to_le_bytes());
    for v in floats {
        h = fnv1a_update(h, &v.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn doall_binaries_reproduce_their_golden_counters() {
    assert_eq!(GOLDEN.len(), 27, "9 binaries x 3 thread counts");
    let mut actual: Vec<String> = Vec::new();
    let mut mismatches: Vec<String> = Vec::new();
    for name in parallel_benchmarks() {
        let w = workload(name).expect("known workload");
        let binary = Compiler::new()
            .compile(&w.program)
            .expect("workload compiles");
        // The schedule does not depend on the thread count or the backend:
        // analyse and profile once per binary, execute six times.
        let janus = Janus::new();
        let artifacts = janus.prepare(&binary, &[]).expect("pipeline prepares");
        let process = Process::load(&binary).expect("binary loads");
        for threads in [1u32, 2, 4] {
            let golden = GOLDEN.iter().find(|g| g.0 == name && g.1 == threads);
            for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
                let config = DbmConfig {
                    threads,
                    backend,
                    adaptive: false,
                    ..janus.dbm_config()
                };
                let run = PreparedDbm::new(process.clone(), &artifacts.schedule, config)
                    .execute(&[])
                    .expect("execution succeeds");
                let row: Golden = (
                    name,
                    threads,
                    run.cycles,
                    run.stats.blocks_translated,
                    run.stats.block_executions,
                    run.stats.stm_transactions,
                    run.memory_digest,
                    outputs_digest(&run.output_ints, &run.output_floats),
                );
                if backend == BackendKind::VirtualTime {
                    actual.push(format!(
                        "    ({:?}, {}, {}, {}, {}, {}, {:#018x}, {:#018x}),",
                        row.0, row.1, row.2, row.3, row.4, row.5, row.6, row.7
                    ));
                }
                if golden != Some(&row) {
                    mismatches.push(format!(
                        "{name}@{threads} on {backend}: {row:?}, golden {golden:?}"
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden counters moved:\n{}\n\nthe table as the virtual-time backend produces it now:\n{}",
        mismatches.join("\n"),
        actual.join("\n")
    );
}
