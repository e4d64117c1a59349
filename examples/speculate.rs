//! Run the may-dependent (DOACROSS) workloads under the Block-STM-style
//! speculation engine and print a Table-III-style abort/speedup summary.
//!
//! Run with:
//! `cargo run --release --example speculate -- [threads] [--backend virtual|native] [--threads N]`

use janus::compile::{CompileOptions, Compiler};
use janus::core::{Janus, JanusConfig};
use janus::workloads::{speculative_benchmarks, workload};

#[path = "util/flags.rs"]
mod flags;

fn main() {
    let (backend, threads) = flags::parse(8);
    println!("backend: {backend} | threads: {threads}");
    println!(
        "{:<22} {:>8} {:>10} {:>8} {:>8} {:>9} {:>9}",
        "workload", "spec", "iters", "aborts", "retries", "serial", "spec-up"
    );
    for name in speculative_benchmarks() {
        let w = workload(name).expect("workload exists");
        let binary = Compiler::with_options(CompileOptions::gcc_o3())
            .compile(&w.program)
            .expect("compiles");
        // The seed behaviour: speculation off, the may-dep loop serialises.
        let serial = Janus::with_config(JanusConfig {
            threads,
            backend,
            speculation: false,
            ..JanusConfig::default()
        })
        .run(&binary, &[])
        .expect("serial run succeeds");
        // The janus-spec path.
        let spec = Janus::with_config(JanusConfig {
            threads,
            backend,
            ..JanusConfig::default()
        })
        .run(&binary, &[])
        .expect("speculative run succeeds");
        assert!(spec.outputs_match, "{name}: speculative outputs diverged");
        assert!(serial.outputs_match, "{name}: serial outputs diverged");
        println!(
            "{:<22} {:>8} {:>10} {:>8} {:>8} {:>9.2} {:>9.2}",
            name,
            spec.parallel.stats.spec_invocations,
            spec.parallel.stats.spec_iterations,
            spec.parallel.stats.spec_aborts,
            spec.parallel.stats.spec_retries(),
            serial.speedup(),
            spec.speedup(),
        );
    }
    println!("\n(`spec-up` > `serial`: loops the seed pipeline refused to parallelise now run speculatively.)");
}
