//! What every workload shares: the fixed harness configuration, the seeded
//! inputs, and process-level measurements.

use janus::compile::Compiler;
use janus::core::{BackendKind, DbmConfig, Janus, JanusConfig};
use janus::ir::JBinary;
use janus::vm::{Process, Vm};
use janus::workloads::{parallel_benchmarks, speculative_benchmarks, workload, ProgramSpec};
use std::path::PathBuf;
use std::sync::Arc;

use crate::reference::GuestResult;

/// Size of the generated-program population: 8x the serving layer's default
/// `cache_capacity` of 64, so the memory cache cannot hold the working set.
pub const POPULATION: usize = 512;
/// Population size under `--quick`.
pub const QUICK_POPULATION: usize = 32;

/// Settings of one child process.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// `T = min(nproc, 4)` janus threads.
    pub threads: u32,
    pub quick: bool,
    pub trace: bool,
    /// Seconds of repetitions to measure (ignored under `--quick`).
    pub seconds: f64,
    pub expected: PathBuf,
    pub out_dir: PathBuf,
}

impl Cfg {
    pub fn population(&self) -> usize {
        if self.quick {
            QUICK_POPULATION
        } else {
            POPULATION
        }
    }

    /// Iterations of a unit-cost microbenchmark batch.
    pub fn micro_iters(&self, full: usize) -> usize {
        if self.quick {
            (full / 16).max(64)
        } else {
            full
        }
    }
}

pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

pub fn harness_threads() -> u32 {
    nproc().min(4)
}

/// The paralleliser every workload uses: native threads, default commit
/// mode, adaptive off. Both are set explicitly because the library defaults
/// read `JANUS_BACKEND` / `JANUS_ADAPTIVE` from the environment.
pub fn janus_with(threads: u32) -> Janus {
    Janus::with_config(JanusConfig {
        threads,
        backend: BackendKind::NativeThreads,
        adaptive: false,
        dbm: DbmConfig {
            threads,
            backend: BackendKind::NativeThreads,
            adaptive: false,
            ..DbmConfig::default()
        },
        ..JanusConfig::default()
    })
}

/// SplitMix64: the ledger's only source of randomness, a pure function of
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reference scale: the measured inputs of `interp`, `doall`, `spec`,
    /// `prepare`.
    Ref,
    /// Training scale: the small jobs of `serve-hot`.
    Train,
}

impl Scale {
    pub fn key(self) -> &'static str {
        match self {
            Scale::Ref => "ref",
            Scale::Train => "train",
        }
    }
}

/// One compiled suite binary.
#[derive(Debug, Clone)]
pub struct SuiteBinary {
    pub name: &'static str,
    pub binary: Arc<JBinary>,
    pub process: Process,
}

pub fn doall_names() -> Vec<&'static str> {
    parallel_benchmarks().to_vec()
}

pub fn spec_names() -> Vec<&'static str> {
    speculative_benchmarks().to_vec()
}

/// The 13 suite names: 9 SPEC-shaped DOALL programs, then 4 `spec.*` kernels.
pub fn suite_names() -> Vec<&'static str> {
    let mut names = doall_names();
    names.extend(spec_names());
    names
}

/// Compiles and loads the named suite programs at `scale`.
pub fn compile_suite(names: &[&'static str], scale: Scale) -> Vec<SuiteBinary> {
    names
        .iter()
        .map(|&name| {
            let w = workload(name).expect("suite workload exists");
            let program = match scale {
                Scale::Ref => &w.program,
                Scale::Train => &w.train_program,
            };
            let binary = Compiler::new()
                .compile(program)
                .expect("suite program compiles");
            let process = Process::load(&binary).expect("suite binary loads");
            SuiteBinary {
                name,
                binary: Arc::new(binary),
                process,
            }
        })
        .collect()
}

/// One program of the seeded population with its reference result from
/// plain `Vm::run` — the independent interpreter is the oracle for inputs
/// that did not exist when `expected.json` was committed.
#[derive(Debug, Clone)]
pub struct Generated {
    pub name: String,
    pub binary: Arc<JBinary>,
    pub reference: GuestResult,
}

/// `n` distinct generated programs, a pure function of `seed`.
pub fn population(seed: u64, n: usize) -> Vec<Generated> {
    let mut rng = Rng::new(seed, 1);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let gen_seed = rng.next_u64() >> 16;
        let binary = Compiler::new()
            .compile(&ProgramSpec::generate(gen_seed).lower())
            .expect("generated program compiles");
        if !seen.insert(binary.content_digest()) {
            continue;
        }
        let reference = run_vm(&Process::load(&binary).expect("generated binary loads"))
            .expect("generated program runs under the interpreter")
            .0;
        out.push(Generated {
            name: format!("gen-{gen_seed:x}"),
            binary: Arc::new(binary),
            reference,
        });
    }
    out
}

/// Plain `Vm::run`: the guest-visible result and the retired-instruction
/// count.
pub fn run_vm(process: &Process) -> Result<(GuestResult, u64), String> {
    let mut vm = Vm::new(process.clone());
    let run = vm.run().map_err(|e| e.to_string())?;
    Ok((GuestResult::from_vm(&vm, &run), run.retired))
}

/// Process-level readings from procfs (Linux only; zero elsewhere).
pub mod procfs {
    fn status_field(name: &str) -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status
            .lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|rest| {
                rest.trim_start_matches(':')
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb() -> f64 {
        status_field("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
    }

    pub fn threads() -> u64 {
        status_field("Threads").unwrap_or(0)
    }

    /// User + system CPU seconds of the whole process (exited threads
    /// included), from `/proc/self/stat` in 10 ms ticks.
    pub fn cpu_seconds() -> f64 {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return 0.0;
        };
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let Some((_, rest)) = stat.rsplit_once(')') else {
            return 0.0;
        };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        (ticks(11) + ticks(12)) as f64 / 100.0
    }
}

/// Samples the process's thread count in the background (traced runs only)
/// and reports the peak.
#[derive(Debug)]
pub struct ThreadSampler {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::SeqCst) {
                // The sampler itself is one of the threads; do not count it.
                peak = peak.max(procfs::threads().saturating_sub(1));
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            peak
        });
        ThreadSampler { stop, handle }
    }

    pub fn finish(self) -> u64 {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.handle.join().expect("thread sampler does not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rng_is_a_pure_function_of_seed_and_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(1, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(1, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(2, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut items: Vec<usize> = (0..13).collect();
        Rng::new(1, 2).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn populations_are_distinct_and_repeat_per_seed() {
        let a = population(1, 8);
        let b = population(1, 8);
        let c = population(2, 8);
        let names = |p: &[Generated]| p.iter().map(|g| g.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        assert_ne!(names(&a), names(&c));
        let digests: std::collections::HashSet<u64> =
            a.iter().map(|g| g.binary.content_digest()).collect();
        assert_eq!(digests.len(), 8);
    }
}
