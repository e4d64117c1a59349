//! Command-line entry: `run`, `compare`, and the internal `child`.

use crate::metrics::Manifest;
use crate::{child, compare, driver, harness, reference};
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "\
usage:
  benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                [--quick] [--expected FILE] [--out FILE] [--bless]
  benchmark compare A.json B.json

run       without --workload: all six workloads, three round-robin passes;
          with it: that workload, and the result object as the last line.
          --trace 1 is the per-layer run; it writes out/trace-<workload>.json.
          --quick is one repetition on a population of 32 (a smoke test).
          --bless regenerates expected.json and exits.
compare   exits non-zero when B is worse than A past a bound of BENCHMARK.json.";

struct Args(std::vec::IntoIter<String>);

impl Args {
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
    }
}

pub fn main() {
    let started = Instant::now();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let command = args.remove(0);
    let outcome = match command.as_str() {
        "run" | "child" => run_or_child(&command, Args(args.into_iter()), started),
        "compare" if args.len() == 2 => {
            compare::run(&PathBuf::from(&args[0]), &PathBuf::from(&args[1]))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("benchmark: {message}");
            std::process::exit(2);
        }
    }
}

fn run_or_child(command: &str, mut args: Args, started: Instant) -> Result<i32, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a build with debug assertions; use --release".to_string());
    }
    let manifest = Manifest::load()?;
    let mut opts = driver::RunOptions {
        workload: None,
        seed: 1,
        seconds: manifest.run_seconds,
        trace: false,
        quick: false,
        expected: harness::benchmark_dir().join("expected.json"),
        out: None,
    };
    let mut role = child::Role::Primary;
    let mut bless = false;
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--workload" => opts.workload = Some(args.value(&flag)?),
            "--seed" => opts.seed = args.parsed(&flag)?,
            "--seconds" => opts.seconds = args.parsed(&flag)?,
            "--trace" => {
                opts.trace = match args.value(&flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => opts.quick = true,
            "--bless" => bless = true,
            "--expected" => opts.expected = PathBuf::from(args.value(&flag)?),
            "--out" => opts.out = Some(PathBuf::from(args.value(&flag)?)),
            "--role" if command == "child" => {
                role = match args.value(&flag)?.as_str() {
                    "primary" => child::Role::Primary,
                    "context" => child::Role::Context,
                    other => return Err(format!("--role: unknown role {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if bless {
        reference::bless(&opts.expected)?;
        println!("blessed {}", opts.expected.display());
        return Ok(0);
    }
    if command == "run" {
        return driver::run(&opts, &manifest);
    }
    let workload = opts
        .workload
        .clone()
        .ok_or("child: --workload is required")?;
    let cfg = harness::Cfg {
        seed: opts.seed,
        threads: harness::harness_threads(),
        quick: opts.quick,
        trace: opts.trace,
        seconds: opts.seconds,
        expected: opts.expected,
        out_dir: harness::benchmark_dir().join("out"),
    };
    let report = child::run(&workload, role, &cfg, started)?;
    println!("{}", crate::json::render(&report));
    Ok(0)
}
