//! The differential guest-program fuzzer as a tier-1 test.
//!
//! Every generated program runs through the whole equivalence matrix —
//! backend × thread count ∈ {1, 2, 4, 8} × adaptive on/off — via `janus_bench::fuzz::check_spec`, which asserts
//! exactly the contracts the hand-written equivalence batteries promise
//! (see that module's docs). Failures shrink to a minimal counterexample.
//!
//! The default case count keeps the test inside a tier-1 budget; set
//! `JANUS_FUZZ_CASES` (and optionally `JANUS_FUZZ_SEED`) to fuzz harder:
//!
//! ```text
//! JANUS_FUZZ_CASES=1024 cargo test -p janus-core --test differential_fuzz
//! ```
//!
//! The `figures fuzz --cases N --seed S` subcommand runs the same oracle
//! from the command line for long campaigns.

use janus_bench::fuzz::run_differential_fuzz;

fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn generated_programs_agree_across_the_execution_matrix() {
    let cases = env_or("JANUS_FUZZ_CASES", 48) as usize;
    let seed = env_or("JANUS_FUZZ_SEED", 0);
    let report = run_differential_fuzz(cases, seed);
    assert_eq!(
        report.runs,
        cases * 16,
        "every case must run the full matrix"
    );
    assert!(
        report.failures.is_empty(),
        "{}\n{}",
        report.summary(),
        report
            .failures
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
