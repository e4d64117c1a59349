//! Shared `--backend` / `--threads` flag parsing for the runnable examples.
//!
//! Not an example itself — each example pulls it in with
//! `#[path = "util/flags.rs"] mod flags;`.

use janus::core::BackendKind;

/// Parses `--backend virtual|native` and `--threads N` from the process
/// arguments, plus a legacy positional thread count; unknown flags are
/// ignored. The backend defaults to the `JANUS_BACKEND` environment
/// variable (or virtual time), the thread count to `default_threads`.
pub(crate) fn parse(default_threads: u32) -> (BackendKind, u32) {
    let mut backend = BackendKind::from_env();
    let mut threads = default_threads;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => {
                let value = args.next().unwrap_or_default();
                backend = BackendKind::parse(&value).unwrap_or_else(|| {
                    eprintln!("unknown backend {value:?}; expected virtual or native");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|t| *t > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--threads expects a positive integer");
                        std::process::exit(2);
                    });
            }
            other => {
                // Backwards compatible positional thread count.
                if let Ok(t) = other.parse() {
                    threads = t;
                }
            }
        }
    }
    (backend, threads)
}
