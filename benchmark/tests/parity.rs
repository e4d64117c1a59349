//! A nested workspace does not inherit the root workspace's profiles. The
//! ledger must measure the code generation the root builds, so its
//! `[profile.release]` has to say what the root's says.

use std::collections::BTreeMap;
use std::path::Path;

/// The `key = value` lines of one TOML table, comments and blanks dropped.
fn table(manifest: &Path, header: &str) -> BTreeMap<String, String> {
    let text =
        std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
    text.lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| line.split_once('='))
        .map(|(key, value)| (key.trim().to_string(), value.trim().to_string()))
        .collect()
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = table(&here.join("../Cargo.toml"), "[profile.release]");
    let nested = table(&here.join("Cargo.toml"), "[profile.release]");
    assert!(
        !root.is_empty(),
        "the root manifest has a [profile.release] table"
    );
    assert_eq!(
        nested, root,
        "benchmark/Cargo.toml [profile.release] drifted from the root manifest"
    );
    assert_eq!(root.get("lto").map(String::as_str), Some("\"thin\""));
    assert_eq!(root.get("codegen-units").map(String::as_str), Some("1"));
}

#[test]
fn the_lock_file_is_committed_beside_the_manifest() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(
        here.join("Cargo.lock").is_file(),
        "benchmark/Cargo.lock is committed"
    );
    let ignore = std::fs::read_to_string(here.join(".gitignore")).expect("benchmark/.gitignore");
    for entry in ["target/", "out/"] {
        assert!(
            ignore.lines().any(|l| l.trim() == entry),
            "{entry} is ignored"
        );
    }
}
