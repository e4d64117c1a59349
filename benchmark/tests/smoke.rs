//! `--quick` smoke: one repetition, population 32, all six workloads, traced
//! and untraced. Checks the plumbing, not the numbers: every workload and
//! metric `BENCHMARK.json` names is emitted and nothing else is, counts
//! repeat exactly, and a corrupted reference turns into a failed run.
//!
//! The benchmark refuses to run with debug assertions, so the tests drive a
//! release build of the binary (built here if it is not fresh).

use janus_ledger::json::{self, Value};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Mutex, OnceLock};

/// Runs share `out/trace-<workload>.json` and the machine; one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn release_binary() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        // <target>/<profile>/benchmark -> <target>
        let target = Path::new(env!("CARGO_BIN_EXE_benchmark"))
            .parent()
            .and_then(Path::parent)
            .expect("binary lives in <target>/<profile>/")
            .to_path_buf();
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "--manifest-path"])
            .arg(manifest_dir().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "release build of the benchmark");
        target.join("release").join("benchmark")
    })
}

fn out_file(name: &str) -> PathBuf {
    let dir = manifest_dir().join("out");
    std::fs::create_dir_all(&dir).expect("out/ is writable");
    dir.join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(release_binary())
        .args(args)
        .output()
        .expect("benchmark runs")
}

fn load(path: &Path) -> Value {
    json::parse(&std::fs::read_to_string(path).expect("ledger file")).expect("ledger parses")
}

fn manifest() -> Value {
    load(&manifest_dir().join("../BENCHMARK.json"))
}

fn names(doc: &Value, list: &str) -> BTreeSet<String> {
    doc.get(list)
        .and_then(Value::as_array)
        .expect("manifest list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn keys(v: Option<&Value>) -> BTreeSet<String> {
    v.and_then(Value::as_object)
        .expect("object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every metric object has a numeric value and a non-empty unit.
fn assert_metrics_have_units(metrics: &Value) {
    for (name, m) in metrics.as_object().expect("metrics object") {
        assert!(well_formed(name), "{name}");
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{name} has a value"
        );
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        assert!(!unit.is_empty(), "{name} has a unit");
    }
}

fn last_line_result(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("a last line");
    let result = json::parse(line).expect("the last line is the result object");
    assert_eq!(
        keys(Some(&result)),
        ["attempted", "correct", "failed", "metrics"]
            .map(String::from)
            .into(),
        "exactly the four result keys"
    );
    result
}

#[test]
fn untraced_quick_run_emits_every_workload_and_end_to_end_metric_and_repeats_its_counts() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let manifest = manifest();
    let (a, b) = (out_file("smoke-a.json"), out_file("smoke-b.json"));
    for out in [&a, &b] {
        let output = run(&["run", "--quick", "--out", out.to_str().unwrap()]);
        assert!(
            output.status.success(),
            "quick run passes: {}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
    let (a, b) = (load(&a), load(&b));

    for key in [
        "git_commit",
        "rustc",
        "nproc",
        "threads",
        "seed",
        "repetitions",
    ] {
        assert!(
            a.get("header").and_then(|h| h.get(key)).is_some(),
            "header names {key}"
        );
    }
    assert_eq!(keys(a.get("workloads")), names(&manifest, "workloads"));
    for (workload, entry) in a.get("workloads").and_then(Value::as_object).unwrap() {
        assert!(well_formed(workload));
        let metrics = entry.get("end_to_end").expect("end_to_end");
        assert_eq!(
            keys(Some(metrics)),
            names(&manifest, "end_to_end"),
            "{workload}"
        );
        assert_metrics_have_units(metrics);
        assert_eq!(
            entry.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert!(entry.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        // The Fig. 7 number exists where the suite runs under the DBM, and
        // is omitted elsewhere rather than printed as 0.
        let speedup = entry.get("modelled_speedup").and_then(Value::as_f64);
        assert_eq!(
            speedup.is_some(),
            ["doall", "spec"].contains(&workload.as_str()),
            "{workload}: modelled_speedup {speedup:?}"
        );
        // Fixed work per repetition: the modelled counts of two runs agree.
        let counts = entry.get("counts").expect("counts");
        assert!(
            !counts.as_object().unwrap().is_empty(),
            "{workload} counts something"
        );
        assert_eq!(
            Some(counts),
            b.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|e| e.get("counts")),
            "{workload}: counts repeat exactly across two runs"
        );
    }

    // And `compare` reads what `run` wrote (two quick runs differ by far
    // more than a bound, so only its plumbing is checked here).
    let compared = run(&[
        "compare",
        out_file("smoke-a.json").to_str().unwrap(),
        out_file("smoke-a.json").to_str().unwrap(),
    ]);
    assert!(
        compared.status.success(),
        "a ledger compared with itself is within every bound"
    );
}

#[test]
fn traced_quick_run_emits_every_per_layer_metric_and_a_trace_per_workload() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let manifest = manifest();
    let out = out_file("smoke-trace.json");
    let output = run(&[
        "run",
        "--quick",
        "--trace",
        "1",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "traced quick run passes: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let ledger = load(&out);

    let mut emitted = BTreeSet::new();
    for (workload, entry) in ledger.get("workloads").and_then(Value::as_object).unwrap() {
        let layers = entry.get("per_layer").expect("per_layer");
        assert_metrics_have_units(layers);
        emitted.extend(keys(Some(layers)));
        let coverage = layers
            .get("bench.span_coverage")
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("span coverage");
        assert!(
            coverage >= 0.95,
            "{workload}: leaf spans cover {coverage} of a repetition"
        );
        assert!(
            layers.get("bench.trace_overhead_share").is_some(),
            "{workload}"
        );

        let trace = load(
            &manifest_dir()
                .join("out")
                .join(format!("trace-{workload}.json")),
        );
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("rep")));
        for e in events {
            let args = e.get("args").expect("args");
            assert!(
                args.get("workload").is_some()
                    && args.get("rep").is_some()
                    && args.get("id").is_some()
            );
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
        }
    }
    assert_eq!(
        emitted,
        names(&manifest, "per_layer"),
        "per-layer names emitted == BENCHMARK.json"
    );
}

#[test]
fn one_workload_prints_the_result_object_with_exactly_the_manifest_metrics() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let manifest = manifest();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = run(&[
            "run",
            "--workload",
            "serve-hot",
            "--seed",
            "2",
            "--quick",
            "--trace",
            trace,
        ]);
        assert!(output.status.success());
        let result = last_line_result(&output);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            keys(result.get("metrics")),
            names(&manifest, list),
            "--trace {trace}"
        );
        assert_metrics_have_units(result.get("metrics").unwrap());
    }
}

#[test]
fn a_corrupted_reference_digest_fails_the_run() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let expected =
        std::fs::read_to_string(manifest_dir().join("expected.json")).expect("expected.json");
    let doc = json::parse(&expected).expect("expected.json parses");
    let digest = doc
        .get("suite")
        .and_then(|s| s.get("ref"))
        .and_then(|r| r.get("470.lbm"))
        .and_then(|e| e.get("vm_memory_digest"))
        .and_then(Value::as_str)
        .expect("a committed digest");
    let corrupted = out_file("expected-corrupt.json");
    std::fs::write(&corrupted, expected.replace(digest, "0x0000000000000bad")).expect("write");

    let output = run(&[
        "run",
        "--workload",
        "interp",
        "--quick",
        "--trace",
        "0",
        "--expected",
        corrupted.to_str().unwrap(),
    ]);
    assert_eq!(
        output.status.code(),
        Some(1),
        "a correctness failure exits non-zero"
    );
    let result = last_line_result(&output);
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    let failed = result.get("failed").and_then(Value::as_f64).unwrap();
    let attempted = result.get("attempted").and_then(Value::as_f64).unwrap();
    assert!(
        failed >= 1.0 && failed / attempted > 0.0,
        "failed_share > 0"
    );
}

#[test]
fn unknown_flags_and_workloads_are_usage_errors() {
    assert_eq!(
        run(&["run", "--workload", "nope", "--quick"]).status.code(),
        Some(2)
    );
    assert_eq!(run(&["run", "--frobnicate"]).status.code(), Some(2));
    assert_eq!(run(&[]).status.code(), Some(2));
}
