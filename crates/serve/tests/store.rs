//! Persistence, fairness and admission battery for the serving layer.
//!
//! Pins the acceptance bar of the persistent artifact store and the
//! hardened executor:
//!
//! * a restarted `ServeHandle` over a populated store directory serves the
//!   whole workload suite with **zero pipeline rebuilds** (disk hits only),
//!   outputs and memory digests identical to the cold run;
//! * crash leftovers (partial `.tmp.` files) are ignored and swept;
//! * entries written under a different format version are rebuilt, not
//!   loaded — and not mistaken for corruption;
//! * corrupt entries are quarantined (renamed aside, counted, never
//!   served) and transparently rebuilt;
//! * a tenant flooding the queue cannot starve a light tenant (deficit
//!   round robin), and per-tenant `max_pending` caps reject with the typed
//!   error;
//! * deadline admission rejects only when the cost model has evidence.

use janus_compile::{CompileOptions, Compiler};
use janus_core::{BackendKind, Janus, JanusConfig};
use janus_ir::digest::fnv1a;
use janus_ir::JBinary;
use janus_serve::{JobSpec, ServeConfig, ServeError, ServeSession, TenantQuota};
use janus_workloads::{parallel_benchmarks, speculative_benchmarks, workload};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn train_binary(name: &str) -> Arc<JBinary> {
    let w = workload(name).expect("known workload");
    Arc::new(
        Compiler::with_options(CompileOptions::gcc_o3())
            .compile(&w.train_program)
            .expect("workload compiles"),
    )
}

fn session_janus() -> Janus {
    // Warm-vs-cold runs are compared cycle-for-cycle: that is a
    // static-policy contract, so pin the adaptive tuner off even when the
    // suite runs under JANUS_ADAPTIVE=1 (modelled cycles become
    // wall-time-dependent with it on).
    Janus::with_config(JanusConfig {
        threads: 4,
        backend: BackendKind::from_env(),
        dbm: janus_core::DbmConfig {
            adaptive: false,
            ..janus_core::DbmConfig::default()
        },
        ..JanusConfig::default()
    })
}

/// A fresh per-test store directory (removed at the start so reruns after
/// a failure start clean; removed again on success).
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "janus-serve-store-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        workers: 4,
        store_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// The only entry file (`*.jpa`) in a store directory.
fn single_entry_path(dir: &Path) -> PathBuf {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jpa"))
        .collect();
    assert_eq!(entries.len(), 1, "exactly one persisted entry");
    entries.remove(0)
}

#[test]
fn restarted_session_serves_the_suite_from_disk_with_zero_rebuilds() {
    let dir = store_dir("warm-suite");
    let janus = session_janus();
    let names: Vec<&str> = parallel_benchmarks()
        .into_iter()
        .chain(speculative_benchmarks())
        .collect();
    let binaries: Vec<Arc<JBinary>> = names.iter().map(|n| train_binary(n)).collect();

    // Cold session: every workload analysed once, every artifact persisted.
    let cold_outcomes = {
        let handle = janus.serve(store_config(&dir));
        for binary in &binaries {
            handle.submit(JobSpec::new(binary.clone())).unwrap();
        }
        let outcomes = handle.join();
        let stats = handle.stats();
        assert_eq!(stats.cache_misses, names.len() as u64, "{stats:?}");
        assert_eq!(stats.disk_hits, 0, "{stats:?}");
        assert_eq!(stats.disk_entries, names.len() as u64, "{stats:?}");
        outcomes
    };

    // Restarted session over the same directory: disk hits only — the
    // acceptance criterion is literally zero pipeline rebuilds.
    let handle = janus.serve(store_config(&dir));
    for binary in &binaries {
        handle.submit(JobSpec::new(binary.clone())).unwrap();
    }
    let warm_outcomes = handle.join();
    let stats = handle.stats();
    assert_eq!(stats.cache_misses, 0, "zero pipeline rebuilds: {stats:?}");
    assert_eq!(stats.disk_hits, names.len() as u64, "{stats:?}");
    assert_eq!(stats.disk_corrupt, 0, "{stats:?}");
    assert_eq!(stats.jobs_failed, 0, "{stats:?}");

    assert_eq!(warm_outcomes.len(), cold_outcomes.len());
    for (((_, cold), (_, warm)), name) in cold_outcomes.iter().zip(&warm_outcomes).zip(&names) {
        let cold = cold.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
        let warm = warm.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            warm.memory_digest, cold.memory_digest,
            "{name}: disk-served memory image diverged from the cold run"
        );
        assert_eq!(warm.output_ints, cold.output_ints, "{name}");
        assert_eq!(warm.output_floats, cold.output_floats, "{name}");
        assert_eq!(warm.exit_code, cold.exit_code, "{name}");
        assert_eq!(warm.schedule_digest, cold.schedule_digest, "{name}");
        assert_eq!(warm.cycles, cold.cycles, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_temp_files_from_a_crashed_writer_are_ignored() {
    let dir = store_dir("crash");
    std::fs::create_dir_all(&dir).unwrap();
    // A writer that died mid-entry leaves a .tmp. file; it must never be
    // read as an entry and must be swept at open.
    let leftover = dir.join("00000000deadbeef.jpa.tmp.12345.7");
    std::fs::write(&leftover, b"torn half-written artifact bytes").unwrap();

    let janus = session_janus();
    let binary = train_binary("470.lbm");
    let handle = janus.serve(store_config(&dir));
    handle.submit(JobSpec::new(binary)).unwrap();
    let outcomes = handle.join();
    assert!(outcomes[0].1.is_ok());
    let stats = handle.stats();
    assert!(!leftover.exists(), "crash leftovers are swept at open");
    assert_eq!(stats.disk_corrupt, 0, "a temp file is not corruption");
    assert_eq!(stats.cache_misses, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatched_entries_are_rebuilt_not_loaded() {
    let dir = store_dir("version");
    let janus = session_janus();
    let binary = train_binary("470.lbm");
    {
        let handle = janus.serve(store_config(&dir));
        handle.submit(JobSpec::new(binary.clone())).unwrap();
        assert!(handle.join()[0].1.is_ok());
    }

    // Rewrite the entry as a future format version would have written it:
    // bump the artifact container version inside the payload (envelope
    // offset 24 + payload offset 4) and re-seal the envelope checksum, so
    // the bytes are *healthy* — just not ours.
    let path = single_entry_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let v = 24 + 4;
    let version = u32::from_le_bytes(bytes[v..v + 4].try_into().unwrap());
    bytes[v..v + 4].copy_from_slice(&(version + 1).to_le_bytes());
    let body_len = bytes.len() - 8;
    let checksum = fnv1a(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let handle = janus.serve(store_config(&dir));
    handle.submit(JobSpec::new(binary)).unwrap();
    assert!(handle.join()[0].1.is_ok());
    let stats = handle.stats();
    assert_eq!(stats.disk_hits, 0, "stale version never loads: {stats:?}");
    assert_eq!(stats.cache_misses, 1, "the entry was rebuilt: {stats:?}");
    assert_eq!(
        stats.disk_corrupt, 0,
        "a version mismatch is staleness, not corruption: {stats:?}"
    );
    // The rebuild overwrote the stale entry with the current version.
    let fresh = std::fs::read(single_entry_path(&dir)).unwrap();
    let found = u32::from_le_bytes(fresh[v..v + 4].try_into().unwrap());
    assert_eq!(found, version, "rebuild re-persisted the current version");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_are_quarantined_and_rebuilt() {
    let dir = store_dir("quarantine");
    let janus = session_janus();
    let binary = train_binary("459.GemsFDTD");
    let cold = {
        let handle = janus.serve(store_config(&dir));
        handle.submit(JobSpec::new(binary.clone())).unwrap();
        let mut outcomes = handle.join();
        outcomes.remove(0).1.expect("cold run succeeds")
    };

    // Rot a byte in the middle of the entry without re-sealing the
    // checksum: the store must refuse, quarantine and rebuild.
    let path = single_entry_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let handle = janus.serve(store_config(&dir));
    handle.submit(JobSpec::new(binary)).unwrap();
    let warm = handle.join().remove(0).1.expect("rebuild serves the job");
    let stats = handle.stats();
    assert_eq!(stats.disk_corrupt, 1, "{stats:?}");
    assert_eq!(stats.disk_hits, 0, "corrupt bytes are never served");
    assert_eq!(stats.cache_misses, 1, "the entry was rebuilt");
    assert_eq!(warm.memory_digest, cold.memory_digest);
    assert_eq!(warm.output_ints, cold.output_ints);
    let quarantined = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().contains(".quarantine."))
        .count();
    assert_eq!(quarantined, 1, "the damaged bytes are preserved aside");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturating_tenant_cannot_starve_a_light_one() {
    const HEAVY_JOBS: u64 = 10;
    let janus = session_janus();
    let binary = train_binary("470.lbm");
    // One worker so the dequeue order is a single observable sequence.
    let handle = janus.serve(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for _ in 0..HEAVY_JOBS {
        handle
            .submit(JobSpec::new(binary.clone()).with_tenant("heavy"))
            .unwrap();
    }
    for _ in 0..2 {
        handle
            .submit(JobSpec::new(binary.clone()).with_tenant("light"))
            .unwrap();
    }
    let outcomes = handle.join();
    let light_sequences: Vec<u64> = outcomes
        .iter()
        .map(|(id, outcome)| outcome.as_ref().unwrap_or_else(|e| panic!("{id}: {e}")))
        .filter(|report| report.tenant == "light")
        .map(|report| report.sequence)
        .collect();
    assert_eq!(light_sequences.len(), 2);
    // Under FIFO the light tenant would be dequeued last (sequences 10 and
    // 11). Deficit round robin interleaves the tenants, so both light jobs
    // start well before the heavy backlog drains — with generous slack for
    // heavy jobs the worker dequeued before the light tenant submitted.
    let last = *light_sequences.iter().max().unwrap();
    assert!(
        last < HEAVY_JOBS,
        "light tenant starved behind the heavy backlog: sequences {light_sequences:?}"
    );
    let _ = handle.shutdown();
}

#[test]
fn tenant_quota_caps_pending_jobs_with_a_typed_error() {
    let janus = session_janus();
    let binary = train_binary("470.lbm");
    let handle = janus.serve(ServeConfig {
        workers: 1,
        tenant_quotas: vec![(
            "capped".into(),
            TenantQuota {
                max_pending: 1,
                ..TenantQuota::default()
            },
        )],
        ..ServeConfig::default()
    });
    // Occupy the single worker (analysis alone outlasts the submissions
    // below), then fill the capped tenant's queue.
    handle.submit(JobSpec::new(binary.clone())).unwrap();
    handle
        .submit(JobSpec::new(binary.clone()).with_tenant("capped"))
        .unwrap();
    let err = handle
        .submit(JobSpec::new(binary.clone()).with_tenant("capped"))
        .expect_err("second pending job exceeds the tenant quota");
    match err {
        ServeError::TenantSaturated {
            tenant,
            pending,
            limit,
        } => {
            assert_eq!(tenant, "capped");
            assert_eq!(pending, 1);
            assert_eq!(limit, 1);
        }
        other => panic!("expected TenantSaturated, got {other}"),
    }
    // Other tenants are unaffected by the capped tenant's quota.
    handle
        .submit(JobSpec::new(binary).with_tenant("other"))
        .unwrap();
    let outcomes = handle.join();
    assert_eq!(outcomes.len(), 3);
    assert!(outcomes.iter().all(|(_, r)| r.is_ok()));
    assert_eq!(handle.stats().jobs_quota_rejected, 1);
}

#[test]
fn deadline_admission_needs_evidence_and_then_rejects_unmeetable_budgets() {
    let janus = session_janus();
    let binary = train_binary("470.lbm");
    let handle = janus.serve(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    // No completed job yet: the cost model has no evidence, so even an
    // absurd budget is admitted rather than guessed at.
    let with_deadline = |deadline| JobSpec {
        deadline: Some(deadline),
        ..JobSpec::new(binary.clone())
    };
    handle
        .submit(with_deadline(Duration::from_nanos(1)))
        .unwrap();
    assert!(handle.join()[0].1.is_ok());

    // One observation later the model knows this binary takes far longer
    // than a nanosecond: the unmeetable budget is rejected, a generous one
    // admitted.
    let err = handle
        .submit(with_deadline(Duration::from_nanos(1)))
        .expect_err("1 ns budget is unmeetable once the model has evidence");
    match err {
        ServeError::DeadlineUnmeetable {
            estimated_nanos,
            budget_nanos,
        } => {
            assert_eq!(budget_nanos, 1);
            assert!(estimated_nanos > budget_nanos);
        }
        other => panic!("expected DeadlineUnmeetable, got {other}"),
    }
    handle
        .submit(with_deadline(Duration::from_secs(3600)))
        .expect("a generous budget is admitted");
    let outcomes = handle.join();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].1.is_ok());
    let stats = handle.stats();
    assert_eq!(stats.jobs_deadline_rejected, 1);
    assert_eq!(stats.jobs_failed, 0);
}
