//! `serve-churn`: a population of distinct generated binaries, 8x the memory
//! cache's capacity, against a fresh `store_dir` per repetition.
//!
//! A **cold leg** (new session, each binary once: one analysis and one store
//! write each) then a **warm leg** (new session on the same directory, the
//! population twice: the LRU thrashes, so every job hydrates from disk and
//! nothing is analysed). Guest runs are tiny, so cache miss,
//! `ArtifactStore::store` / `load`, `PipelineArtifacts::from_bytes`,
//! `Process::load` and `PreparedDbm::new` dominate: serve used for writes
//! beside reads of a non-resident working set, where a hydrate gain that
//! costs the put path (or a verifier added on hydrate) shows.
//!
//! Only the warm leg counts toward `wall_s`. The cold leg is bound by 512
//! `sync_all` calls on a shared virtio disk whose latency shifts by 30% for
//! minutes at a time and follows neither the CPU calibration nor a disk
//! calibration (correlation 0.5), so its fastest time spreads 22% between runs. It
//! still runs, checked, in every repetition — it writes the store the warm
//! leg reads — and is reported per layer (`serve.cold_leg_s`,
//! `serve.store_put_us`).

use super::{bump, fold, Counts, Ops, Reading, Workload};
use crate::harness::{self, Cfg, Generated, Rng};
use crate::reference::{Expected, GuestResult};
use crate::stats::mean;
use crate::trace::Tracer;
use crate::workloads::serve_hot::TENANTS;
use janus::core::Janus;
use janus::ir::JBinary;
use janus::obs::metrics::Registry;
use janus::serve::{ArtifactStore, JobSpec, ServeConfig, ServeSession, ServeStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct ServeChurn {
    cfg: Cfg,
    janus: Janus,
    population: Vec<Generated>,
    jobs: Vec<JobSpec>,
    /// Seeded submission order of the population.
    order: Vec<usize>,
    rep: u32,
    /// Memory digest each binary left behind the first time it ran. Every
    /// later run must leave the same one, a hydrated artifact's included.
    images: BTreeMap<usize, u64>,
    /// Readings of the last traced repetition.
    cold: ServeStats,
    warm: ServeStats,
    store_bytes: u64,
}

impl ServeChurn {
    pub fn setup(cfg: &Cfg) -> Result<ServeChurn, String> {
        let expected = Expected::load(&cfg.expected)?;
        let population = harness::population(cfg.seed, cfg.population());
        expected.check_population(cfg.seed, &population)?;
        let mut rng = Rng::new(cfg.seed, 3);
        let jobs = population
            .iter()
            .map(|g| JobSpec::new(g.binary.clone()).with_tenant(TENANTS[rng.below(TENANTS.len())]))
            .collect();
        let mut order: Vec<usize> = (0..population.len()).collect();
        rng.shuffle(&mut order);
        Ok(ServeChurn {
            cfg: cfg.clone(),
            janus: harness::janus_with(1),
            population,
            jobs,
            order,
            rep: 0,
            images: BTreeMap::new(),
            cold: ServeStats::default(),
            warm: ServeStats::default(),
            store_bytes: 0,
        })
    }

    fn serve_config(&self, store_dir: &Path) -> ServeConfig {
        let n = self.population.len();
        ServeConfig {
            workers: self.cfg.threads as usize,
            // Closed loop: a whole leg is submitted before `join`.
            queue_depth: 2 * n + 1,
            // The library default (64) for the full population; the same
            // 8:1 ratio under `--quick`.
            cache_capacity: (n / 8).max(1),
            store_dir: Some(store_dir.to_path_buf()),
            metrics: Some(Registry::new()),
            ..ServeConfig::default()
        }
    }

    /// One leg: a new session on `store_dir`, the population `passes` times.
    /// The leg is charged to the repetition's wall, its checks are not.
    fn leg(
        &mut self,
        label: &'static str,
        store_dir: &Path,
        passes: usize,
        t: &mut Tracer,
        ops: &mut Ops,
        counts: &mut Counts,
    ) -> ServeStats {
        let part = Instant::now();
        let leg = t.begin("leg", label);
        let config = self.serve_config(store_dir);
        let handle = match t.time("serve.open", label, || self.janus.try_serve(config)) {
            Ok(handle) => handle,
            Err(e) => {
                ops.check(Err(format!("{label} leg: session did not open: {e}")));
                t.end(leg);
                ops.timed(part);
                return ServeStats::default();
            }
        };
        let submit = t.begin("serve.submit", label);
        let mut submitted = Vec::with_capacity(passes * self.order.len());
        for _ in 0..passes {
            for &i in &self.order {
                match handle.submit(self.jobs[i].clone()) {
                    Ok(id) => submitted.push((id, i)),
                    Err(e) => ops.check(Err(format!(
                        "{}: submission rejected: {e}",
                        self.population[i].name
                    ))),
                }
            }
        }
        t.end(submit);
        let outcomes = t.time("serve.join", label, || handle.join());
        let stats = t.time("serve.shutdown", label, || handle.shutdown());
        t.end(leg);
        ops.timed(part);

        let check = t.begin("bench.check", label);
        // `join` returns outcomes in submission order.
        let mut outcomes = outcomes.into_iter();
        for (id, i) in submitted {
            let g = &self.population[i];
            let outcome = outcomes.by_ref().find(|(done, _)| *done == id);
            ops.check(match outcome {
                Some((_, Ok(report))) => {
                    bump(counts, "serve.job_cycles", report.cycles);
                    fold(counts, "serve.memory_digest_fold", report.memory_digest);
                    let image = *self.images.entry(i).or_insert(report.memory_digest);
                    GuestResult::from_job(&report)
                        .outputs_match(&g.reference)
                        .map_err(|e| format!("{}: {e}", g.name))
                        .and_then(|()| {
                            if image == report.memory_digest {
                                Ok(())
                            } else {
                                Err(format!("{}: memory digest did not repeat", g.name))
                            }
                        })
                }
                Some((_, Err(e))) => Err(format!("{}: job failed: {e}", g.name)),
                None => Err(format!("{}: job {id} has no outcome", g.name)),
            });
        }
        t.end(check);
        stats
    }

    fn store_dir(&self) -> PathBuf {
        self.cfg
            .out_dir
            .join(format!("store-{}-{}", std::process::id(), self.rep))
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Workload for ServeChurn {
    fn rep(&mut self, t: &mut Tracer, ops: &mut Ops) -> Counts {
        self.rep += 1;
        let dir = self.store_dir();
        let _ = std::fs::remove_dir_all(&dir);

        let mut counts = Counts::new();
        let cold = self.leg("cold", &dir, 1, t, ops, &mut counts);
        // Only the warm leg counts toward `wall_s` (see the module docs).
        ops.wall_s = 0.0;
        let warm = self.leg("warm", &dir, 2, t, ops, &mut counts);
        bump(&mut counts, "serve.cold_analyses", cold.cache_misses);
        bump(&mut counts, "serve.cold_disk_misses", cold.disk_misses);
        bump(&mut counts, "serve.warm_analyses", warm.cache_misses);
        // Not `warm.disk_hits`: under `--quick` two binaries of one cache
        // shard can be adjacent in the order, and which of two racing
        // workers inserts first then decides a memory hit or a disk hit.
        bump(
            &mut counts,
            "serve.disk_corrupt",
            cold.disk_corrupt + warm.disk_corrupt,
        );
        bump(
            &mut counts,
            "serve.jobs_rejected",
            cold.jobs_rejected + warm.jobs_rejected,
        );
        bump(
            &mut counts,
            "serve.jobs_failed",
            cold.jobs_failed + warm.jobs_failed,
        );
        bump(
            &mut counts,
            "serve.jobs_completed",
            cold.jobs_completed + warm.jobs_completed,
        );
        // The warm leg must be served from disk alone.
        ops.check(if warm.cache_misses == 0 {
            Ok(())
        } else {
            Err(format!("warm leg ran {} analyses", warm.cache_misses))
        });

        // Sizing and removing the store is neither leg's work.
        let cleanup = t.begin("bench.cleanup", "");
        if t.is_enabled() {
            self.cold = cold;
            self.warm = warm;
            self.store_bytes = dir_bytes(&dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
        t.end(cleanup);
        counts
    }

    fn layers(&mut self, t: &Tracer) -> Vec<Reading> {
        let leg_s = |label: &str| -> f64 {
            let walls: Vec<f64> = t
                .spans()
                .iter()
                .filter(|s| s.name == "leg" && s.id == label)
                .map(|s| s.dur_ns() as f64 / 1e9)
                .collect();
            mean(&walls)
        };

        // The store's put and load paths alone, on a sample of the
        // population's artifacts.
        let sample: Vec<&Generated> = self.population.iter().take(64).collect();
        let dir = self
            .cfg
            .out_dir
            .join(format!("store-micro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut put_us, mut load_us) = (Vec::new(), Vec::new());
        if let Ok(store) = ArtifactStore::open(&dir, 0) {
            let artifacts: Vec<_> = sample
                .iter()
                .filter_map(|g| self.janus.prepare(&g.binary, &[]).ok())
                .collect();
            for a in &artifacts {
                let start = Instant::now();
                store.store(a, 7);
                put_us.push(start.elapsed().as_nanos() as f64 / 1e3);
            }
            for a in &artifacts {
                let start = Instant::now();
                black_box(store.load(a.binary_digest, 7));
                load_us.push(start.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        // The binary format: content digest and decode, per binary.
        let images: Vec<Vec<u8>> = self
            .population
            .iter()
            .map(|g| g.binary.to_bytes())
            .collect();
        let start = Instant::now();
        for g in &self.population {
            black_box(g.binary.content_digest());
        }
        let digest_us = start.elapsed().as_nanos() as f64 / 1e3 / images.len() as f64;
        let start = Instant::now();
        for bytes in &images {
            let _ = black_box(JBinary::from_bytes(bytes));
        }
        let decode_us = start.elapsed().as_nanos() as f64 / 1e3 / images.len() as f64;
        let binary_bytes = images.iter().map(Vec::len).sum::<usize>() as f64 / images.len() as f64;

        let (cold, warm) = (&self.cold, &self.warm);
        vec![
            ("ir.digest_us", digest_us),
            ("ir.decode_us", decode_us),
            ("ir.binary_bytes", binary_bytes),
            ("serve.store_put_us", mean(&put_us)),
            ("serve.store_load_us", mean(&load_us)),
            ("serve.store_bytes", self.store_bytes as f64),
            ("serve.cold_leg_s", leg_s("cold")),
            ("serve.warm_leg_s", leg_s("warm")),
            (
                "serve.cache_misses",
                (cold.cache_misses + warm.cache_misses) as f64,
            ),
            (
                "serve.cache_evictions",
                (cold.cache_evictions + warm.cache_evictions) as f64,
            ),
            ("serve.disk_hits", (cold.disk_hits + warm.disk_hits) as f64),
            (
                "serve.disk_misses",
                (cold.disk_misses + warm.disk_misses) as f64,
            ),
            (
                "serve.disk_corrupt",
                (cold.disk_corrupt + warm.disk_corrupt) as f64,
            ),
            (
                "serve.jobs_rejected",
                (cold.jobs_rejected + warm.jobs_rejected) as f64,
            ),
            (
                "serve.jobs_failed",
                (cold.jobs_failed + warm.jobs_failed) as f64,
            ),
        ]
    }
}
