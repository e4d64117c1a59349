//! The content-addressed artifact cache: binary digest → analysed loops,
//! rewrite schedule and a prepared DBM, built exactly once per digest under
//! a per-key build gate and bounded by a per-shard LRU — optionally layered
//! over a persistent [`ArtifactStore`] disk tier, probed on every memory
//! miss before the pipeline is re-run.

use crate::metrics::CacheMeter;
use crate::store::ArtifactStore;
use crate::ServeError;
use janus_core::{PipelineArtifacts, PreparedDbm};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Everything the serving layer derives from one binary, cached behind its
/// content digest: the front half of the pipeline
/// ([`PipelineArtifacts`]: analysis, optional profile, selected loops,
/// rewrite schedule) plus the [`PreparedDbm`] that executes jobs against the
/// cached schedule. Immutable plain data — share it with `Arc` and execute
/// from any number of threads.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The binary's content digest (the cache key).
    pub digest: u64,
    /// Content digest of the generated rewrite schedule, precomputed so job
    /// reports can name the schedule without serialising it again.
    pub schedule_digest: u64,
    /// The pipeline's cached front half.
    pub pipeline: PipelineArtifacts,
    /// The schedule decoded and the process loaded, ready to execute.
    pub prepared: PreparedDbm,
}

impl Artifact {
    /// Builds the cache entry wrapper for a prepared pipeline.
    #[must_use]
    pub fn new(pipeline: PipelineArtifacts, prepared: PreparedDbm) -> Artifact {
        Artifact {
            digest: pipeline.binary_digest,
            schedule_digest: pipeline.schedule.content_digest(),
            pipeline,
            prepared,
        }
    }
}

/// A ready artifact or the gate of an in-progress build.
enum Slot {
    Ready {
        artifact: Arc<Artifact>,
        last_used: u64,
    },
    Building(Arc<Gate>),
}

/// The per-key build gate: the builder publishes the (shared) result here
/// and wakes every submission that arrived while the build was in flight.
#[derive(Default)]
struct Gate {
    result: Mutex<Option<Result<Arc<Artifact>, ServeError>>>,
    ready: Condvar,
}

/// One shard: its own lock, slot map and LRU clock.
#[derive(Default)]
struct Shard {
    slots: HashMap<u64, Slot>,
    clock: u64,
}

impl Shard {
    fn ready_len(&self) -> usize {
        self.slots
            .iter()
            .filter(|(_, s)| matches!(s, Slot::Ready { .. }))
            .count()
    }
}

/// What a lookup found under the shard lock.
enum Claim {
    Hit(Arc<Artifact>),
    Wait(Arc<Gate>),
    Build(Arc<Gate>),
}

/// A sharded, content-addressed, LRU-bounded store of [`Artifact`]s.
///
/// * **Content-addressed**: keys are [`janus_ir::JBinary::content_digest`]
///   values, so byte-identical binaries share one entry regardless of who
///   submitted them.
/// * **Build-once**: concurrent [`ArtifactCache::get_or_build`] calls for
///   one digest elect exactly one builder; the rest block on the build gate
///   and share the published result (or its error). The expensive builder
///   closure always runs outside every shard lock.
/// * **Bounded**: each shard holds at most `ceil(capacity / shards)` ready
///   artifacts; inserting beyond that evicts the shard's least-recently-used
///   entry. In-progress builds are never evicted.
/// * **Optionally two-tier**: constructed with
///   [`ArtifactCache::with_disk_store`], a memory miss probes the
///   persistent [`ArtifactStore`] first — a disk hit *hydrates* (process
///   load + schedule decode, no pipeline rebuild) and only a disk miss
///   runs the build closure, whose result is then persisted. `misses()`
///   therefore keeps meaning "analyses actually run".
pub struct ArtifactCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    store: Option<Arc<ArtifactStore>>,
    /// Pipeline-config fingerprint stamped on (and required of) disk
    /// entries, so sessions with different configurations sharing one
    /// store directory never serve each other's schedules.
    fingerprint: u64,
    /// The cache's counters: detached (counting for this cache alone)
    /// unless a serving session installed registered handles via
    /// [`ArtifactCache::set_meter`].
    meter: CacheMeter,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

/// Shards of a cache: each has its own mutex and LRU clock.
const SHARDS: usize = 8;

impl ArtifactCache {
    /// A cache bounded to `capacity` entries over 8 shards.
    #[must_use]
    pub fn new(capacity: usize) -> ArtifactCache {
        ArtifactCache::with_shards(capacity, SHARDS)
    }

    /// A cache bounded to `capacity` entries over `shards` shards. The
    /// capacity bound is enforced per shard (`ceil(capacity / shards)`
    /// each), so it is exact for one shard and a high-water mark otherwise.
    fn with_shards(capacity: usize, shards: usize) -> ArtifactCache {
        let capacity_per_shard = capacity.max(1).div_ceil(shards);
        ArtifactCache {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            capacity_per_shard,
            store: None,
            fingerprint: 0,
            meter: CacheMeter::default(),
        }
    }

    /// Installs the registry handles the cache counts into.
    pub(crate) fn set_meter(&mut self, meter: CacheMeter) {
        self.meter = meter;
    }

    /// A two-tier cache: the in-memory tier of [`ArtifactCache::new`]
    /// layered over the persistent `store`. `fingerprint` identifies the
    /// session's pipeline configuration; only disk entries written under the
    /// same fingerprint are loaded (see [`ArtifactStore::load`]).
    #[must_use]
    pub fn with_disk_store(
        capacity: usize,
        store: Arc<ArtifactStore>,
        fingerprint: u64,
    ) -> ArtifactCache {
        let mut cache = ArtifactCache::new(capacity);
        cache.store = Some(store);
        cache.fingerprint = fingerprint;
        cache
    }

    /// The persistent disk tier, when one is configured.
    #[must_use]
    pub fn disk_store(&self) -> Option<&ArtifactStore> {
        self.store.as_deref()
    }

    fn shard(&self, digest: u64) -> &Mutex<Shard> {
        // Mix the high half in so digests landing in few shards need a
        // correlated *64-bit* pattern, then index.
        let mixed = digest ^ (digest >> 32);
        &self.shards[(mixed % self.shards.len() as u64) as usize]
    }

    /// Returns the artifact for `digest`. A memory miss elects this call
    /// the builder: it first probes the disk store (when configured) and
    /// *hydrates* a persisted pipeline through `hydrate` — no analysis —
    /// and only on a disk miss runs `build`, the full pipeline, persisting
    /// the result for future processes. Safe to call concurrently from any
    /// number of threads: one build per digest, everyone shares the result.
    /// A failed build is not cached — the error is delivered to the builder
    /// and every waiter, and the next submission retries.
    ///
    /// `misses()` counts only `build` runs (analyses actually executed);
    /// disk hits are counted by the store.
    ///
    /// # Errors
    ///
    /// Propagates the builder's (or hydrator's) error, shared verbatim with
    /// concurrent waiters of the same build.
    ///
    /// # Panics
    ///
    /// Panics if a previous builder panicked while holding the gate
    /// (poisoned internal lock).
    pub fn get_or_build<H, F>(
        &self,
        digest: u64,
        hydrate: H,
        build: F,
    ) -> Result<Arc<Artifact>, ServeError>
    where
        H: FnOnce(PipelineArtifacts) -> Result<Artifact, ServeError>,
        F: FnOnce() -> Result<Artifact, ServeError>,
    {
        let claim = {
            let mut shard = self.shard(digest).lock().expect("cache shard poisoned");
            shard.clock += 1;
            let now = shard.clock;
            match shard.slots.get_mut(&digest) {
                Some(Slot::Ready {
                    artifact,
                    last_used,
                }) => {
                    *last_used = now;
                    Claim::Hit(artifact.clone())
                }
                Some(Slot::Building(gate)) => Claim::Wait(gate.clone()),
                None => {
                    let gate = Arc::new(Gate::default());
                    shard.slots.insert(digest, Slot::Building(gate.clone()));
                    Claim::Build(gate)
                }
            }
        };

        match claim {
            Claim::Hit(artifact) => {
                self.meter.hits.inc();
                Ok(artifact)
            }
            Claim::Wait(gate) => {
                self.meter.inflight_waits.inc();
                let mut result = gate.result.lock().expect("build gate poisoned");
                while result.is_none() {
                    result = gate.ready.wait(result).expect("build gate poisoned");
                }
                result.clone().expect("checked above")
            }
            Claim::Build(gate) => {
                // The expensive part — disk probe and hydration, or
                // analysis, profiling, schedule generation and process
                // load — runs with no lock held.
                let disk = self
                    .store
                    .as_ref()
                    .and_then(|store| store.load(digest, self.fingerprint));
                let built = match disk {
                    Some(pipeline) => hydrate(pipeline),
                    None => {
                        self.meter.misses.inc();
                        let built = build();
                        if let (Ok(artifact), Some(store)) = (&built, &self.store) {
                            store.store(&artifact.pipeline, self.fingerprint);
                        }
                        built
                    }
                }
                .map(Arc::new);
                {
                    let mut shard = self.shard(digest).lock().expect("cache shard poisoned");
                    match &built {
                        Ok(artifact) => {
                            shard.clock += 1;
                            let now = shard.clock;
                            shard.slots.insert(
                                digest,
                                Slot::Ready {
                                    artifact: artifact.clone(),
                                    last_used: now,
                                },
                            );
                            self.evict_over_capacity(&mut shard);
                        }
                        Err(_) => {
                            // Do not cache failures; the next submission
                            // retries the build.
                            shard.slots.remove(&digest);
                        }
                    }
                }
                let mut result = gate.result.lock().expect("build gate poisoned");
                *result = Some(built.clone());
                gate.ready.notify_all();
                built
            }
        }
    }

    /// Evicts least-recently-used ready entries until the shard is within
    /// its capacity. In-progress builds never count and are never evicted.
    fn evict_over_capacity(&self, shard: &mut Shard) {
        while shard.ready_len() > self.capacity_per_shard {
            let victim = shard
                .slots
                .iter()
                .filter_map(|(digest, slot)| match slot {
                    Slot::Ready { last_used, .. } => Some((*last_used, *digest)),
                    Slot::Building(_) => None,
                })
                .min()
                .map(|(_, digest)| digest);
            let Some(victim) = victim else { break };
            shard.slots.remove(&victim);
            self.meter.evictions.inc();
        }
    }

    /// Ready artifacts currently resident (in-progress builds excluded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").ready_len())
            .sum()
    }

    /// Returns `true` when no artifact is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from a ready artifact.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.meter.hits.get()
    }

    /// Lookups that started a build (the number of analyses actually run).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.meter.misses.get()
    }

    /// Lookups that blocked on another thread's in-progress build.
    #[must_use]
    pub fn inflight_waits(&self) -> u64 {
        self.meter.inflight_waits.get()
    }

    /// Entries evicted by the LRU capacity bound.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.meter.evictions.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::Janus;
    use janus_vm::Process;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Hydrate closure for storeless caches: the disk tier is absent, so
    /// the cache can never call it.
    fn no_hydrate(_: PipelineArtifacts) -> Result<Artifact, ServeError> {
        unreachable!("no disk store configured")
    }

    /// A tiny real artifact (the cache stores whatever the builder returns;
    /// these tests only need distinct digests, so one shared pipeline result
    /// rebadged per key is enough).
    fn test_artifact(digest: u64) -> Artifact {
        use janus_ir::{AsmBuilder, Inst};
        let mut asm = AsmBuilder::new();
        asm.label("main");
        asm.push(Inst::Halt);
        let binary = asm.finish_binary("main").unwrap();
        let janus = Janus::new();
        let mut pipeline = janus.prepare(&binary, &[]).unwrap();
        pipeline.binary_digest = digest;
        let prepared = PreparedDbm::new(
            Process::load(&binary).unwrap(),
            &pipeline.schedule,
            janus.dbm_config(),
        );
        Artifact::new(pipeline, prepared)
    }

    #[test]
    fn second_lookup_hits_and_reuses_the_artifact() {
        let cache = ArtifactCache::new(8);
        let builds = AtomicUsize::new(0);
        for _ in 0..3 {
            let artifact = cache
                .get_or_build(42, no_hydrate, || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    Ok(test_artifact(42))
                })
                .unwrap();
            assert_eq!(artifact.digest, 42);
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_lookups_of_one_digest_build_exactly_once() {
        let cache = ArtifactCache::new(8);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let artifact = cache
                        .get_or_build(7, no_hydrate, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so waiters actually pile
                            // onto the gate.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(test_artifact(7))
                        })
                        .unwrap();
                    assert_eq!(artifact.digest, 7);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one build");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits() + cache.inflight_waits(), 7);
    }

    #[test]
    fn lru_bound_evicts_the_least_recently_used_entry() {
        // One shard so the bound is exact and the LRU order observable.
        let cache = ArtifactCache::with_shards(2, 1);
        let build_count = AtomicUsize::new(0);
        let build = |digest: u64| {
            let _ = build_count.fetch_add(1, Ordering::SeqCst);
            Ok(test_artifact(digest))
        };
        cache.get_or_build(1, no_hydrate, || build(1)).unwrap();
        cache.get_or_build(2, no_hydrate, || build(2)).unwrap();
        // Touch 1 so 2 becomes the LRU victim when 3 arrives.
        cache.get_or_build(1, no_hydrate, || build(1)).unwrap();
        cache.get_or_build(3, no_hydrate, || build(3)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // 1 and 3 are resident, 2 was evicted and rebuilds.
        cache.get_or_build(1, no_hydrate, || build(1)).unwrap();
        cache.get_or_build(3, no_hydrate, || build(3)).unwrap();
        assert_eq!(build_count.load(Ordering::SeqCst), 3, "1 and 3 still hot");
        cache.get_or_build(2, no_hydrate, || build(2)).unwrap();
        assert_eq!(build_count.load(Ordering::SeqCst), 4, "2 was evicted");
        assert_eq!(cache.evictions(), 2, "rebuilding 2 evicted the next LRU");
    }

    #[test]
    fn build_failures_are_shared_but_not_cached() {
        let cache = ArtifactCache::new(8);
        let err = cache
            .get_or_build(9, no_hydrate, || {
                Err(ServeError::Build {
                    digest: 9,
                    reason: "no loops".into(),
                })
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Build { digest: 9, .. }));
        assert!(cache.is_empty(), "failures are not cached");
        // The next submission retries and can succeed.
        let artifact = cache
            .get_or_build(9, no_hydrate, || Ok(test_artifact(9)))
            .unwrap();
        assert_eq!(artifact.digest, 9);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn disk_tier_hydrates_without_rebuilding() {
        use janus_ir::{AsmBuilder, Inst};
        let dir =
            std::env::temp_dir().join(format!("janus-cache-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut asm = AsmBuilder::new();
        asm.label("main");
        asm.push(Inst::Halt);
        let binary = asm.finish_binary("main").unwrap();
        let digest = binary.content_digest();
        let janus = Janus::new();
        let hydrate = |pipeline: PipelineArtifacts| {
            let prepared = PreparedDbm::new(
                Process::load(&binary).unwrap(),
                &pipeline.schedule,
                janus.dbm_config(),
            );
            Ok(Artifact::new(pipeline, prepared))
        };
        let store = Arc::new(ArtifactStore::open(&dir, 0).unwrap());

        // Cold session: disk miss, one analysis, entry persisted.
        let cold = ArtifactCache::with_disk_store(8, store.clone(), 5);
        cold.get_or_build(digest, hydrate, || {
            let pipeline = janus.prepare(&binary, &[]).unwrap();
            let prepared = PreparedDbm::new(
                Process::load(&binary).unwrap(),
                &pipeline.schedule,
                janus.dbm_config(),
            );
            Ok(Artifact::new(pipeline, prepared))
        })
        .unwrap();
        assert_eq!(cold.misses(), 1);
        assert_eq!(store.hits(), 0);
        assert_eq!(store.entries(), 1, "built artifact was persisted");

        // Warm session over the same store: hydrated from disk, no build.
        let warm = ArtifactCache::with_disk_store(8, store.clone(), 5);
        let artifact = warm
            .get_or_build(digest, hydrate, || unreachable!("must hydrate from disk"))
            .unwrap();
        assert_eq!(artifact.digest, digest);
        assert_eq!(warm.misses(), 0, "no analysis ran");
        assert_eq!(store.hits(), 1);

        // A different fingerprint does not see the entry and rebuilds.
        let other = ArtifactCache::with_disk_store(8, store.clone(), 6);
        other
            .get_or_build(digest, hydrate, || {
                let pipeline = janus.prepare(&binary, &[]).unwrap();
                let prepared = PreparedDbm::new(
                    Process::load(&binary).unwrap(),
                    &pipeline.schedule,
                    janus.dbm_config(),
                );
                Ok(Artifact::new(pipeline, prepared))
            })
            .unwrap();
        assert_eq!(other.misses(), 1, "foreign fingerprint is a disk miss");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
