//! The persistent, content-addressed artifact store: the disk tier under
//! [`ArtifactCache`](crate::ArtifactCache).
//!
//! # Why it exists
//!
//! The in-memory cache makes analysis once-per-*session*; a real fleet
//! restarts, redeploys and runs many processes over the same binaries. The
//! store persists each binary's serialised
//! [`PipelineArtifacts`] — digests, loop
//! selection and the rewrite schedule, the paper's compact once-per-binary
//! artifact — under a digest-named file, so any process that opens the same
//! directory warm-starts with the whole front half of the pipeline already
//! paid for.
//!
//! # On-disk format
//!
//! One file per binary digest, named `<digest as 16 hex digits>.jpa`, laid
//! out as:
//!
//! ```text
//! magic      b"JSTO"                      (4 bytes)
//! version    STORE_FORMAT_VERSION         (u32 LE)
//! fingerprint                             (u64 LE)  — pipeline-config hash
//! payload_len                             (u64 LE)
//! payload    PipelineArtifacts::to_bytes  (payload_len bytes)
//! checksum   FNV-1a over everything above (u64 LE)
//! ```
//!
//! The payload carries its own header (artifact container version **and**
//! the schedule format version (`SCHEDULE_FORMAT_VERSION` in
//! `janus-schedule`) plus the schedule's content
//! digest), so an entry is guarded three ways: the store envelope checksum
//! catches torn or rotted bytes, the embedded version pair catches images
//! written by a different build of the serialisation code, and the schedule
//! digest catches payload tampering that happens to stay structurally
//! parseable. The *fingerprint* hashes the pipeline configuration that
//! shaped the schedule (optimisation mode, thread count, speculation,
//! coverage threshold, training input): two sessions sharing a directory
//! but configured differently do not serve each other's schedules.
//!
//! # Crash safety: temp file + atomic rename
//!
//! Writers never touch the final name until the entry is complete: the
//! image is written to `<name>.tmp.<pid>.<seq>` in the same directory,
//! `sync_all`'d, then [`std::fs::rename`]d onto `<digest>.jpa`. Because
//! POSIX `rename(2)` within one filesystem is atomic, a reader (in this or
//! any other process) observes either the old entry, the new entry, or no
//! entry — never a prefix. A crash mid-write leaves only a `.tmp.` file,
//! which readers ignore by name and [`ArtifactStore::open`] sweeps away.
//! Two processes racing to persist the same digest both write the same
//! logical content; last rename wins and both files were complete.
//!
//! # Corruption quarantine
//!
//! Entries that fail the checksum or decode as damaged are **never
//! trusted and never silently deleted**: they are renamed aside to
//! `<name>.quarantine.<n>` (preserving the evidence for inspection),
//! counted in [`ArtifactStore::corrupt`], and the caller rebuilds from the
//! binary as if the entry never existed. Version-mismatched entries are
//! different — they are *stale*, not damaged — so they are removed and
//! rebuilt without quarantine.

use crate::metrics::StoreMeter;
use janus_core::{ArtifactDecodeError, PipelineArtifacts};
use janus_ir::digest::fnv1a;
use janus_obs::Recorder;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Version of the store's file envelope (magic + fingerprint + checksum).
/// Orthogonal to the payload's own versions; bump when the envelope layout
/// changes.
pub const STORE_FORMAT_VERSION: u32 = 1;

const STORE_MAGIC: &[u8; 4] = b"JSTO";
const ENTRY_EXT: &str = "jpa";

/// Per-entry bookkeeping for the byte-budget eviction policy.
struct EntryMeta {
    bytes: u64,
    last_used: u64,
}

/// Mutable store state: the entry index plus the LRU clock.
struct StoreState {
    entries: HashMap<u64, EntryMeta>,
    clock: u64,
    tmp_seq: u64,
}

impl StoreState {
    fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }
}

/// A disk-backed, content-addressed store of serialised
/// [`PipelineArtifacts`], safe to share between threads and between
/// processes pointed at the same directory.
///
/// See the [module docs](self) for the on-disk format and the crash-safety
/// argument. Typical use is through
/// [`ServeConfig::store_dir`](crate::ServeConfig::store_dir) — the serving
/// session opens the store and layers the in-memory
/// [`ArtifactCache`](crate::ArtifactCache) over it — but the store is also
/// usable standalone.
pub struct ArtifactStore {
    dir: PathBuf,
    /// Byte budget; 0 = unbounded. Enforced after every insert by evicting
    /// least-recently-used entries (as seen by this process).
    max_bytes: u64,
    state: Mutex<StoreState>,
    /// Flight recorder for store events (write / quarantine / evict).
    /// Disabled by default; the serving session installs its own via
    /// [`ArtifactStore::set_recorder`].
    recorder: Recorder,
    /// The store's counters: detached (counting for this store alone)
    /// until a serving session installs registered ones.
    meter: StoreMeter,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("dir", &self.dir)
            .field("max_bytes", &self.max_bytes)
            .field("entries", &self.entries())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("corrupt", &self.corrupt())
            .finish()
    }
}

impl ArtifactStore {
    /// Opens (creating if needed) a store over `dir` with a byte budget of
    /// `max_bytes` (0 = unbounded).
    ///
    /// Warm start happens here: the directory is scanned once, existing
    /// entries are indexed by digest (their payloads load lazily on first
    /// [`ArtifactStore::load`]), and stale `.tmp.` files left behind by a
    /// crashed writer are swept away. Quarantined files are left untouched.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created or read.
    pub fn open(dir: impl Into<PathBuf>, max_bytes: u64) -> std::io::Result<ArtifactStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut entries = HashMap::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.contains(".tmp.") {
                // A writer died mid-entry; the final name was never
                // renamed into place, so this prefix is garbage.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            let Some(stem) = name.strip_suffix(&format!(".{ENTRY_EXT}")) else {
                continue;
            };
            let Ok(digest) = u64::from_str_radix(stem, 16) else {
                continue;
            };
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            entries.insert(
                digest,
                EntryMeta {
                    bytes,
                    last_used: 0,
                },
            );
        }
        Ok(ArtifactStore {
            dir,
            max_bytes,
            state: Mutex::new(StoreState {
                entries,
                clock: 0,
                tmp_seq: 0,
            }),
            recorder: Recorder::default(),
            meter: StoreMeter::default(),
        })
    }

    /// Installs the flight recorder store events are reported to. With an
    /// enabled recorder, writes, evictions and corruption quarantines
    /// surface as structured `serve.store` instants; quarantine notices
    /// fall back to `stderr` otherwise — they are never silent.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Installs the registry handles the store counts into.
    pub(crate) fn set_meter(&mut self, meter: StoreMeter) {
        self.meter = meter;
    }

    /// The directory this store persists into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("{digest:016x}.{ENTRY_EXT}"))
    }

    /// Renames a damaged entry aside (never deleting the evidence) and
    /// counts it.
    fn quarantine(&self, digest: u64, path: &Path, reason: &str) {
        self.meter.corrupt.inc();
        let mut state = self.state.lock().expect("store state poisoned");
        state.entries.remove(&digest);
        state.tmp_seq += 1;
        let aside = self.dir.join(format!(
            "{digest:016x}.{ENTRY_EXT}.quarantine.{}",
            state.tmp_seq
        ));
        drop(state);
        if fs::rename(path, &aside).is_err() {
            // The file vanished (another process may have raced us); there
            // is nothing left to preserve.
            let _ = fs::remove_file(path);
        } else if self.recorder.is_enabled() {
            self.recorder.instant(
                "serve.store",
                "store.quarantine",
                &[
                    ("digest", format!("{digest:#018x}").into()),
                    ("reason", reason.into()),
                    ("aside", aside.display().to_string().into()),
                ],
            );
        } else {
            // Quarantine is loud by design: an operator should know the
            // medium produced bytes that were never written.
            eprintln!(
                "janus-serve: quarantined corrupt artifact {digest:#018x} ({reason}) -> {}",
                aside.display()
            );
        }
    }

    /// Loads the artifact stored for `digest`, if a loadable entry exists
    /// and was written under the same pipeline-config `fingerprint`.
    ///
    /// Returns `None` — counting a miss — when no entry exists, when the
    /// entry is stale (other fingerprint, other format version: removed,
    /// to be rebuilt and overwritten) or when it is corrupt (checksum or
    /// digest failure: quarantined, see the module docs). Never returns
    /// bytes that fail verification.
    pub fn load(&self, digest: u64, fingerprint: u64) -> Option<PipelineArtifacts> {
        let path = self.entry_path(digest);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.meter.misses.inc();
                return None;
            }
        };
        match self.decode(digest, fingerprint, &bytes) {
            Ok(artifacts) => {
                let mut state = self.state.lock().expect("store state poisoned");
                state.clock += 1;
                let now = state.clock;
                state
                    .entries
                    .entry(digest)
                    .or_insert(EntryMeta {
                        bytes: bytes.len() as u64,
                        last_used: 0,
                    })
                    .last_used = now;
                drop(state);
                self.meter.hits.inc();
                Some(artifacts)
            }
            Err(EntryFault::Stale) => {
                // Written by another format version or another pipeline
                // configuration: perfectly healthy bytes, just not ours.
                // Remove so the rebuild's overwrite is the only copy.
                let mut state = self.state.lock().expect("store state poisoned");
                state.entries.remove(&digest);
                drop(state);
                let _ = fs::remove_file(&path);
                self.meter.misses.inc();
                None
            }
            Err(EntryFault::Corrupt(reason)) => {
                self.quarantine(digest, &path, &reason);
                self.meter.misses.inc();
                None
            }
        }
    }

    /// Envelope + payload verification for one entry's bytes.
    fn decode(
        &self,
        digest: u64,
        fingerprint: u64,
        bytes: &[u8],
    ) -> Result<PipelineArtifacts, EntryFault> {
        let corrupt = |reason: &str| EntryFault::Corrupt(reason.to_string());
        // Envelope: magic(4) + version(4) + fingerprint(8) + len(8) +
        // payload + checksum(8).
        if bytes.len() < 32 {
            return Err(corrupt("short envelope"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let recorded = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a(body) != recorded {
            return Err(corrupt("envelope checksum mismatch"));
        }
        if &body[0..4] != STORE_MAGIC {
            return Err(corrupt("bad envelope magic"));
        }
        let version = u32::from_le_bytes(body[4..8].try_into().unwrap());
        if version != STORE_FORMAT_VERSION {
            return Err(EntryFault::Stale);
        }
        let entry_fingerprint = u64::from_le_bytes(body[8..16].try_into().unwrap());
        if entry_fingerprint != fingerprint {
            return Err(EntryFault::Stale);
        }
        let payload_len = u64::from_le_bytes(body[16..24].try_into().unwrap()) as usize;
        let payload = &body[24..];
        if payload.len() != payload_len {
            return Err(corrupt("payload length mismatch"));
        }
        let artifacts = PipelineArtifacts::from_bytes(payload).map_err(|e| match e {
            ArtifactDecodeError::VersionMismatch { .. } => EntryFault::Stale,
            other => EntryFault::Corrupt(other.to_string()),
        })?;
        if artifacts.binary_digest != digest {
            return Err(corrupt("entry content belongs to a different binary"));
        }
        Ok(artifacts)
    }

    /// Persists `artifacts` under their binary digest, tagged with the
    /// session's pipeline-config `fingerprint`.
    ///
    /// Best-effort by design: persistence failures (full disk, permissions)
    /// are counted in the `janus_store_errors_total` metric and the session keeps
    /// serving from memory — the entry is simply rebuilt by the next
    /// process. The write path is temp file + `sync_all` + atomic rename;
    /// see the module docs for why a concurrent reader or a crash can never
    /// observe a torn entry.
    pub fn store(&self, artifacts: &PipelineArtifacts, fingerprint: u64) {
        let payload = artifacts.to_bytes();
        let mut body = Vec::with_capacity(32 + payload.len());
        body.extend_from_slice(STORE_MAGIC);
        body.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&fingerprint.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        body.extend_from_slice(&payload);
        let checksum = fnv1a(&body);
        body.extend_from_slice(&checksum.to_le_bytes());

        let digest = artifacts.binary_digest;
        let (tmp, now) = {
            let mut state = self.state.lock().expect("store state poisoned");
            state.tmp_seq += 1;
            state.clock += 1;
            (
                self.dir.join(format!(
                    "{digest:016x}.{ENTRY_EXT}.tmp.{}.{}",
                    std::process::id(),
                    state.tmp_seq
                )),
                state.clock,
            )
        };
        let written = (|| -> std::io::Result<()> {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&body)?;
            // Flush to the medium before the rename publishes the name: a
            // crash after rename must find the full content.
            file.sync_all()?;
            fs::rename(&tmp, self.entry_path(digest))?;
            Ok(())
        })();
        match written {
            Ok(()) => {
                if self.recorder.is_enabled() {
                    self.recorder.instant(
                        "serve.store",
                        "store.write",
                        &[
                            ("digest", format!("{digest:#018x}").into()),
                            ("bytes", body.len().into()),
                        ],
                    );
                }
                let mut state = self.state.lock().expect("store state poisoned");
                state.entries.insert(
                    digest,
                    EntryMeta {
                        bytes: body.len() as u64,
                        last_used: now,
                    },
                );
                self.enforce_budget(&mut state);
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                self.meter.errors.inc();
            }
        }
    }

    /// Evicts least-recently-used entries until the byte budget holds.
    fn enforce_budget(&self, state: &mut StoreState) {
        if self.max_bytes == 0 {
            return;
        }
        while state.total_bytes() > self.max_bytes && state.entries.len() > 1 {
            let victim = state
                .entries
                .iter()
                .map(|(digest, meta)| (meta.last_used, *digest, meta.bytes))
                .min()
                .expect("non-empty");
            let (_, digest, bytes) = victim;
            state.entries.remove(&digest);
            let _ = fs::remove_file(self.entry_path(digest));
            self.meter.evicted_bytes.add(bytes);
            if self.recorder.is_enabled() {
                self.recorder.instant(
                    "serve.store",
                    "store.evict",
                    &[
                        ("digest", format!("{digest:#018x}").into()),
                        ("bytes", bytes.into()),
                    ],
                );
            }
        }
    }

    /// Entries currently indexed by this process (the scan at open plus
    /// everything loaded or stored since, minus evictions and quarantines).
    #[must_use]
    pub fn entries(&self) -> usize {
        self.state
            .lock()
            .expect("store state poisoned")
            .entries
            .len()
    }

    /// Total bytes of the indexed entries.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.state
            .lock()
            .expect("store state poisoned")
            .total_bytes()
    }

    /// Loads served from a verified disk entry.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.meter.hits.get()
    }

    /// Loads that found no usable entry (absent, stale or corrupt).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.meter.misses.get()
    }

    /// Entries quarantined because their bytes failed verification.
    #[must_use]
    pub fn corrupt(&self) -> u64 {
        self.meter.corrupt.get()
    }

    /// Bytes removed by the byte-budget eviction policy.
    #[must_use]
    pub fn evicted_bytes(&self) -> u64 {
        self.meter.evicted_bytes.get()
    }
}

/// Why one entry could not be served.
enum EntryFault {
    /// Healthy bytes from another build or configuration: delete + rebuild.
    Stale,
    /// Damaged bytes: quarantine + rebuild.
    Corrupt(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::Janus;
    use janus_ir::{AsmBuilder, Inst};

    fn tiny_artifacts() -> PipelineArtifacts {
        let mut asm = AsmBuilder::new();
        asm.label("main");
        asm.push(Inst::Halt);
        let binary = asm.finish_binary("main").unwrap();
        Janus::new().prepare(&binary, &[]).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("janus-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_and_warm_starts_across_opens() {
        let dir = temp_dir("roundtrip");
        let artifacts = tiny_artifacts();
        let digest = artifacts.binary_digest;
        {
            let store = ArtifactStore::open(&dir, 0).unwrap();
            assert_eq!(store.entries(), 0);
            store.store(&artifacts, 99);
            assert_eq!(store.entries(), 1);
            let loaded = store.load(digest, 99).expect("fresh entry loads");
            assert_eq!(loaded.schedule, artifacts.schedule);
            assert_eq!(store.hits(), 1);
        }
        // A second open (a "second process") indexes the entry and serves it.
        let store = ArtifactStore::open(&dir, 0).unwrap();
        assert_eq!(store.entries(), 1, "warm start indexed the entry");
        let loaded = store.load(digest, 99).expect("persisted entry loads");
        assert_eq!(loaded.binary_digest, digest);
        assert!(loaded.analysis.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_a_miss_not_a_quarantine() {
        let dir = temp_dir("fingerprint");
        let artifacts = tiny_artifacts();
        let store = ArtifactStore::open(&dir, 0).unwrap();
        store.store(&artifacts, 1);
        assert!(store.load(artifacts.binary_digest, 2).is_none());
        assert_eq!(store.corrupt(), 0, "stale entries are not corruption");
        assert_eq!(store.misses(), 1);
        assert_eq!(store.entries(), 0, "stale entry was removed for rebuild");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_never_served() {
        let dir = temp_dir("corrupt");
        let artifacts = tiny_artifacts();
        let digest = artifacts.binary_digest;
        let store = ArtifactStore::open(&dir, 0).unwrap();
        store.store(&artifacts, 7);
        let path = store.entry_path(digest);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        assert!(store.load(digest, 7).is_none());
        assert_eq!(store.corrupt(), 1);
        assert!(!path.exists(), "corrupt entry is moved aside");
        let quarantined = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".quarantine."))
            .count();
        assert_eq!(quarantined, 1, "the evidence is preserved");
        // The slot is free again: a rebuild stores and serves cleanly.
        store.store(&artifacts, 7);
        assert!(store.load(digest, 7).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_entries() {
        let dir = temp_dir("budget");
        let a = tiny_artifacts();
        let entry_bytes = {
            let probe = ArtifactStore::open(temp_dir("budget-probe"), 0).unwrap();
            probe.store(&a, 0);
            let n = probe.total_bytes();
            let _ = fs::remove_dir_all(probe.dir());
            n
        };
        // Budget for two entries; three distinct digests forced in by
        // rebadging the binary digest.
        let store = ArtifactStore::open(&dir, entry_bytes * 2).unwrap();
        for digest in [1u64, 2, 3] {
            let mut artifacts = a.clone();
            artifacts.binary_digest = digest;
            store.store(&artifacts, 0);
            // Keep digest 1 hot so 2 is the LRU victim when 3 lands.
            if digest == 2 {
                assert!(store.load(1, 0).is_some());
            }
        }
        assert_eq!(store.entries(), 2);
        assert_eq!(store.evicted_bytes(), entry_bytes);
        assert!(store.load(1, 0).is_some(), "hot entry survived");
        assert!(store.load(2, 0).is_none(), "LRU victim evicted");
        assert!(store.load(3, 0).is_some(), "newest entry survived");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_temp_files() {
        let dir = temp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        let stale = dir.join(format!("0000000000000001.{ENTRY_EXT}.tmp.999.1"));
        fs::write(&stale, b"partial garbage from a crashed writer").unwrap();
        let store = ArtifactStore::open(&dir, 0).unwrap();
        assert!(!stale.exists(), "crash leftovers are swept at open");
        assert_eq!(store.entries(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
