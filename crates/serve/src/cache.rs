//! Content-addressed model store: a bounded in-memory LRU tier with an
//! optional checksummed on-disk tier.
//!
//! Models are keyed by the content hash of the *workload spec* that
//! produced them (see [`crate::handlers`]), so a repeated `/v1/profile`
//! request is answered from the cache without re-profiling. Entries are
//! immutable once inserted — a key fully determines its model — which is
//! what makes the lock-then-compute-then-insert race benign: two racing
//! writers insert byte-identical values.
//!
//! # Memory tier
//!
//! The memory tier holds at most `capacity` entries. When full, the
//! least-recently-used entry is evicted (ties broken by key, so eviction
//! order is a deterministic function of the access history). Evictions
//! are counted and surfaced as `gmap_cache_evictions_total`.
//!
//! # Disk tier integrity
//!
//! Disk entries are stored as `<dir>/<key>.json` in a two-part format:
//! the first line is the content checksum of the payload (the same
//! FNV-128 digest used for cache keys), and the remainder is the
//! canonical model JSON. On read the checksum is re-derived and compared;
//! any mismatch — torn write, bit rot, truncation, or a legacy
//! un-checksummed file — quarantines the entry by renaming it to
//! `<key>.json.quarantine`. A quarantined entry is never served and never
//! retried; the next insert under that key writes a fresh file. Writes
//! are atomic (temp file + rename) and leftover `*.json.tmp` files from
//! a crashed writer are deleted when the store opens.

use crate::api::{profile_stats, ProfileStats};
use crate::faults::{FaultInjector, FaultKind};
use gmap_core::application::AppProfile;
use gmap_core::cachekey::content_key;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default bound on the in-memory tier when none is configured.
pub const DEFAULT_MEM_CAPACITY: usize = 256;

/// An immutable cached model plus its canonical JSON rendering and the
/// summary every reply about it carries.
#[derive(Debug)]
pub struct StoredModel {
    /// The profiled application model.
    pub model: AppProfile,
    /// Canonical compact JSON of `model` (what the disk tier holds).
    pub json: String,
    /// Summary of `model`, derived once from `json`.
    pub stats: ProfileStats,
}

impl StoredModel {
    /// Renders `model` once; the summary's content key hashes that string.
    pub fn new(model: AppProfile) -> Self {
        let json = model.to_json();
        Self::with_json(model, json)
    }

    /// The one constructor: `json` is `model`'s canonical JSON.
    fn with_json(model: AppProfile, json: String) -> Self {
        let stats = profile_stats(&model, &json);
        StoredModel { model, json, stats }
    }
}

struct MemEntry {
    stored: Arc<StoredModel>,
    /// Logical access time: bumped on every hit, used for LRU eviction.
    tick: u64,
}

struct MemTier {
    map: HashMap<String, MemEntry>,
    clock: u64,
}

/// The content-addressed model cache.
pub struct ModelStore {
    mem: Mutex<MemTier>,
    capacity: usize,
    disk_dir: Option<PathBuf>,
    faults: Option<Arc<FaultInjector>>,
    evictions: AtomicU64,
    quarantined: AtomicU64,
    recovered_tmp: AtomicU64,
}

impl ModelStore {
    /// Creates a store with the default memory bound; with `Some(dir)`,
    /// entries are persisted as `<dir>/<key>.json` and survive restarts.
    ///
    /// # Errors
    ///
    /// Fails if the disk directory cannot be created.
    pub fn new(disk_dir: Option<PathBuf>) -> io::Result<Self> {
        Self::with_config(disk_dir, DEFAULT_MEM_CAPACITY, None)
    }

    /// Creates a store with an explicit memory-tier capacity and an
    /// optional fault injector driving disk-tier failures.
    ///
    /// # Errors
    ///
    /// Fails if the disk directory cannot be created.
    pub fn with_config(
        disk_dir: Option<PathBuf>,
        capacity: usize,
        faults: Option<Arc<FaultInjector>>,
    ) -> io::Result<Self> {
        let store = ModelStore {
            mem: Mutex::new(MemTier {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
            disk_dir,
            faults,
            evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            recovered_tmp: AtomicU64::new(0),
        };
        if let Some(dir) = &store.disk_dir {
            std::fs::create_dir_all(dir)?;
            store.recover_torn_writes(dir)?;
        }
        Ok(store)
    }

    /// Deletes `*.json.tmp` leftovers from a writer that died mid-publish.
    /// The rename in [`ModelStore::insert`] is atomic, so a temp file can
    /// only ever be an unpublished (and possibly truncated) write.
    fn recover_torn_writes(&self, dir: &Path) -> io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let is_tmp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".json.tmp"));
            if is_tmp && std::fs::remove_file(&path).is_ok() {
                self.recovered_tmp.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Number of models resident in memory.
    pub fn len(&self) -> usize {
        self.mem.lock().expect("store lock poisoned").map.len()
    }

    /// Whether the in-memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured memory-tier bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Memory-tier entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Disk entries quarantined after failing their integrity check.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Torn temp files removed during startup recovery.
    pub fn recovered_tmp(&self) -> u64 {
        self.recovered_tmp.load(Ordering::Relaxed)
    }

    fn disk_fault(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.fires(FaultKind::DiskErr))
    }

    fn short_write(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.fires(FaultKind::ShortWrite))
    }

    fn disk_path(&self, key: &str) -> Option<PathBuf> {
        // Keys are hex strings we minted ourselves, but never trust a
        // client-supplied id as a path component.
        if !key.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{key}.json")))
    }

    /// Inserts into the memory tier under the lock, evicting the LRU
    /// entry first if the tier is full. An existing entry wins, so racing
    /// inserts converge on one `Arc`.
    fn insert_mem(&self, key: &str, entry: Arc<StoredModel>) -> Arc<StoredModel> {
        let mut tier = self.mem.lock().expect("store lock poisoned");
        tier.clock += 1;
        let tick = tier.clock;
        if let Some(existing) = tier.map.get_mut(key) {
            existing.tick = tick;
            return Arc::clone(&existing.stored);
        }
        if tier.map.len() >= self.capacity {
            let mut victim: Option<(u64, String)> = None;
            #[expect(
                clippy::iter_over_hash_type,
                reason = "min by (tick, key) is a total order, so the victim does not depend on iteration order"
            )]
            for (k, e) in &tier.map {
                let better = match &victim {
                    None => true,
                    Some((tick, key)) => (e.tick, k) < (*tick, key),
                };
                if better {
                    victim = Some((e.tick, k.clone()));
                }
            }
            if let Some((_, victim)) = victim {
                tier.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        tier.map.insert(
            key.to_string(),
            MemEntry {
                stored: Arc::clone(&entry),
                tick,
            },
        );
        entry
    }

    /// Renames a failed-integrity disk entry out of the serving path.
    fn quarantine(&self, path: &Path) {
        let target = path.with_extension("json.quarantine");
        if std::fs::rename(path, &target).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reads and integrity-checks one disk entry. Returns `None` (and
    /// quarantines the file) on any corruption.
    fn read_disk(&self, path: &Path) -> Option<StoredModel> {
        if self.disk_fault() {
            // Injected IO error: behaves as a miss, never as bad data.
            return None;
        }
        let raw = std::fs::read_to_string(path).ok()?;
        let parsed = raw.split_once('\n').and_then(|(sum, json)| {
            if content_key(json) == sum {
                AppProfile::from_json(json)
                    .ok()
                    .map(|model| (model, json.to_string()))
            } else {
                None
            }
        });
        match parsed {
            Some((model, json)) => Some(StoredModel::with_json(model, json)),
            None => {
                self.quarantine(path);
                None
            }
        }
    }

    /// Looks a model up by key: memory first, then the disk tier (a disk
    /// hit is promoted into memory, subject to the same capacity bound).
    pub fn get(&self, key: &str) -> Option<Arc<StoredModel>> {
        {
            let mut tier = self.mem.lock().expect("store lock poisoned");
            tier.clock += 1;
            let tick = tier.clock;
            if let Some(hit) = tier.map.get_mut(key) {
                hit.tick = tick;
                return Some(Arc::clone(&hit.stored));
            }
        }
        let path = self.disk_path(key)?;
        if !path.exists() {
            return None;
        }
        let entry = Arc::new(self.read_disk(&path)?);
        Some(self.insert_mem(key, entry))
    }

    /// [`ModelStore::insert_stored`] of a model, rendered once.
    pub fn insert(&self, key: &str, model: AppProfile) -> Arc<StoredModel> {
        self.insert_stored(key, StoredModel::new(model))
    }

    /// Inserts an entry under `key`, writing through to disk when
    /// configured. Returns the stored entry (an existing entry wins, so
    /// concurrent racing inserts converge on one `Arc`).
    pub fn insert_stored(&self, key: &str, entry: StoredModel) -> Arc<StoredModel> {
        let stored = self.insert_mem(key, Arc::new(entry));
        if let Some(path) = self.disk_path(key) {
            if !path.exists() && !self.disk_fault() {
                // Atomic publish: write a temp file, then rename. An
                // injected short write publishes a torn payload on
                // purpose — the checksum catches it at read time.
                let payload = format!("{}\n{}", stored.stats.content_key, stored.json);
                let bytes = if self.short_write() {
                    &payload.as_bytes()[..payload.len() / 2]
                } else {
                    payload.as_bytes()
                };
                let tmp = path.with_extension("json.tmp");
                if std::fs::write(&tmp, bytes).is_ok() {
                    let _ = std::fs::rename(&tmp, &path);
                }
            }
        }
        stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;
    use gmap_core::profiler::ProfilerConfig;
    use gmap_gpu::app::Application;
    use gmap_gpu::workloads::{self, Scale};

    fn model(name: &str) -> AppProfile {
        let kernel = workloads::by_name(name, Scale::Tiny).expect("known workload");
        gmap_core::profile_application(&Application::single(kernel), &ProfilerConfig::default())
            .expect("builtins issue accesses")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gmap-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_tier_round_trips() {
        let store = ModelStore::new(None).expect("no disk tier to create");
        assert!(store.is_empty());
        assert!(store.get("00ff").is_none());
        let m = model("kmeans");
        let stored = store.insert("00ff", m.clone());
        assert_eq!(stored.model, m);
        assert_eq!(store.len(), 1);
        let hit = store.get("00ff").expect("present after insert");
        assert!(Arc::ptr_eq(
            &hit,
            &store.get("00ff").expect("still present")
        ));
        assert_eq!(hit.json, m.to_json());
    }

    #[test]
    fn disk_tier_survives_a_fresh_store() {
        let dir = temp_dir("persist");
        let m = model("bfs");
        {
            let store = ModelStore::new(Some(dir.clone())).expect("create dir");
            store.insert("abc123", m.clone());
        }
        let fresh = ModelStore::new(Some(dir.clone())).expect("reopen dir");
        assert!(fresh.is_empty(), "memory tier starts cold");
        let hit = fresh.get("abc123").expect("disk tier hit");
        assert_eq!(hit.model, m);
        assert_eq!(fresh.len(), 1, "disk hit promoted to memory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_keys_never_touch_the_filesystem() {
        let dir = temp_dir("hostile");
        let store = ModelStore::new(Some(dir.clone())).expect("create dir");
        assert!(store.get("../../etc/passwd").is_none());
        store.insert("../escape", model("kmeans"));
        assert!(!dir.join("../escape.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_is_bounded_and_deterministic() {
        let store = ModelStore::with_config(None, 2, None).expect("memory only");
        let m = model("kmeans");
        store.insert("aa", m.clone());
        store.insert("bb", m.clone());
        assert_eq!(store.len(), 2);
        // Touch "aa" so "bb" becomes the LRU victim.
        store.get("aa").expect("present");
        store.insert("cc", m.clone());
        assert_eq!(store.len(), 2, "capacity never exceeded");
        assert_eq!(store.evictions(), 1);
        assert!(store.get("bb").is_none(), "LRU entry evicted");
        assert!(store.get("aa").is_some());
        assert!(store.get("cc").is_some());
    }

    #[test]
    fn corrupt_disk_entries_are_quarantined_not_served() {
        let dir = temp_dir("corrupt");
        let store = ModelStore::new(Some(dir.clone())).expect("create dir");
        let m = model("bfs");
        store.insert("deadbeef", m.clone());

        // Flip a payload byte on disk; the checksum line no longer matches.
        let path = dir.join("deadbeef.json");
        let mut raw = std::fs::read_to_string(&path).expect("entry on disk");
        let flip = raw.len() - 2;
        raw.replace_range(flip..=flip, "~");
        std::fs::write(&path, raw).expect("rewrite");

        let fresh = ModelStore::new(Some(dir.clone())).expect("reopen dir");
        assert!(fresh.get("deadbeef").is_none(), "corrupt entry not served");
        assert_eq!(fresh.quarantined(), 1);
        assert!(!path.exists(), "entry moved out of the serving path");
        assert!(dir.join("deadbeef.json.quarantine").exists());

        // A re-insert repopulates the slot cleanly.
        fresh.insert("deadbeef", m.clone());
        let reopened = ModelStore::new(Some(dir.clone())).expect("reopen again");
        assert_eq!(reopened.get("deadbeef").expect("clean entry").model, m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tmp_files_are_removed_at_startup() {
        let dir = temp_dir("torn");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("abcd.json.tmp"), "{\"half\":").expect("plant torn write");
        let store = ModelStore::new(Some(dir.clone())).expect("open with recovery");
        assert_eq!(store.recovered_tmp(), 1);
        assert!(!dir.join("abcd.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_short_writes_never_serve_bad_data() {
        let dir = temp_dir("shortwrite");
        let faults = Arc::new(FaultInjector::new(
            FaultSpec::quiet(11).with(FaultKind::ShortWrite, 1.0),
        ));
        faults.set_armed(true);
        let store = ModelStore::with_config(
            Some(dir.clone()),
            DEFAULT_MEM_CAPACITY,
            Some(faults.clone()),
        )
        .expect("create dir");
        let m = model("kmeans");
        store.insert("f00d", m.clone());
        assert!(faults.injected(FaultKind::ShortWrite) >= 1);

        // The torn entry is on disk; a fresh store must refuse to serve it.
        let fresh = ModelStore::new(Some(dir.clone())).expect("reopen dir");
        assert!(fresh.get("f00d").is_none(), "torn entry not served");
        assert_eq!(fresh.quarantined(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
