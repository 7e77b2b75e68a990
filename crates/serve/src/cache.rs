//! Sharded, content-addressed artifact cache with an on-disk spill.
//!
//! Keys are the 64-bit [`crate::job_hash`] of `(kind, source)`. The
//! key hash picks the shard, so concurrent jobs on different programs
//! contend on different locks. Each shard holds an LRU-bounded map;
//! inserts write through to the spill directory (when configured) so
//! artifacts survive eviction *and* process restarts — a memory miss
//! re-reads the spill before declaring a full miss.
//!
//! An entry is an [`Artifact`]: the tree and its compact rendering,
//! rendered once when the entry is made (insert or spill load) and
//! shared behind an `Arc`. A hit bumps the refcount under the shard
//! lock and nothing else; no tree is cloned or walked per request. An
//! insert takes the computed tree over, and its spill file is that
//! compact rendering plus a newline: the bytes a response carries. A
//! spill file in any other layout — an older pretty one — still loads,
//! and is rendered compact like any other.

use crate::JobKind;
use patty_json::Json;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache geometry. `capacity` is the total in-memory entry bound,
/// split evenly across shards (each shard keeps at least one entry).
#[derive(Clone, Debug)]
pub struct CacheConfig {
    pub shards: usize,
    pub capacity: usize,
    pub spill_dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            shards: 8,
            capacity: 1024,
            spill_dir: None,
        }
    }
}

/// Where a hit was served from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheSource {
    Memory,
    Disk,
}

impl CacheSource {
    pub fn as_str(self) -> &'static str {
        match self {
            CacheSource::Memory => "memory",
            CacheSource::Disk => "disk",
        }
    }
}

/// A cached result: the tree, for callers that read fields, and the
/// bytes `value.to_string()` yields, for the wire. Immutable, so the two
/// cannot drift apart.
#[derive(Debug, PartialEq)]
pub struct Artifact {
    value: Json,
    compact: String,
}

impl Artifact {
    fn new(value: Json) -> Artifact {
        let mut compact = String::new();
        value.render_into(&mut compact);
        Artifact { value, compact }
    }

    /// The compact rendering, made once.
    pub fn compact(&self) -> &str {
        &self.compact
    }
}

impl Deref for Artifact {
    type Target = Json;

    fn deref(&self) -> &Json {
        &self.value
    }
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.compact)
    }
}

struct Entry {
    artifact: Arc<Artifact>,
    /// Monotonic use stamp; the shard evicts the minimum.
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
}

/// Coherent counter snapshot, indexed by [`JobKind::index`] where
/// per-kind.
#[derive(Clone, Debug, Default)]
pub struct CacheStats {
    pub hits: [u64; 4],
    pub misses: [u64; 4],
    pub disk_hits: [u64; 4],
    pub evictions: u64,
    pub inserts: u64,
    pub spill_errors: u64,
    pub entries: usize,
}

pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    clock: AtomicU64,
    spill: Option<PathBuf>,
    hits: [AtomicU64; 4],
    misses: [AtomicU64; 4],
    disk_hits: [AtomicU64; 4],
    evictions: AtomicU64,
    inserts: AtomicU64,
    spill_errors: AtomicU64,
}

impl ShardedCache {
    pub fn new(cfg: CacheConfig) -> ShardedCache {
        let shards = cfg.shards.max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_cap: (cfg.capacity / shards).max(1),
            clock: AtomicU64::new(0),
            spill: cfg.spill_dir,
            hits: Default::default(),
            misses: Default::default(),
            disk_hits: Default::default(),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            spill_errors: AtomicU64::new(0),
        }
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash as usize) % self.shards.len()]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Look the artifact up, memory first, then the on-disk spill
    /// (repopulating memory on a disk hit). The shard lock covers the
    /// map probe, the stamp and one refcount bump.
    pub fn get(&self, kind: JobKind, hash: u64) -> Option<(Arc<Artifact>, CacheSource)> {
        let stamp = self.tick();
        let hit = {
            let mut shard = self.shard(hash).lock().unwrap();
            shard.map.get_mut(&hash).map(|entry| {
                entry.stamp = stamp;
                Arc::clone(&entry.artifact)
            })
        };
        if let Some(artifact) = hit {
            self.hits[kind.index()].fetch_add(1, Ordering::Relaxed);
            return Some((artifact, CacheSource::Memory));
        }
        if let Some(value) = self.read_spill(kind, hash) {
            self.disk_hits[kind.index()].fetch_add(1, Ordering::Relaxed);
            let artifact = Arc::new(Artifact::new(value));
            self.admit(hash, Arc::clone(&artifact));
            return Some((artifact, CacheSource::Disk));
        }
        self.misses[kind.index()].fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert a freshly computed artifact, taking the tree over (a
    /// borrowed one is cloned): render it once, write that through to
    /// the spill (if configured), then admit it to memory, evicting LRU
    /// entries past the shard bound. Returns the entry as cached.
    pub fn insert(&self, kind: JobKind, hash: u64, value: impl Into<Json>) -> Arc<Artifact> {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let artifact = Arc::new(Artifact::new(value.into()));
        self.write_spill(kind, hash, artifact.compact());
        self.admit(hash, Arc::clone(&artifact));
        artifact
    }

    fn admit(&self, hash: u64, artifact: Arc<Artifact>) {
        let stamp = self.tick();
        let mut shard = self.shard(hash).lock().unwrap();
        shard.map.insert(hash, Entry { artifact, stamp });
        while shard.map.len() > self.per_shard_cap {
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    shard.map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    fn spill_path(&self, kind: JobKind, hash: u64) -> Option<PathBuf> {
        self.spill
            .as_ref()
            .map(|dir| dir.join(format!("{}-{hash:016x}.json", kind.as_str())))
    }

    fn read_spill(&self, kind: JobKind, hash: u64) -> Option<Json> {
        let path = self.spill_path(kind, hash)?;
        let text = std::fs::read_to_string(path).ok()?;
        patty_json::parse(&text).ok()
    }

    fn write_spill(&self, kind: JobKind, hash: u64, compact: &str) {
        let Some(path) = self.spill_path(kind, hash) else {
            return;
        };
        let write = || -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            // Write-then-rename so a concurrent reader never parses a
            // half-written artifact.
            let tmp = path.with_extension("json.tmp");
            std::fs::write(&tmp, [compact, "\n"].concat())?;
            std::fs::rename(&tmp, &path)
        };
        if write().is_err() {
            self.spill_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total in-memory entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        let load = |a: &[AtomicU64; 4]| {
            let mut out = [0u64; 4];
            for (o, v) in out.iter_mut().zip(a.iter()) {
                *o = v.load(Ordering::Relaxed);
            }
            out
        };
        CacheStats {
            hits: load(&self.hits),
            misses: load(&self.misses),
            disk_hits: load(&self.disk_hits),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            spill_errors: self.spill_errors.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job_hash;

    fn artifact(n: i64) -> Json {
        Json::obj().with("n", Json::Int(n))
    }

    #[test]
    fn hit_after_insert_and_miss_before() {
        let cache = ShardedCache::new(CacheConfig::default());
        let h = job_hash(JobKind::Analyze, "p");
        assert!(cache.get(JobKind::Analyze, h).is_none());
        cache.insert(JobKind::Analyze, h, artifact(1));
        let (v, src) = cache.get(JobKind::Analyze, h).unwrap();
        assert_eq!(**v, artifact(1));
        assert_eq!(src, CacheSource::Memory);
        let s = cache.stats();
        assert_eq!(s.hits[JobKind::Analyze.index()], 1);
        assert_eq!(s.misses[JobKind::Analyze.index()], 1);
    }

    #[test]
    fn a_hit_hands_out_the_entry_itself_not_a_copy() {
        let cache = ShardedCache::new(CacheConfig::default());
        let h = job_hash(JobKind::Tune, "p");
        let inserted = cache.insert(JobKind::Tune, h, artifact(7));
        let (a, _) = cache.get(JobKind::Tune, h).unwrap();
        let (b, _) = cache.get(JobKind::Tune, h).unwrap();
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a, &inserted));
        assert_eq!(a.compact(), artifact(7).to_string());
        assert_eq!(a.to_string(), a.compact());
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        // One shard of capacity 2 makes the LRU order observable.
        let cache = ShardedCache::new(CacheConfig {
            shards: 1,
            capacity: 2,
            spill_dir: None,
        });
        cache.insert(JobKind::Tune, 1, artifact(1));
        cache.insert(JobKind::Tune, 2, artifact(2));
        // Touch 1 so 2 is the LRU victim when 3 arrives.
        assert!(cache.get(JobKind::Tune, 1).is_some());
        cache.insert(JobKind::Tune, 3, artifact(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(JobKind::Tune, 1).is_some());
        assert!(cache.get(JobKind::Tune, 2).is_none());
        assert!(cache.get(JobKind::Tune, 3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn spill_survives_eviction_and_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!(
            "patty-serve-spill-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CacheConfig {
            shards: 1,
            capacity: 1,
            spill_dir: Some(dir.clone()),
        };
        let cache = ShardedCache::new(cfg.clone());
        let h1 = job_hash(JobKind::Trace, "a");
        let h2 = job_hash(JobKind::Trace, "b");
        cache.insert(JobKind::Trace, h1, artifact(1));
        cache.insert(JobKind::Trace, h2, artifact(2)); // evicts h1 from memory
        let (v, src) = cache.get(JobKind::Trace, h1).unwrap();
        assert_eq!(**v, artifact(1));
        assert_eq!(src, CacheSource::Disk);
        // Loaded and rendered once: the next hit is that same entry.
        assert_eq!(v.compact(), artifact(1).to_string());
        let (again, src) = cache.get(JobKind::Trace, h1).unwrap();
        assert_eq!(src, CacheSource::Memory);
        assert!(Arc::ptr_eq(&v, &again));

        // A brand-new cache over the same spill dir serves both.
        let fresh = ShardedCache::new(cfg);
        assert_eq!(
            fresh.get(JobKind::Trace, h2).unwrap().1,
            CacheSource::Disk
        );
        assert_eq!(fresh.stats().spill_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
