//! Content-hash caches: repeated or overlapping sub-grids are free.
//!
//! Both caches are one sharded [`MemoTable`]. The result cache's keys
//! are [`crate::Scenario::fingerprint`] values — stable FNV-1a content
//! hashes — so it survives process restarts via a JSON file (the CLI's
//! `--cache-file`); the patch cache lives for the engine's lifetime.

use crate::report::ScenarioOutcome;
use crate::scenario::fnv1a64;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Lock shards per cache — a power of two so the FNV-mixed shard pick
/// reduces to a mask. Sixteen shards keep the work-stealing pool and the
/// serve job queue from serializing on one mutex without bloating the
/// per-engine footprint.
pub const CACHE_SHARDS: usize = 16;

/// FNV-1a-mixed shard index. Keys are already content hashes, but their
/// low bits can correlate across a scenario grid (shared model/batch
/// prefixes), so the key's bytes run through one more FNV round before
/// masking.
fn shard_of(key: u64) -> usize {
    (fnv1a64(&key.to_le_bytes()) & (CACHE_SHARDS as u64 - 1)) as usize
}

/// One lock shard: its slice of the key space plus hit/contention
/// accounting local to the shard.
#[derive(Debug)]
struct Shard<V> {
    entries: Mutex<HashMap<u64, V>>,
    hits: AtomicUsize,
    contended: AtomicUsize,
}

// Not derived: `V` itself needs no `Default` for an empty shard.
impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            contended: AtomicUsize::new(0),
        }
    }
}

impl<V> Shard<V> {
    /// Locks the shard, counting the acquisition as contended when
    /// another thread currently holds it. A shard poisoned by a panic
    /// under its lock may hold a half-done write; it is a memo table, so
    /// it is emptied and used again.
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, V>> {
        let locked = match self.entries.try_lock() {
            Ok(guard) => return guard,
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.entries.lock()
            }
            Err(TryLockError::Poisoned(e)) => Err(e),
        };
        locked.unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            guard.clear();
            self.entries.clear_poison();
            guard
        })
    }
}

/// A thread-safe memo table keyed by content hashes, sharded
/// [`CACHE_SHARDS`] ways so concurrent workers rarely touch the same
/// lock. It owns the shard pick, poison recovery, and the per-shard hit
/// and contention counts; [`SweepCache`] and [`PatchCache`] are its two
/// instantiations.
#[derive(Debug)]
pub struct MemoTable<V> {
    shards: [Shard<V>; CACHE_SHARDS],
}

// Not derived: `V` itself needs no `Default` for an empty table.
impl<V> Default for MemoTable<V> {
    fn default() -> Self {
        MemoTable {
            shards: Default::default(),
        }
    }
}

impl<V: Clone> MemoTable<V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks a key up, counting a hit on its shard.
    pub fn get(&self, key: u64) -> Option<V> {
        let shard = &self.shards[shard_of(key)];
        let got = shard.lock().get(&key).cloned();
        if got.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Stores a value, replacing any previous one under `key`.
    pub fn insert(&self, key: u64, value: V) {
        self.shards[shard_of(key)].lock().insert(key, value);
    }

    /// Hits since construction (or the last [`MemoTable::clear`]),
    /// summed over shards.
    pub fn hits(&self) -> usize {
        self.per_shard(|s| &s.hits).sum()
    }

    /// Per-shard hit counts, indexed by shard.
    pub fn shard_hits(&self) -> Vec<usize> {
        self.per_shard(|s| &s.hits).collect()
    }

    /// Per-shard contended lock acquisitions, indexed by shard.
    pub fn shard_contention(&self) -> Vec<usize> {
        self.per_shard(|s| &s.contended).collect()
    }

    /// Contended lock acquisitions summed over shards.
    pub fn contended(&self) -> usize {
        self.per_shard(|s| &s.contended).sum()
    }

    /// One counter of every shard, in shard order.
    fn per_shard(
        &self,
        counter: fn(&Shard<V>) -> &AtomicUsize,
    ) -> impl Iterator<Item = usize> + '_ {
        self.shards
            .iter()
            .map(move |s| counter(s).load(Ordering::Relaxed))
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
            shard.hits.store(0, Ordering::Relaxed);
            shard.contended.store(0, Ordering::Relaxed);
        }
    }

    /// Every stored value, in no particular order.
    fn values(&self) -> Vec<V> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().values().cloned());
        }
        out
    }
}

/// Content-hash scenario-result cache keyed by scenario fingerprint. The
/// shard accessors ([`MemoTable::hits`], `len`, ...) come from the table
/// it dereferences to; the cache adds the `cached` flag on hits, a miss
/// count, and JSON persistence.
#[derive(Debug, Default)]
pub struct SweepCache {
    table: MemoTable<ScenarioOutcome>,
    misses: AtomicUsize,
}

impl Deref for SweepCache {
    type Target = MemoTable<ScenarioOutcome>;

    fn deref(&self) -> &Self::Target {
        &self.table
    }
}

impl SweepCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks a fingerprint up, counting the hit or miss. Hits come back
    /// with `cached = true` so reports can show reuse.
    pub fn lookup(&self, fingerprint: u64) -> Option<ScenarioOutcome> {
        let got = self.table.get(fingerprint);
        if got.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        got.map(|outcome| ScenarioOutcome {
            cached: true,
            ..outcome
        })
    }

    /// Stores a freshly computed outcome.
    pub fn insert(&self, fingerprint: u64, outcome: &ScenarioOutcome) {
        let stored = ScenarioOutcome {
            cached: false,
            ..outcome.clone()
        };
        self.table.insert(fingerprint, stored);
    }

    /// Cache misses since construction.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops all entries and counters.
    pub fn clear(&self) {
        self.table.clear();
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Serializes all entries as a JSON array of outcomes (fingerprints
    /// are recomputable, but each outcome carries its `key` hex anyway).
    /// Entries are sorted by key, so sharding never leaks into the file.
    pub fn to_json(&self) -> serde_json::Result<String> {
        let mut entries = self.table.values();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        serde_json::to_string_pretty(&entries)
    }

    /// Loads entries from [`SweepCache::to_json`] output, merging over
    /// existing ones. Cache files written before the incremental-
    /// simulation fields existed still load: their rows came from full
    /// re-simulations, so the missing fields are back-filled as
    /// `sim_path: "full"` with an unknown (zero) re-dispatch count.
    pub fn load_json(&self, json: &str) -> Result<usize, String> {
        let entries: Vec<ScenarioOutcome> = match serde_json::from_str(json) {
            Ok(entries) => entries,
            Err(e) => serde_json::from_str::<Vec<LegacyOutcome>>(json)
                .map_err(|_| format!("invalid cache file: {e}"))?
                .into_iter()
                .map(LegacyOutcome::upgrade)
                .collect(),
        };
        let mut loaded = 0;
        for outcome in entries {
            let fp = u64::from_str_radix(&outcome.key, 16)
                .map_err(|_| format!("invalid cache key '{}'", outcome.key))?;
            self.table.insert(fp, outcome);
            loaded += 1;
        }
        Ok(loaded)
    }
}

/// A cache row from before `ScenarioOutcome` carried `sim_path` /
/// `tasks_redispatched` — kept loadable so an upgrade doesn't brick
/// persisted `--cache-file`s.
#[derive(serde::Deserialize)]
struct LegacyOutcome {
    key: String,
    label: String,
    model: String,
    batch: u64,
    opt: String,
    baseline_ns: u64,
    predicted_ns: u64,
    speedup: f64,
    memory_bytes: u64,
    comm_bytes: u64,
    cached: bool,
}

impl LegacyOutcome {
    fn upgrade(self) -> ScenarioOutcome {
        ScenarioOutcome {
            key: self.key,
            label: self.label,
            model: self.model,
            batch: self.batch,
            opt: self.opt,
            baseline_ns: self.baseline_ns,
            predicted_ns: self.predicted_ns,
            speedup: self.speedup,
            memory_bytes: self.memory_bytes,
            comm_bytes: self.comm_bytes,
            sim_path: "full".into(),
            tasks_redispatched: 0,
            cached: self.cached,
        }
    }
}

/// One cached patch evaluation: the simulated makespan *plus the
/// simulation path that produced it*, so a hit replays the original
/// accounting (and a threshold change between code versions cannot
/// silently masquerade a fallback result as an incremental one — the
/// path travels with the record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchEval {
    /// Simulated post-patch iteration time, ns.
    pub predicted_ns: u64,
    /// `true` if the incremental cone path produced it, `false` for a
    /// full re-simulation.
    pub incremental: bool,
    /// `true` if a low-fidelity rung answered with the analytic busy-time
    /// estimate instead of simulating (never set at exact fidelity — the
    /// patch key carries the fidelity, so rung entries cannot be served
    /// to exact requests).
    pub estimated: bool,
    /// Tasks the simulator re-dispatched to produce it.
    pub tasks_redispatched: u64,
}

/// In-memory per-engine evaluation cache keyed by *patch* fingerprints
/// (plus base identity): two scenarios that emit byte-identical
/// [`daydream_core::GraphPatch`]es over the same `(model, batch)` base
/// graph necessarily predict the same iteration time, so the second one
/// skips apply + simulate entirely.
///
/// This sits *under* [`SweepCache`]: the scenario-fingerprint cache keys
/// the full outcome (label, memory, comm) and persists to `--cache-file`;
/// the patch cache keys only the simulated [`PatchEval`] and lives for
/// the engine's lifetime.
pub type PatchCache = MemoTable<PatchEval>;

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(key: u64, label: &str) -> ScenarioOutcome {
        ScenarioOutcome {
            key: format!("{key:016x}"),
            label: label.into(),
            model: "ResNet-50".into(),
            batch: 8,
            opt: "amp".into(),
            baseline_ns: 100,
            predicted_ns: 80,
            speedup: 1.25,
            memory_bytes: 1 << 30,
            comm_bytes: 0,
            sim_path: "incremental".into(),
            tasks_redispatched: 3,
            cached: false,
        }
    }

    #[test]
    fn hit_miss_accounting_and_cached_flag() {
        let cache = SweepCache::new();
        assert!(cache.lookup(7).is_none());
        cache.insert(7, &outcome(7, "a"));
        let hit = cache.lookup(7).unwrap();
        assert!(hit.cached, "hits are flagged");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn patch_cache_counts_hits_and_keeps_the_sim_path() {
        let cache = PatchCache::new();
        assert!(cache.get(9).is_none());
        assert_eq!(cache.hits(), 0);
        let eval = PatchEval {
            predicted_ns: 1234,
            incremental: true,
            estimated: false,
            tasks_redispatched: 42,
        };
        cache.insert(9, eval);
        assert_eq!(cache.get(9), Some(eval), "path travels with the record");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.get(9)), (0, None));
    }

    /// Panics on another thread while holding `shard`'s lock.
    fn poison<V: Send>(shard: &Shard<V>) {
        std::thread::scope(|s| {
            let joined = s
                .spawn(|| {
                    let _held = shard.entries.lock().unwrap();
                    panic!("poisoning a cache shard");
                })
                .join();
            assert!(joined.is_err());
        });
        assert!(shard.entries.is_poisoned());
    }

    #[test]
    fn a_poisoned_shard_reads_empty_and_keeps_working() {
        let cache = SweepCache::new();
        for k in 0..64u64 {
            cache.insert(k, &outcome(k, "x"));
        }
        let shard = &cache.table.shards[shard_of(7)];
        let in_shard = (0..64u64).filter(|&k| shard_of(k) == shard_of(7)).count();
        poison(shard);
        assert!(cache.lookup(7).is_none(), "the poisoned shard is cleared");
        assert!(!shard.entries.is_poisoned());
        assert_eq!(cache.len(), 64 - in_shard);
        cache.insert(7, &outcome(7, "again"));
        assert_eq!(cache.lookup(7).unwrap().label, "again");
        poison(shard);
        cache.clear();
        assert!(cache.is_empty());

        let patches = PatchCache::new();
        let eval = PatchEval {
            predicted_ns: 1,
            incremental: false,
            estimated: false,
            tasks_redispatched: 2,
        };
        patches.insert(9, eval);
        poison(&patches.shards[shard_of(9)]);
        assert_eq!(patches.get(9), None, "the poisoned shard is cleared");
        patches.insert(9, eval);
        assert_eq!(patches.get(9), Some(eval));
        poison(&patches.shards[shard_of(9)]);
        patches.clear();
        assert!(patches.is_empty());
    }

    #[test]
    fn legacy_cache_rows_without_sim_path_still_load() {
        // A cache file persisted before the incremental-simulation
        // fields existed: rows lack sim_path/tasks_redispatched.
        let legacy = r#"[{
            "key": "0000000000000007",
            "label": "ResNet-50 b8 amp",
            "model": "ResNet-50",
            "batch": 8,
            "opt": "amp",
            "baseline_ns": 100,
            "predicted_ns": 80,
            "speedup": 1.25,
            "memory_bytes": 1073741824,
            "comm_bytes": 0,
            "cached": false
        }]"#;
        let cache = SweepCache::new();
        assert_eq!(cache.load_json(legacy).unwrap(), 1);
        let hit = cache.lookup(7).unwrap();
        assert_eq!(hit.sim_path, "full", "legacy rows were full simulations");
        assert_eq!(hit.tasks_redispatched, 0);
        assert_eq!(hit.predicted_ns, 80);
        // Garbage still fails loudly.
        assert!(cache.load_json("{not json").is_err());
        assert!(cache.load_json("[{\"key\": 3}]").is_err());
    }

    #[test]
    fn sharding_spreads_keys_and_sums_counters() {
        let cache = SweepCache::new();
        for k in 0..64u64 {
            cache.insert(k, &outcome(k, "x"));
        }
        assert_eq!(cache.len(), 64);
        for k in 0..64u64 {
            assert!(cache.lookup(k).is_some());
        }
        assert_eq!(cache.hits(), 64);
        assert_eq!(cache.shard_hits().iter().sum::<usize>(), 64);
        let occupied = cache.shard_hits().iter().filter(|&&h| h > 0).count();
        assert!(
            occupied > CACHE_SHARDS / 2,
            "FNV pick must spread even sequential keys: {occupied} shards hit"
        );
        assert_eq!(cache.shard_contention().len(), CACHE_SHARDS);
        // Serialization stays sorted by key regardless of shard layout.
        let json = cache.to_json().unwrap();
        let other = SweepCache::new();
        assert_eq!(other.load_json(&json).unwrap(), 64);
        assert_eq!(other.to_json().unwrap(), json);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.contended()), (0, 0));
    }

    #[test]
    fn json_round_trip_merges() {
        let cache = SweepCache::new();
        cache.insert(1, &outcome(1, "a"));
        cache.insert(2, &outcome(2, "b"));
        let json = cache.to_json().unwrap();

        let other = SweepCache::new();
        other.insert(3, &outcome(3, "c"));
        assert_eq!(other.load_json(&json).unwrap(), 2);
        assert_eq!(other.len(), 3);
        assert!(other.lookup(1).is_some() && other.lookup(3).is_some());
    }
}
