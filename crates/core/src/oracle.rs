//! The what-if cost oracle: a concurrent memo table over the planner.
//!
//! The advisor's running time is dominated by what-if optimizer calls, and
//! the search re-plans the same `(catalog, stats, config, query)` contexts
//! constantly: Greedy's exact re-evaluation of a round's winner replays the
//! estimate-phase tuning work, rounds that reject an optimistic estimate
//! re-cost every remaining move against an unchanged incumbent, and the
//! tuning tool's lazy refresh loop re-plans candidates under configurations
//! it has already seen. The planner is a pure function of its inputs, so
//! every one of those calls can be memoized.
//!
//! [`CostOracle`] wraps [`plan_select`] / [`plan_query`] behind a sharded
//! concurrent memo table keyed by `(context fingerprint, configuration
//! fingerprint, query fingerprint)` (see `xmlshred_rel::optimizer`'s
//! fingerprint functions). Because memoization of a pure function returns
//! bit-identical results, advisor output is unchanged by the cache — a
//! debug-build differential check re-plans on every hit and asserts
//! equality, which the test suite exercises continuously.

use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xmlshred_rel::catalog::Catalog;
use xmlshred_rel::optimizer::{plan_query, plan_select, PhysicalConfig};
use xmlshred_rel::sql::{SelectQuery, SqlQuery};
use xmlshred_rel::stats::TableStats;

/// Memo key: `(context fp, config fp, query fp)`.
pub type CacheKey = (u64, u64, u64);

/// Cached outcome of planning one select block: `(cost, rows)`.
type SelectEntry = (f64, f64);

/// Cached outcome of planning one whole query: `(cost, used objects)`.
type QueryEntry = (f64, Vec<String>);

/// Shard count: bounds lock contention under parallel fan-out while keeping
/// the structure trivially small for serial runs.
const SHARDS: usize = 16;

/// Per-shard entry bound; a full shard is cleared wholesale (counted as
/// evictions), which bounds memory without LRU bookkeeping.
const SHARD_CAPACITY: usize = 1 << 16;

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total memo-table lookups (enabled oracle only). The accounting
    /// invariant `hits + misses == lookups` is enforced by
    /// [`crate::metrics::MetricsReport::self_check`]; this counter is
    /// incremented independently of the hit/miss classification precisely
    /// so a dropped branch shows up as a mismatch.
    pub lookups: u64,
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that had to invoke the planner.
    pub misses: u64,
    /// Entries discarded by capacity eviction.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Register the oracle-tier counters into a [`MetricsRegistry`] under
    /// `prefix` (e.g. `oracle`). All of these are schedule-dependent: two
    /// workers racing on the same uncached key both count a miss at
    /// `threads = 4` where a serial run counts one miss and one hit.
    pub fn register_into(&self, metrics: &crate::metrics::MetricsRegistry, prefix: &str) {
        metrics.count_sched(&format!("{prefix}.cache.lookups"), self.lookups);
        metrics.count_sched(&format!("{prefix}.cache.hits"), self.hits);
        metrics.count_sched(&format!("{prefix}.cache.misses"), self.misses);
        metrics.count_sched(&format!("{prefix}.cache.evictions"), self.evictions);
        metrics.count_sched(&format!("{prefix}.cache.entries"), self.entries);
    }
}

/// A concurrent, memoizing wrapper around the what-if planner.
///
/// One oracle is shared across an entire advisor search (all tuning calls,
/// all threads). A disabled oracle degenerates to calling the planner
/// directly with zero bookkeeping.
pub struct CostOracle {
    enabled: bool,
    select_shards: Vec<Mutex<FxHashMap<CacheKey, SelectEntry>>>,
    query_shards: Vec<Mutex<FxHashMap<CacheKey, QueryEntry>>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CostOracle {
    /// An oracle with the memo table on or off.
    pub fn new(enabled: bool) -> Self {
        let shard_count = if enabled { SHARDS } else { 0 };
        CostOracle {
            enabled,
            select_shards: (0..shard_count)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            query_shards: (0..shard_count)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// An oracle that always calls the planner (no memoization).
    pub fn disabled() -> Self {
        CostOracle::new(false)
    }

    /// Whether the memo table is active: callers compute real cache keys
    /// only then.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Cost and cardinality of one select block under `config`; `fresh` in
    /// the return marks whether the planner actually ran (callers count
    /// what-if optimizer calls from it). Planning failures cost infinity.
    pub fn select_cost(
        &self,
        key: CacheKey,
        catalog: &Catalog,
        stats: &[TableStats],
        config: &PhysicalConfig,
        branch: &SelectQuery,
    ) -> (f64, f64, bool) {
        if !self.enabled {
            let (cost, rows) = plan_select_raw(catalog, stats, config, branch);
            return (cost, rows, true);
        }
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let shard = &self.select_shards[shard_of(key)];
        if let Some(&(cost, rows)) = lock_shard(shard).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            #[cfg(debug_assertions)]
            {
                let fresh = plan_select_raw(catalog, stats, config, branch);
                debug_assert!(
                    fresh == (cost, rows) || (fresh.0.is_infinite() && cost.is_infinite()),
                    "plan cache divergence on select {key:?}: cached {:?}, fresh {:?}",
                    (cost, rows),
                    fresh
                );
            }
            return (cost, rows, false);
        }
        // Plan outside the lock; concurrent duplicate work for the same key
        // is benign (both racers compute the same value).
        let (cost, rows) = plan_select_raw(catalog, stats, config, branch);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = lock_shard(shard);
        if guard.len() >= SHARD_CAPACITY {
            self.evictions
                .fetch_add(guard.len() as u64, Ordering::Relaxed);
            guard.clear();
        }
        guard.insert(key, (cost, rows));
        (cost, rows, true)
    }

    /// Cost and used-object set of one whole query under `config`; `fresh`
    /// marks a real planner invocation. Planning failures cost infinity
    /// with no used objects.
    pub fn query_cost(
        &self,
        key: CacheKey,
        catalog: &Catalog,
        stats: &[TableStats],
        config: &PhysicalConfig,
        query: &SqlQuery,
    ) -> (f64, Vec<String>, bool) {
        if !self.enabled {
            let (cost, used) = plan_query_raw(catalog, stats, config, query);
            return (cost, used, true);
        }
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let shard = &self.query_shards[shard_of(key)];
        if let Some((cost, used)) = lock_shard(shard).get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            #[cfg(debug_assertions)]
            {
                let fresh = plan_query_raw(catalog, stats, config, query);
                debug_assert!(
                    (fresh.0 == cost || (fresh.0.is_infinite() && cost.is_infinite()))
                        && fresh.1 == used,
                    "plan cache divergence on query {key:?}: cached {:?}, fresh {:?}",
                    (cost, &used),
                    fresh
                );
            }
            return (cost, used, false);
        }
        let (cost, used) = plan_query_raw(catalog, stats, config, query);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = lock_shard(shard);
        if guard.len() >= SHARD_CAPACITY {
            self.evictions
                .fetch_add(guard.len() as u64, Ordering::Relaxed);
            guard.clear();
        }
        guard.insert(key, (cost, used.clone()));
        (cost, used, true)
    }

    /// Current counters.
    pub fn snapshot(&self) -> CacheStats {
        let select_entries: u64 = self
            .select_shards
            .iter()
            .map(|s| lock_shard(s).len() as u64)
            .sum();
        let query_entries: u64 = self
            .query_shards
            .iter()
            .map(|s| lock_shard(s).len() as u64)
            .sum();
        let entries = select_entries + query_entries;
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
        }
    }
}

/// Lock a memo shard, tolerating poison: a panic elsewhere never corrupts
/// the memo value (pure-function results), so continuing is sound and keeps
/// one panicking worker from wedging the whole search.
fn lock_shard<V>(
    shard: &Mutex<FxHashMap<CacheKey, V>>,
) -> std::sync::MutexGuard<'_, FxHashMap<CacheKey, V>> {
    shard
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn shard_of(key: CacheKey) -> usize {
    // The three components are already hashes; fold them for shard choice.
    ((key.0 ^ key.1.rotate_left(17) ^ key.2.rotate_left(41)) % SHARDS as u64) as usize
}

fn plan_select_raw(
    catalog: &Catalog,
    stats: &[TableStats],
    config: &PhysicalConfig,
    branch: &SelectQuery,
) -> (f64, f64) {
    match plan_select(catalog, stats, config, branch) {
        Ok(plan) => (plan.est_cost(), plan.est_rows()),
        Err(_) => (f64::INFINITY, 0.0),
    }
}

fn plan_query_raw(
    catalog: &Catalog,
    stats: &[TableStats],
    config: &PhysicalConfig,
    query: &SqlQuery,
) -> (f64, Vec<String>) {
    match plan_query(catalog, stats, config, query) {
        Ok(plan) => (plan.est_cost, plan.used_objects()),
        Err(_) => (f64::INFINITY, Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_oracle_never_counts() {
        let oracle = CostOracle::disabled();
        assert!(!oracle.is_enabled());
        let snap = oracle.snapshot();
        assert_eq!(snap, CacheStats::default());
        assert_eq!(snap.hit_rate(), 0.0);
    }

    #[test]
    fn shard_of_stays_in_range() {
        for n in 0..1000u64 {
            assert!(shard_of((n, n.wrapping_mul(31), !n)) < SHARDS);
        }
    }

    #[test]
    fn register_into_lands_in_schedule_section() {
        let stats = CacheStats {
            lookups: 9,
            hits: 4,
            misses: 5,
            ..CacheStats::default()
        };
        let metrics = crate::metrics::MetricsRegistry::new();
        stats.register_into(&metrics, "oracle");
        let snap = metrics.snapshot();
        assert_eq!(snap.schedule.get("oracle.cache.lookups"), Some(&9));
        assert!(snap.deterministic.is_empty());
        assert!(snap.self_check().is_empty(), "{:?}", snap.self_check());
    }

    #[test]
    fn register_into_exposes_lookup_mismatch_to_self_check() {
        // The invariant the lookups counter exists for: if hit/miss
        // classification ever drops a branch, the report flags it.
        let broken = CacheStats {
            lookups: 10,
            hits: 4,
            misses: 5,
            ..CacheStats::default()
        };
        let metrics = crate::metrics::MetricsRegistry::new();
        broken.register_into(&metrics, "oracle");
        let violations = metrics.snapshot().self_check();
        assert_eq!(violations.len(), 1, "{violations:?}");
    }
}
