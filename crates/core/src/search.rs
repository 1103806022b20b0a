//! Shared search bookkeeping: instrumentation counters, the anytime
//! [`Deadline`] token, and the per-search option bundles.

use crate::metrics::MetricsRegistry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmlshred_rel::optimizer::PhysicalConfig;
use xmlshred_shred::mapping::Mapping;

/// An anytime budget: an optional wall-clock deadline plus an optional
/// cooperative cancellation flag. Searches and [`crate::parallel::parallel_map`]
/// poll it between units of work; once it reports expired, they stop
/// starting new work and return the best design found so far with the
/// `degraded` marker set.
///
/// The default value is unbounded and never expires.
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    at: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Deadline {
    /// An unbounded deadline (never expires).
    pub fn none() -> Self {
        Deadline::default()
    }

    /// Expire `ms` milliseconds from now.
    pub fn from_millis(ms: u64) -> Self {
        Deadline {
            at: Some(Instant::now() + Duration::from_millis(ms)),
            cancel: None,
        }
    }

    /// Expire at a specific instant.
    pub fn at(instant: Instant) -> Self {
        Deadline {
            at: Some(instant),
            cancel: None,
        }
    }

    /// Attach a cancellation flag, builder-style. Setting the flag to `true`
    /// (from any thread) expires the deadline immediately.
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Whether this deadline can never expire. Callers use this to skip the
    /// (cheap, but nonzero) clock read on the common unbounded path.
    pub fn is_unbounded(&self) -> bool {
        self.at.is_none() && self.cancel.is_none()
    }

    /// Has the deadline passed or the cancellation flag been raised?
    pub fn expired(&self) -> bool {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        match self.at {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }
}

/// Instrumentation counters for one advisor run (Figs. 5 and 6 report
/// these).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Logical transformations enumerated and costed.
    pub transformations_searched: u64,
    /// Invocations of the physical design tool (full or partial workload).
    pub physical_tool_calls: u64,
    /// What-if optimizer calls issued by those invocations.
    pub optimizer_calls: u64,
    /// Queries whose cost was reused through cost derivation.
    pub costs_derived: u64,
    /// What-if plan-cache lookups answered from the memo table.
    pub cache_hits: u64,
    /// What-if plan-cache lookups that invoked the planner.
    pub cache_misses: u64,
    /// What-if plan-cache entries discarded by capacity eviction.
    pub cache_evictions: u64,
    /// Whether a deadline or cancellation cut the search short.
    pub deadline_hit: bool,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
}

impl SearchStats {
    /// Merge counters from a tuning invocation.
    pub fn absorb_tune(&mut self, optimizer_calls: u64) {
        self.physical_tool_calls += 1;
        self.optimizer_calls += optimizer_calls;
    }

    /// Merge counters from another stats record (parallel-worker deltas).
    /// `elapsed` is wall-clock, not CPU time, so it does not accumulate.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.transformations_searched += other.transformations_searched;
        self.physical_tool_calls += other.physical_tool_calls;
        self.optimizer_calls += other.optimizer_calls;
        self.costs_derived += other.costs_derived;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.deadline_hit |= other.deadline_hit;
    }

    /// Record the final plan-cache counters for one search run.
    pub fn absorb_cache(&mut self, cache: &crate::oracle::CacheStats) {
        self.cache_hits = cache.hits;
        self.cache_misses = cache.misses;
        self.cache_evictions = cache.evictions;
    }

    /// Register the search-tier counters into a [`MetricsRegistry`] under
    /// `prefix` (e.g. `search.greedy`). Counters that are a pure function
    /// of `(seed, knobs)` go to the deterministic section; `optimizer_calls`
    /// is counted from plan-cache `fresh` flags, which depend on thread
    /// interleaving, so it lands in the schedule section. The cache
    /// counters are the oracle tier and are registered separately
    /// via [`crate::oracle::CacheStats::register_into`]. `elapsed` is
    /// wall-clock and is covered by span timers instead.
    pub fn register_into(&self, metrics: &MetricsRegistry, prefix: &str) {
        metrics.count(
            &format!("{prefix}.transformations_searched"),
            self.transformations_searched,
        );
        metrics.count(
            &format!("{prefix}.physical_tool_calls"),
            self.physical_tool_calls,
        );
        metrics.count(&format!("{prefix}.costs_derived"), self.costs_derived);
        metrics.count(
            &format!("{prefix}.deadline_hit"),
            u64::from(self.deadline_hit),
        );
        metrics.count_sched(&format!("{prefix}.optimizer_calls"), self.optimizer_calls);
    }

    /// Plan-cache hit fraction over all lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Parallelism, caching and anytime knobs shared by the baseline searches
/// (Naive-Greedy and Two-Step); Greedy carries the same knobs on
/// [`crate::greedy::GreedyOptions`]. Without a deadline, output is
/// bit-identical for any `threads`/`plan_cache` setting — threads only fan
/// out independent evaluations (reduced in a fixed order) and the plan
/// cache memoizes a pure function.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Worker threads for candidate evaluation; `0` = available
    /// parallelism.
    pub threads: usize,
    /// Memoize what-if planner calls across the search.
    pub plan_cache: bool,
    /// Anytime budget; the search returns its best-so-far design when it
    /// expires.
    pub deadline: Deadline,
    /// Observability sink; searches record tier counters, histograms, and
    /// spans into it when present. `None` (the default) records nothing.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            threads: 0,
            plan_cache: true,
            deadline: Deadline::none(),
            metrics: None,
        }
    }
}

/// The advisor's recommendation.
#[derive(Debug, Clone)]
pub struct AdvisorOutcome {
    /// Chosen logical mapping.
    pub mapping: Mapping,
    /// Chosen physical configuration.
    pub config: PhysicalConfig,
    /// Optimizer-estimated workload cost under the recommendation.
    pub estimated_cost: f64,
    /// Search instrumentation.
    pub stats: SearchStats,
    /// True when a deadline or cancellation cut the search short; the
    /// mapping and config are the best design found before expiry.
    pub degraded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_tune_counts() {
        let mut stats = SearchStats::default();
        stats.absorb_tune(10);
        stats.absorb_tune(5);
        assert_eq!(stats.physical_tool_calls, 2);
        assert_eq!(stats.optimizer_calls, 15);
    }

    #[test]
    fn unbounded_deadline_never_expires() {
        let deadline = Deadline::none();
        assert!(deadline.is_unbounded());
        assert!(!deadline.expired());
    }

    #[test]
    fn elapsed_deadline_expires() {
        let deadline = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(!deadline.is_unbounded());
        assert!(deadline.expired());
        let future = Deadline::from_millis(60_000);
        assert!(!future.expired());
    }

    #[test]
    fn cancellation_flag_expires() {
        let flag = Arc::new(AtomicBool::new(false));
        let deadline = Deadline::none().with_cancel(Arc::clone(&flag));
        assert!(!deadline.expired());
        flag.store(true, Ordering::Relaxed);
        assert!(deadline.expired());
    }

    #[test]
    fn absorb_carries_degradation_counters() {
        let mut stats = SearchStats::default();
        let other = SearchStats {
            deadline_hit: true,
            ..SearchStats::default()
        };
        stats.absorb(&other);
        stats.absorb(&SearchStats::default());
        assert!(stats.deadline_hit);
    }

    #[test]
    fn register_into_separates_determinism_classes() {
        let stats = SearchStats {
            transformations_searched: 7,
            optimizer_calls: 11,
            cache_hits: 5,
            ..SearchStats::default()
        };
        let metrics = MetricsRegistry::new();
        stats.register_into(&metrics, "search.greedy");
        let snap = metrics.snapshot();
        assert_eq!(
            snap.deterministic
                .get("search.greedy.transformations_searched"),
            Some(&7)
        );
        assert_eq!(
            snap.schedule.get("search.greedy.optimizer_calls"),
            Some(&11)
        );
        // Cache counters belong to the oracle tier, not the search tier.
        assert!(!snap.schedule.contains_key("search.greedy.cache_hits"));
    }
}
