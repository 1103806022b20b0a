//! Shared search machinery: instrumentation counters, the anytime
//! [`Deadline`] token, the per-search option bundle, and the one move loop
//! the three searches (Greedy, Naive-Greedy, Two-Step) run on.

use crate::context::{EvalContext, PreparedMapping};
use crate::metrics::{MetricsRegistry, SpanGuard};
use crate::oracle::CostOracle;
use crate::parallel::parallel_map;
use crate::physical::{tune_with, PerQueryInfo, TuneOptions, TuneResult};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmlshred_rel::optimizer::PhysicalConfig;
use xmlshred_rel::sql::SqlQuery;
use xmlshred_shred::mapping::Mapping;

/// An anytime budget: an optional wall-clock deadline. Searches and
/// [`crate::parallel::parallel_map`] poll it between units of work; once it
/// reports expired, they stop starting new work and return the best design
/// found so far with the `degraded` marker set.
///
/// The default value is unbounded and never expires.
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// An unbounded deadline (never expires).
    pub fn none() -> Self {
        Deadline::default()
    }

    /// Expire `ms` milliseconds from now.
    pub fn from_millis(ms: u64) -> Self {
        Deadline::at(Instant::now() + Duration::from_millis(ms))
    }

    /// Expire at a specific instant.
    pub fn at(instant: Instant) -> Self {
        Deadline { at: Some(instant) }
    }

    /// Has the deadline passed? An unbounded deadline answers without
    /// reading the clock.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
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
    /// Whether a deadline cut the search short.
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

/// Parallelism, caching and anytime knobs shared by the three searches
/// (Greedy carries them as [`crate::greedy::GreedyOptions::search`]).
/// Without a deadline, output is bit-identical for any `threads`/
/// `plan_cache` setting — threads only fan out independent evaluations
/// (reduced in a fixed order) and the plan cache memoizes a pure function.
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
    /// True when a deadline cut the search short; the mapping and config
    /// are the best design found before expiry.
    pub degraded: bool,
}

/// A relative gain below this is noise, never a reason to move.
const MIN_GAIN: f64 = 1e-6;

/// Whether `new` beats `old` by more than the acceptance threshold.
pub(crate) fn improves(new: f64, old: f64) -> bool {
    new < old * (1.0 - MIN_GAIN)
}

/// A mapping tuned over the whole workload.
pub(crate) struct Tuned {
    pub(crate) mapping: Mapping,
    pub(crate) prepared: PreparedMapping,
    pub(crate) config: PhysicalConfig,
    /// Per workload query (by index): tuning info; `None` when the query is
    /// untranslatable under the mapping.
    pub(crate) per_query: Vec<Option<PerQueryInfo>>,
    pub(crate) total_cost: f64,
}

/// One run of a search: its knobs, the search-wide plan cache every tuning
/// call shares, its start instant and its `search.<name>` span. Greedy,
/// Naive-Greedy and Two-Step differ only in the moves they try and how
/// they price one; the descent's mechanics live here.
pub(crate) struct SearchRun<'a> {
    name: &'static str,
    options: &'a SearchOptions,
    oracle: CostOracle,
    start: Instant,
    _span: Option<SpanGuard<'a>>,
}

impl<'a> SearchRun<'a> {
    pub(crate) fn new(name: &'static str, options: &'a SearchOptions) -> Self {
        SearchRun {
            name,
            options,
            oracle: CostOracle::new(options.plan_cache),
            start: Instant::now(),
            _span: options
                .metrics
                .as_ref()
                .map(|m| m.span(&format!("search.{name}"))),
        }
    }

    /// The search's worker threads, for top-level tuning calls. Calls made
    /// inside a move round pass 1: the fan-out already happens one level up.
    pub(crate) fn threads(&self) -> usize {
        self.options.threads
    }

    pub(crate) fn oracle(&self) -> &CostOracle {
        &self.oracle
    }

    /// Whether the anytime deadline has passed; a hit is recorded in
    /// `stats`. The incumbent is always fully evaluated, so stopping at any
    /// point that asks leaves a valid best-so-far design.
    pub(crate) fn expired(&self, stats: &mut SearchStats) -> bool {
        let expired = self.options.deadline.expired();
        stats.deadline_hit |= expired;
        expired
    }

    /// Run the physical design tool on `queries` over `prepared` within
    /// `budget`, and count the call into `stats`.
    pub(crate) fn tune(
        &self,
        prepared: &PreparedMapping,
        queries: &[(&SqlQuery, f64)],
        budget: f64,
        threads: usize,
        stats: &mut SearchStats,
    ) -> TuneResult {
        let result = tune_with(
            &prepared.catalog,
            &prepared.stats,
            queries,
            &[],
            budget,
            &self.oracle,
            &TuneOptions {
                threads,
                metrics: self.options.metrics.clone(),
                deadline: self.options.deadline.clone(),
            },
        );
        stats.absorb_tune(result.optimizer_calls);
        stats.deadline_hit |= result.degraded;
        result
    }

    /// Prepare `mapping` and tune it over the whole workload.
    pub(crate) fn evaluate(
        &self,
        ctx: &EvalContext<'_>,
        mapping: Mapping,
        threads: usize,
        stats: &mut SearchStats,
    ) -> Tuned {
        let prepared = ctx.prepare(&mapping);
        let translated = prepared.translated(ctx.workload);
        let queries: Vec<(&SqlQuery, f64)> = translated.iter().map(|(_, q, w)| (*q, *w)).collect();
        let result = self.tune(&prepared, &queries, ctx.space_budget, threads, stats);
        let mut per_query: Vec<Option<PerQueryInfo>> = vec![None; ctx.workload.len()];
        for ((workload_index, _, _), info) in translated.iter().zip(result.per_query) {
            per_query[*workload_index] = Some(info);
        }
        Tuned {
            mapping,
            prepared,
            config: result.config,
            per_query,
            total_cost: result.total_cost,
        }
    }

    /// One move round. Every move is priced independently against the same
    /// incumbent, so `price` fans out across the search's threads, each call
    /// counting into its own [`SearchStats`] (`None`: the move does not
    /// apply). The reduction then runs serially in move order with strict
    /// `<`, so the first index wins ties and the winner — and therefore the
    /// whole search — is identical for any thread count. A move the
    /// deadline left unstarted sets `deadline_hit`; a non-finite cost never
    /// wins. Returns the winner's index, payload and cost.
    pub(crate) fn round<T, P>(
        &self,
        moves: &[T],
        stats: &mut SearchStats,
        price: impl Fn(&T, &mut SearchStats) -> Option<(P, f64)> + Sync,
    ) -> Option<(usize, P, f64)>
    where
        T: Sync,
        P: Send,
    {
        let slots = parallel_map(
            moves,
            self.options.threads,
            &self.options.deadline,
            self.options.metrics.as_deref(),
            || (),
            |_, _, mv| {
                let mut local = SearchStats {
                    transformations_searched: 1,
                    ..SearchStats::default()
                };
                price(mv, &mut local).map(|(payload, cost)| (payload, cost, local))
            },
        );
        let mut best: Option<(usize, P, f64)> = None;
        for (i, slot) in slots.into_iter().enumerate() {
            let Some(priced) = slot else {
                stats.deadline_hit = true;
                continue;
            };
            let Some((payload, cost, local)) = priced else {
                continue;
            };
            stats.absorb(&local);
            if cost.is_finite() && best.as_ref().is_none_or(|(_, _, c)| cost < *c) {
                best = Some((i, payload, cost));
            }
        }
        best
    }

    /// Close the run: record the plan-cache counters and the wall time,
    /// register `search.<name>` and `oracle` metrics, and build the outcome.
    pub(crate) fn finish(
        self,
        mut stats: SearchStats,
        mapping: Mapping,
        config: PhysicalConfig,
        estimated_cost: f64,
    ) -> AdvisorOutcome {
        let cache = self.oracle.snapshot();
        stats.absorb_cache(&cache);
        stats.elapsed = self.start.elapsed();
        if let Some(metrics) = &self.options.metrics {
            stats.register_into(metrics, &format!("search.{}", self.name));
            cache.register_into(metrics, "oracle");
        }
        AdvisorOutcome {
            mapping,
            config,
            estimated_cost,
            stats,
            degraded: stats.deadline_hit,
        }
    }
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
        assert!(!Deadline::none().expired());
    }

    #[test]
    fn elapsed_deadline_expires() {
        let deadline = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(deadline.expired());
        let future = Deadline::from_millis(60_000);
        assert!(!future.expired());
    }

    /// A stub move: `None` does not apply, `Some(c)` is priced at `c`. Each
    /// call counts one optimizer call, applying or not.
    fn price(mv: &Option<f64>, local: &mut SearchStats) -> Option<((), f64)> {
        local.optimizer_calls += 1;
        mv.map(|cost| ((), cost))
    }

    fn round(
        moves: &[Option<f64>],
        options: &SearchOptions,
    ) -> (Option<(usize, f64)>, SearchStats) {
        let mut stats = SearchStats::default();
        let best = SearchRun::new("stub", options).round(moves, &mut stats, price);
        (best.map(|(i, (), cost)| (i, cost)), stats)
    }

    #[test]
    fn round_tie_goes_to_the_first_index() {
        for threads in [1, 4] {
            let options = SearchOptions {
                threads,
                ..SearchOptions::default()
            };
            let moves = [Some(3.0), Some(2.0), Some(5.0), Some(2.0), Some(2.0)];
            let (best, stats) = round(&moves, &options);
            assert_eq!(best, Some((1, 2.0)), "threads={threads}");
            assert_eq!(stats.transformations_searched, 5);
            assert!(!stats.deadline_hit);
        }
    }

    #[test]
    fn round_skips_unstarted_moves_and_records_the_hit() {
        let options = SearchOptions {
            deadline: Deadline::at(Instant::now() - Duration::from_millis(1)),
            ..SearchOptions::default()
        };
        let (best, stats) = round(&[Some(1.0), Some(2.0)], &options);
        assert_eq!(best, None);
        assert!(stats.deadline_hit);
        assert_eq!(stats.transformations_searched, 0);
        assert_eq!(stats.optimizer_calls, 0);
    }

    #[test]
    fn round_skips_moves_that_do_not_apply_without_counting_them() {
        let (best, stats) = round(&[None, Some(4.0), None], &SearchOptions::default());
        assert_eq!(best, Some((1, 4.0)));
        assert_eq!(stats.transformations_searched, 1);
        assert_eq!(stats.optimizer_calls, 1);
        assert!(!stats.deadline_hit);
    }

    #[test]
    fn round_never_picks_a_non_finite_cost() {
        let moves = [
            Some(f64::NAN),
            Some(f64::INFINITY),
            Some(7.0),
            Some(f64::NAN),
        ];
        let (best, _) = round(&moves, &SearchOptions::default());
        assert_eq!(best, Some((2, 7.0)));
        let (best, stats) = round(
            &[Some(f64::NAN), Some(f64::INFINITY)],
            &SearchOptions::default(),
        );
        assert_eq!(best, None);
        // Non-finite moves were still priced and count as searched.
        assert_eq!(stats.transformations_searched, 2);
    }

    #[test]
    fn improves_rejects_gains_below_the_threshold() {
        assert!(improves(99.0, 100.0));
        assert!(!improves(100.0, 100.0));
        assert!(!improves(101.0, 100.0));
        assert!(!improves(100.0 * (1.0 - MIN_GAIN / 2.0), 100.0));
        assert!(!improves(f64::NAN, 100.0));
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
