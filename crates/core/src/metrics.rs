//! Deterministic metrics: counters, histograms, and span timers.
//!
//! The advisor's observability layer. Every recorded quantity is sorted into
//! one of three determinism classes, and the class is part of the contract:
//!
//! * **deterministic** — counters and histograms whose values are a pure
//!   function of `(seed, knobs)`: identical across runs, worker-thread
//!   counts, and plan-cache settings. These are what regression harnesses
//!   compare. Examples: transformations searched, rows scanned by the
//!   executor, bytes built vs. budgeted.
//! * **schedule** — counters whose totals depend on thread interleaving even
//!   though the *recommendation* does not: plan-cache hits/misses (two
//!   workers can race on the same key and both count a miss) and optimizer
//!   calls counted from cache `fresh` flags.
//! * **wall** — span timers. Wall-clock never contaminates the other two
//!   classes; a span's *count* is deterministic but its nanoseconds are
//!   reported separately and never compared.
//!
//! [`MetricsReport::self_check`] enforces cross-counter invariants (cache
//! `hits + misses == lookups`, histogram bucket totals equal their counts,
//! `space.built_bytes <= space.budget_bytes`, every `*violations` counter
//! zero) so accounting bugs surface as report-time failures instead of
//! silently skewed experiments.
//!
//! The JSON emitter is hand-rolled (the workspace vendors no serde); all
//! values are `u64` and all maps are `BTreeMap`, so the byte output is
//! stable for a stable report.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use xmlshred_rel::json::push_json_string;

/// Number of power-of-two histogram buckets (`u64` bit lengths 0..=64).
const HISTOGRAM_SLOTS: usize = 65;

#[derive(Debug, Clone, Default)]
struct HistogramCell {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// `buckets[b]` counts values with bit length `b` (0 for value 0).
    buckets: Vec<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct SpanCell {
    count: u64,
    nanos: u64,
}

#[derive(Debug, Default)]
struct Inner {
    det: BTreeMap<String, u64>,
    sched: BTreeMap<String, u64>,
    hist: BTreeMap<String, HistogramCell>,
    spans: BTreeMap<String, SpanCell>,
}

/// Thread-safe registry of deterministic counters, histograms, and spans.
///
/// Cheap to share (`Arc`), cheap when absent (`Option`): every recording
/// site is a no-op unless a registry was supplied. Counter adds are
/// commutative, so recording from parallel workers keeps deterministic
/// totals deterministic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// New registry behind an `Arc`, ready to hand to search options.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while holding the lock only loses metrics, never data;
        // keep recording rather than propagating the poison.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Add to a **deterministic** counter.
    pub fn count(&self, name: &str, delta: u64) {
        *self.lock().det.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Add to a **schedule-dependent** counter.
    pub fn count_sched(&self, name: &str, delta: u64) {
        *self.lock().sched.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Record a value into a **deterministic** power-of-two histogram.
    pub fn record(&self, name: &str, value: u64) {
        let mut inner = self.lock();
        let cell = inner.hist.entry(name.to_owned()).or_default();
        if cell.buckets.is_empty() {
            cell.buckets = vec![0; HISTOGRAM_SLOTS];
        }
        if cell.count == 0 {
            cell.min = value;
            cell.max = value;
        } else {
            cell.min = cell.min.min(value);
            cell.max = cell.max.max(value);
        }
        cell.count += 1;
        cell.sum = cell.sum.saturating_add(value);
        let bucket = (64 - value.leading_zeros()) as usize;
        cell.buckets[bucket] += 1;
    }

    /// Record an `f64` quantity (e.g. a cost in cost units) into a
    /// deterministic histogram, rounding to `u64`. NaN and negative values
    /// record as 0; infinities saturate.
    pub fn record_f64(&self, name: &str, value: f64) {
        let v = if value.is_nan() || value <= 0.0 {
            0
        } else if value >= u64::MAX as f64 {
            u64::MAX
        } else {
            value.round() as u64
        };
        self.record(name, v);
    }

    /// Start a span. The span's invocation count is deterministic; its
    /// wall-clock nanoseconds land in the `wall` section and are never
    /// compared. Recording happens when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard {
            registry: self,
            name: name.to_owned(),
            start: Instant::now(),
        }
    }

    /// Add an externally measured span (e.g. the relational executor's
    /// per-operator timings, which are accumulated outside the registry and
    /// registered in bulk). The count lands in the deterministic span-count
    /// line; the nanoseconds stay wall-clock-only, like [`MetricsRegistry::span`].
    pub fn add_span(&self, name: &str, count: u64, nanos: u64) {
        let mut inner = self.lock();
        let cell = inner.spans.entry(name.to_owned()).or_default();
        cell.count += count;
        cell.nanos = cell.nanos.saturating_add(nanos);
    }

    /// Immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsReport {
        let inner = self.lock();
        MetricsReport {
            deterministic: inner.det.clone(),
            schedule: inner.sched.clone(),
            histograms: inner
                .hist
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            count: v.count,
                            sum: v.sum,
                            min: v.min,
                            max: v.max,
                            buckets: v
                                .buckets
                                .iter()
                                .enumerate()
                                .filter(|(_, &c)| c > 0)
                                .map(|(b, &c)| (b as u32, c))
                                .collect(),
                        },
                    )
                })
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        SpanSnapshot {
                            count: v.count,
                            nanos: v.nanos,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Register a crash-recovery report's counters into `registry` under their
/// `wal.*` / `recovery.*` names. Recovery is a pure function of the on-disk
/// bytes, so every counter goes into the **deterministic** class — the same
/// durable directory must produce the same metrics for any thread count.
pub fn record_recovery(registry: &MetricsRegistry, report: &xmlshred_rel::RecoveryReport) {
    for (name, value) in report.metric_counters() {
        registry.count(name, value);
    }
}

/// Register a heal report's counters into `registry` under their `heal.*`
/// names. Healing is a pure function of `(database state, corruption
/// sites, fault seed)`, so every counter goes into the **deterministic**
/// class — the same seeded corruption schedule must produce the same
/// metrics for any executor thread count.
pub fn record_heal(registry: &MetricsRegistry, report: &xmlshred_rel::HealReport) {
    for (name, value) in report.metric_counters() {
        registry.count(name, value);
    }
}

/// Register a scrub report's counters into `registry` under their
/// `scrub.*` names (deterministic: a checksum walk reads no clocks or
/// thread state).
pub fn record_scrub(registry: &MetricsRegistry, report: &xmlshred_rel::ScrubReport) {
    for (name, value) in report.metric_counters() {
        registry.count(name, value);
    }
}

/// Register a server's hardening counters into `registry` under their
/// `server.*` names. Unlike recovery/heal/scrub, these depend on wall-clock
/// timing and connection interleaving (who got shed, which transaction
/// idled out), so every counter goes into the **schedule** class and is
/// excluded from determinism hashes.
pub fn record_server(registry: &MetricsRegistry, stats: &xmlshred_rel::ServerStatsSnapshot) {
    for (name, value) in stats.metric_counters() {
        registry.count_sched(name, value);
    }
}

/// Register a drain report's counters into `registry` under their
/// `server.drain.*` names (schedule class: drain outcomes depend on how far
/// each session happened to get before the deadline).
pub fn record_drain(registry: &MetricsRegistry, report: &xmlshred_rel::DrainReport) {
    for (name, value) in report.metric_counters() {
        registry.count_sched(name, value);
    }
}

/// RAII guard returned by [`MetricsRegistry::span`].
#[derive(Debug)]
pub struct SpanGuard<'a> {
    registry: &'a MetricsRegistry,
    name: String,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let mut inner = self.registry.lock();
        let cell = inner.spans.entry(self.name.clone()).or_default();
        cell.count += 1;
        cell.nanos = cell.nanos.saturating_add(nanos);
    }
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Non-empty power-of-two buckets: bit length of the value -> count.
    pub buckets: BTreeMap<u32, u64>,
}

/// Snapshot of one span timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Times the span ran (deterministic).
    pub count: u64,
    /// Total wall-clock nanoseconds (never compared).
    pub nanos: u64,
}

/// Point-in-time view of a [`MetricsRegistry`], separable into the three
/// determinism classes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReport {
    /// Counters that must be bit-identical per `(seed, knobs)`.
    pub deterministic: BTreeMap<String, u64>,
    /// Counters that may vary with thread scheduling.
    pub schedule: BTreeMap<String, u64>,
    /// Deterministic value distributions.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span timers (count deterministic, nanos wall-clock).
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl MetricsReport {
    /// Canonical rendering of the deterministic section only (counters,
    /// histograms, span counts). Two runs with the same seed and knobs must
    /// produce byte-identical fingerprints regardless of thread count.
    pub fn deterministic_fingerprint(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.deterministic {
            out.push_str(&format!("{k}={v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k}=count:{},sum:{},min:{},max:{}\n",
                h.count, h.sum, h.min, h.max
            ));
        }
        for (k, s) in &self.spans {
            out.push_str(&format!("{k}.span_count={}\n", s.count));
        }
        out
    }

    /// Cross-counter invariant sweep. Returns one message per violation;
    /// empty means the report is internally consistent.
    ///
    /// Checks:
    /// * every histogram's bucket total equals its `count`;
    /// * for every prefix `P` with a `P.lookups` counter, the sibling
    ///   `P.hits + P.misses` equals it (the oracle's cache accounting);
    /// * `space.built_bytes <= space.budget_bytes` when both are present;
    /// * every counter whose name ends in `violations` is zero.
    pub fn self_check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for (name, h) in &self.histograms {
            let bucket_total: u64 = h.buckets.values().sum();
            if bucket_total != h.count {
                violations.push(format!(
                    "histogram {name}: bucket total {bucket_total} != count {}",
                    h.count
                ));
            }
            if h.count > 0 && h.min > h.max {
                violations.push(format!("histogram {name}: min {} > max {}", h.min, h.max));
            }
        }
        for section in [&self.deterministic, &self.schedule] {
            for (name, &lookups) in section.iter() {
                let Some(prefix) = name.strip_suffix(".lookups") else {
                    continue;
                };
                let hits = section.get(&format!("{prefix}.hits")).copied().unwrap_or(0);
                let misses = section
                    .get(&format!("{prefix}.misses"))
                    .copied()
                    .unwrap_or(0);
                if hits + misses != lookups {
                    violations.push(format!(
                        "{prefix}: hits {hits} + misses {misses} != lookups {lookups}"
                    ));
                }
            }
            for (name, &value) in section.iter() {
                if name.ends_with("violations") && value != 0 {
                    violations.push(format!("{name} = {value} (expected 0)"));
                }
            }
        }
        if let (Some(&built), Some(&budget)) = (
            self.deterministic.get("space.built_bytes"),
            self.deterministic.get("space.budget_bytes"),
        ) {
            if built > budget {
                violations.push(format!(
                    "space.built_bytes {built} > space.budget_bytes {budget}"
                ));
            }
        }
        violations
    }

    /// Render the report as a JSON document (hand-rolled; the workspace
    /// vendors no serde). Map iteration is `BTreeMap` order, so output is
    /// byte-stable for a stable report.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"xmlshred-metrics-v1\",\n");
        out.push_str("  \"deterministic\": {\n    \"counters\": ");
        push_counter_map(&mut out, &self.deterministic, 4);
        out.push_str(",\n    \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n      ");
            push_json_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.min, h.max
            ));
            let mut first_bucket = true;
            for (bits, count) in &h.buckets {
                if !first_bucket {
                    out.push_str(", ");
                }
                first_bucket = false;
                out.push_str(&format!("[{bits}, {count}]"));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("}\n  },\n  \"schedule\": {\n    \"counters\": ");
        push_counter_map(&mut out, &self.schedule, 4);
        out.push_str("\n  },\n  \"wall\": {\n    \"spans\": {");
        let mut first = true;
        for (name, s) in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n      ");
            push_json_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"nanos\": {}}}",
                s.count, s.nanos
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("}\n  }\n}\n");
        out
    }
}

fn push_counter_map(out: &mut String, map: &BTreeMap<String, u64>, indent: usize) {
    if map.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push('{');
    let pad = " ".repeat(indent + 2);
    let mut first = true;
    for (name, value) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&pad);
        push_json_string(out, name);
        out.push_str(&format!(": {value}"));
    }
    out.push('\n');
    out.push_str(&" ".repeat(indent));
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_class() {
        let m = MetricsRegistry::new();
        m.count("a.x", 2);
        m.count("a.x", 3);
        m.count_sched("a.y", 7);
        let snap = m.snapshot();
        assert_eq!(snap.deterministic.get("a.x"), Some(&5));
        assert_eq!(snap.schedule.get("a.y"), Some(&7));
        assert!(!snap.deterministic.contains_key("a.y"));
    }

    #[test]
    fn histogram_buckets_total_matches_count() {
        let m = MetricsRegistry::new();
        for v in [0u64, 1, 1, 7, 1024, u64::MAX] {
            m.record("h", v);
        }
        let snap = m.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets.values().sum::<u64>(), h.count);
        assert!(snap.self_check().is_empty(), "{:?}", snap.self_check());
    }

    #[test]
    fn record_f64_clamps_pathological_values() {
        let m = MetricsRegistry::new();
        m.record_f64("h", f64::NAN);
        m.record_f64("h", -3.0);
        m.record_f64("h", f64::INFINITY);
        m.record_f64("h", 2.6);
        let snap = m.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets.values().sum::<u64>(), 4);
    }

    #[test]
    fn self_check_catches_lookup_mismatch() {
        let m = MetricsRegistry::new();
        m.count_sched("oracle.cache.lookups", 10);
        m.count_sched("oracle.cache.hits", 4);
        m.count_sched("oracle.cache.misses", 5);
        let violations = m.snapshot().self_check();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("oracle.cache"), "{violations:?}");
    }

    #[test]
    fn self_check_catches_budget_overrun_and_violation_counters() {
        let m = MetricsRegistry::new();
        m.count("space.built_bytes", 100);
        m.count("space.budget_bytes", 80);
        m.count("rel.stats.histogram_violations", 2);
        let violations = m.snapshot().self_check();
        assert_eq!(violations.len(), 2, "{violations:?}");
    }

    #[test]
    fn self_check_passes_consistent_report() {
        let m = MetricsRegistry::new();
        m.count_sched("oracle.cache.lookups", 9);
        m.count_sched("oracle.cache.hits", 4);
        m.count_sched("oracle.cache.misses", 5);
        m.count("space.built_bytes", 50);
        m.count("space.budget_bytes", 80);
        m.count("rel.stats.histogram_violations", 0);
        assert!(m.snapshot().self_check().is_empty());
    }

    #[test]
    fn spans_count_deterministically() {
        let m = MetricsRegistry::new();
        for _ in 0..3 {
            let _guard = m.span("search.greedy");
        }
        let snap = m.snapshot();
        assert_eq!(snap.spans["search.greedy"].count, 3);
    }

    #[test]
    fn add_span_folds_external_measurements() {
        let m = MetricsRegistry::new();
        {
            let _guard = m.span("exec.op.scan.seq");
        }
        m.add_span("exec.op.scan.seq", 4, 1_000);
        m.add_span("exec.op.join.hash", 2, 500);
        let snap = m.snapshot();
        assert_eq!(snap.spans["exec.op.scan.seq"].count, 5);
        assert!(snap.spans["exec.op.scan.seq"].nanos >= 1_000);
        assert_eq!(snap.spans["exec.op.join.hash"].count, 2);
        assert_eq!(snap.spans["exec.op.join.hash"].nanos, 500);
    }

    #[test]
    fn json_is_stable_and_well_formed() {
        let m = MetricsRegistry::new();
        m.count("exec.rows_scanned", 42);
        m.count_sched("oracle.cache.hits", 1);
        m.record("tune.per_query_cost", 100);
        {
            let _guard = m.span("search.greedy");
        }
        let snap = m.snapshot();
        let a = snap.to_json();
        let b = snap.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"xmlshred-metrics-v1\""));
        assert!(a.contains("\"exec.rows_scanned\": 42"));
        assert!(a.contains("\"oracle.cache.hits\": 1"));
        assert!(a.contains("\"tune.per_query_cost\""));
        assert!(a.contains("\"search.greedy\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn deterministic_fingerprint_excludes_schedule_and_nanos() {
        let m = MetricsRegistry::new();
        m.count("a", 1);
        {
            let _guard = m.span("s");
        }
        let fp1 = m.snapshot().deterministic_fingerprint();
        m.count_sched("cache.hits", 5);
        {
            let _guard = m.span("s");
        }
        let fp2 = m.snapshot().deterministic_fingerprint();
        // Schedule counters don't appear; the extra span changes only the
        // span count line, which is deterministic.
        assert!(!fp2.contains("cache.hits"));
        assert!(fp1.contains("a=1"));
        assert!(fp2.contains("s.span_count=2"));
    }

    #[test]
    fn empty_report_renders() {
        let snap = MetricsRegistry::new().snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(snap.self_check().is_empty());
    }
}
