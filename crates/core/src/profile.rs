//! Online self-tuning under live traffic.
//!
//! The paper's advisor runs offline: a workload file in, a design out.
//! This module closes the loop — it watches the statements a live
//! [`SessionDb`] actually executes, detects when the workload has drifted
//! away from the one the current design was tuned for, re-runs the
//! physical design tool ([`crate::physical::tune_with`]) against the
//! *observed* profile on a background thread, and installs the winner via
//! a non-blocking online swap ([`SessionDb::apply_config_online`]).
//!
//! Determinism is load-bearing: every decision is a pure function of the
//! statement stream and the seed. The profile decays by *statement count*
//! (never wall clock), fingerprints and weights live in `BTreeMap`s so
//! iteration order is fixed, drift thresholds are jittered by a seeded
//! splitmix64 per window, and the tuning search itself is bit-identical
//! for any thread count. Two runs of the same statement stream — at any
//! executor parallelism — make the same drift calls and install the same
//! configurations, which is what the `reproduce adapt` scenario hashes.

use crate::oracle::CostOracle;
use crate::physical::{tune_with, TuneOptions, UpdateLoad};
use crate::search::Deadline;
use std::collections::BTreeMap;
use xmlshred_rel::catalog::TableId;
use xmlshred_rel::db::QueryOutcome;
use xmlshred_rel::error::RelResult;
use xmlshred_rel::optimizer::{config_fingerprint, query_fingerprint};
use xmlshred_rel::session::SessionDb;
use xmlshred_rel::sql::SqlQuery;
use xmlshred_rel::types::Row;

/// splitmix64 — the same mixer the fault plane and bench digests use,
/// local so profiles don't depend on those crates' internals.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Knobs for the adaptive loop. Everything is in *statements*, never
/// seconds, so runs replay bit-identically.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Per-statement decay factor applied to every profile weight: after
    /// `k` statements a query's weight has shrunk by `decay^k`. Close to
    /// 1.0 = long memory.
    pub decay: f64,
    /// Window length in statements between drift checks.
    pub window: u64,
    /// Base total-variation divergence (in `[0, 1]`) above which the
    /// workload is declared drifted; jittered ±5% per window from `seed`.
    pub drift_threshold: f64,
    /// Seed for the per-window threshold jitter.
    pub seed: u64,
    /// Storage budget handed to the tuner.
    pub budget_bytes: f64,
    /// Tuner fan-out threads (bit-identical for any value).
    pub threads: usize,
    /// Don't tune before this many statements have been observed.
    pub min_statements: u64,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            decay: 0.995,
            window: 64,
            drift_threshold: 0.25,
            seed: 0,
            budget_bytes: f64::INFINITY,
            threads: 1,
            min_statements: 32,
        }
    }
}

/// One query's entry in the sliding profile.
#[derive(Debug, Clone)]
struct ProfileEntry {
    query: SqlQuery,
    /// Decayed weight as of statement `last`.
    weight: f64,
    /// Statement counter at the last touch (decay is applied lazily).
    last: u64,
}

/// Decayed per-table insert volume.
#[derive(Debug, Clone)]
struct UpdateEntry {
    rows: f64,
    last: u64,
}

/// A sliding workload profile fed from live execution: query fingerprints
/// with statement-count-decayed frequencies, plus per-table insert
/// volumes. All maps are `BTreeMap` so every walk is deterministic.
#[derive(Debug, Clone, Default)]
pub struct WorkloadProfile {
    decay: f64,
    /// Statements observed (queries + inserts).
    now: u64,
    queries: BTreeMap<u64, ProfileEntry>,
    updates: BTreeMap<u32, UpdateEntry>,
}

impl WorkloadProfile {
    /// An empty profile with the given per-statement decay.
    pub fn new(decay: f64) -> Self {
        WorkloadProfile {
            decay: decay.clamp(0.0, 1.0),
            ..WorkloadProfile::default()
        }
    }

    /// Decay `weight` from statement `last` to `now`.
    fn decayed(&self, weight: f64, last: u64) -> f64 {
        let age = self.now.saturating_sub(last).min(i32::MAX as u64) as i32;
        weight * self.decay.powi(age)
    }

    /// Record one executed query; returns its fingerprint.
    pub fn record_query(&mut self, query: &SqlQuery) -> u64 {
        self.now += 1;
        let fp = query_fingerprint(query);
        let now = self.now;
        let decay = self.decay;
        match self.queries.get_mut(&fp) {
            Some(entry) => {
                let age = now.saturating_sub(entry.last).min(i32::MAX as u64) as i32;
                entry.weight = entry.weight * decay.powi(age) + 1.0;
                entry.last = now;
            }
            None => {
                self.queries.insert(
                    fp,
                    ProfileEntry {
                        query: query.clone(),
                        weight: 1.0,
                        last: now,
                    },
                );
            }
        }
        fp
    }

    /// Record one insert statement of `rows` rows into `table`.
    pub fn record_insert(&mut self, table: TableId, rows: usize) {
        self.now += 1;
        let now = self.now;
        let decayed = self
            .updates
            .get(&table.0)
            .map(|e| self.decayed(e.rows, e.last))
            .unwrap_or(0.0);
        self.updates.insert(
            table.0,
            UpdateEntry {
                rows: decayed + rows as f64,
                last: now,
            },
        );
    }

    /// Statements observed so far.
    pub fn statements(&self) -> u64 {
        self.now
    }

    /// Distinct query fingerprints tracked.
    pub fn distinct_queries(&self) -> usize {
        self.queries.len()
    }

    /// The weighted workload as the tuner wants it, in fingerprint order.
    pub fn workload(&self) -> Vec<(SqlQuery, f64)> {
        self.queries
            .values()
            .map(|e| (e.query.clone(), self.decayed(e.weight, e.last)))
            .collect()
    }

    /// Decayed insert volumes as tuner update loads, in table order.
    pub fn update_loads(&self) -> Vec<UpdateLoad> {
        self.updates
            .iter()
            .map(|(&table, e)| UpdateLoad {
                table: TableId(table),
                rows: self.decayed(e.rows, e.last),
            })
            .filter(|u| u.rows > 0.0)
            .collect()
    }

    /// Normalized weight per fingerprint (sums to 1 when non-empty).
    pub fn normalized(&self) -> BTreeMap<u64, f64> {
        let mut weights: BTreeMap<u64, f64> = self
            .queries
            .iter()
            .map(|(&fp, e)| (fp, self.decayed(e.weight, e.last)))
            .collect();
        let total: f64 = weights.values().sum();
        if total > 0.0 {
            for w in weights.values_mut() {
                *w /= total;
            }
        }
        weights
    }
}

/// A drift verdict for one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftDecision {
    /// Total-variation divergence between the live profile and the
    /// baseline the current design was tuned for, in `[0, 1]`.
    pub divergence: f64,
    /// The (seed-jittered) threshold this window was judged against.
    pub threshold: f64,
    /// Whether the divergence crossed the threshold.
    pub drifted: bool,
}

/// Detects when the live profile has diverged from the profile the
/// current design was tuned against. Divergence is total variation —
/// `0.5 * Σ |p(fp) − q(fp)|` over the fingerprint union, walked in
/// `BTreeMap` order — so it is symmetric, bounded, and deterministic.
#[derive(Debug, Clone, Default)]
pub struct DriftDetector {
    baseline: BTreeMap<u64, f64>,
    base_threshold: f64,
    seed: u64,
    /// Windows judged so far (drives the per-window jitter).
    windows: u64,
}

impl DriftDetector {
    /// A detector with the given base threshold and jitter seed.
    pub fn new(threshold: f64, seed: u64) -> Self {
        DriftDetector {
            baseline: BTreeMap::new(),
            base_threshold: threshold,
            seed,
            windows: 0,
        }
    }

    /// Adopt the current profile as the tuned baseline.
    pub fn rebase(&mut self, profile: &WorkloadProfile) {
        self.baseline = profile.normalized();
    }

    /// Judge the current window. An empty baseline (never tuned) counts
    /// as drifted whenever the profile has any queries, bootstrapping the
    /// first tune.
    pub fn check(&mut self, profile: &WorkloadProfile) -> DriftDecision {
        self.windows += 1;
        // ±5% multiplicative jitter, seeded per window: two runs with the
        // same seed judge identical windows identically, while distinct
        // seeds decorrelate the exact trip point.
        let roll = mix(self.seed ^ self.windows) % 1001;
        let jitter = 0.95 + 0.10 * (roll as f64 / 1000.0);
        let threshold = self.base_threshold * jitter;
        let live = profile.normalized();
        if self.baseline.is_empty() {
            let drifted = !live.is_empty();
            return DriftDecision {
                divergence: if drifted { 1.0 } else { 0.0 },
                threshold,
                drifted,
            };
        }
        let mut divergence = 0.0;
        for (fp, p) in &live {
            divergence += (p - self.baseline.get(fp).copied().unwrap_or(0.0)).abs();
        }
        for (fp, q) in &self.baseline {
            if !live.contains_key(fp) {
                divergence += q;
            }
        }
        divergence *= 0.5;
        DriftDecision {
            divergence,
            threshold,
            drifted: divergence > threshold,
        }
    }
}

/// One adaptation decision, recorded for the determinism digest.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptEvent {
    /// Statement count when the window closed.
    pub statement: u64,
    /// The drift verdict.
    pub decision: DriftDecision,
    /// Fingerprint of the configuration installed by this window's tune,
    /// `None` when nothing was (no drift, or the tune re-derived the
    /// already-installed design).
    pub applied: Option<u64>,
    /// The tuner's estimated workload cost under the chosen design (only
    /// meaningful when a tune ran).
    pub est_cost: f64,
}

/// The adaptive controller: wraps a [`SessionDb`], records every
/// statement into a [`WorkloadProfile`], and at each window boundary asks
/// the [`DriftDetector`] whether to re-tune. A re-tune runs the anytime
/// search on a background thread — the engine stays unlocked, concurrent
/// sessions keep executing — and the winning configuration is installed
/// through the non-blocking online swap. The controller then rebases the
/// detector so the new design becomes the baseline.
pub struct AdaptiveDb {
    db: SessionDb,
    profile: WorkloadProfile,
    detector: DriftDetector,
    options: ProfileOptions,
    /// Fingerprint of the currently installed configuration.
    tuned: u64,
    events: Vec<AdaptEvent>,
}

impl AdaptiveDb {
    /// Wrap a session handle for adaptive execution.
    pub fn new(db: SessionDb, options: ProfileOptions) -> Self {
        AdaptiveDb {
            profile: WorkloadProfile::new(options.decay),
            detector: DriftDetector::new(options.drift_threshold, options.seed),
            tuned: 0,
            events: Vec::new(),
            options,
            db,
        }
    }

    /// The wrapped session handle (clone it for concurrent sessions).
    pub fn session(&self) -> &SessionDb {
        &self.db
    }

    /// The live profile.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Every adaptation decision so far, in statement order.
    pub fn events(&self) -> &[AdaptEvent] {
        &self.events
    }

    /// Execute a query through the profile: record, run, maybe adapt.
    pub fn execute(&mut self, query: &SqlQuery) -> RelResult<QueryOutcome> {
        self.profile.record_query(query);
        let outcome = self.db.execute(query)?;
        self.maybe_adapt()?;
        Ok(outcome)
    }

    /// Insert through the profile (feeds the tuner's update loads), then
    /// `ANALYZE`, so the tuner and the planner price the rows just
    /// inserted.
    pub fn insert_rows(&mut self, table: TableId, rows: Vec<Row>) -> RelResult<usize> {
        self.profile.record_insert(table, rows.len());
        let n = self.db.insert_rows(table, rows)?;
        self.db.analyze()?;
        self.maybe_adapt()?;
        Ok(n)
    }

    /// Window-boundary check: judge drift and, when tripped, re-tune on a
    /// background thread and swap the winner in online.
    fn maybe_adapt(&mut self) -> RelResult<()> {
        let stmts = self.profile.statements();
        if stmts < self.options.min_statements
            || self.options.window == 0
            || !stmts.is_multiple_of(self.options.window)
        {
            return Ok(());
        }
        let decision = self.detector.check(&self.profile);
        let mut event = AdaptEvent {
            statement: stmts,
            decision,
            applied: None,
            est_cost: f64::NAN,
        };
        if decision.drifted && self.profile.distinct_queries() > 0 {
            let (catalog, stats) = self
                .db
                .with_db(|db| (db.catalog().clone(), db.all_stats().to_vec()));
            let workload = self.profile.workload();
            let updates = self.profile.update_loads();
            let budget = self.options.budget_bytes;
            let threads = self.options.threads;
            // The search runs off-thread: the engine lock is free the
            // whole time, so live sessions are never blocked by tuning.
            // Joining immediately keeps the statement stream — and hence
            // the digest — deterministic.
            let handle = std::thread::spawn(move || {
                let oracle = CostOracle::new(true);
                let query_refs: Vec<(&SqlQuery, f64)> =
                    workload.iter().map(|(q, w)| (q, *w)).collect();
                tune_with(
                    &catalog,
                    &stats,
                    &query_refs,
                    &updates,
                    budget,
                    &oracle,
                    &TuneOptions {
                        threads,
                        metrics: None,
                        deadline: Deadline::none(),
                    },
                )
            });
            let result = handle
                .join()
                .map_err(|_| xmlshred_rel::RelError::Fault("tuning thread panicked".into()))?;
            event.est_cost = result.total_cost;
            let fp = config_fingerprint(&result.config);
            if fp != self.tuned {
                self.db.apply_config_online(&result.config)?;
                self.tuned = fp;
                event.applied = Some(fp);
            }
            // Either way the live profile becomes the baseline: the
            // design now reflects it (or already did).
            self.detector.rebase(&self.profile);
        }
        self.events.push(event);
        Ok(())
    }

    /// Deterministic digest of every adaptation decision: window
    /// statement counts, divergences, verdicts, applied configuration
    /// fingerprints, and tuner costs. Bit-identical across runs (and
    /// executor thread counts) for the same statement stream and seed.
    pub fn digest(&self) -> u64 {
        let mut h = 0xadab_7ed0_c0ff_ee00u64;
        for event in &self.events {
            h = mix(h ^ event.statement);
            h = mix(h ^ event.decision.divergence.to_bits());
            h = mix(h ^ event.decision.threshold.to_bits());
            h = mix(h ^ u64::from(event.decision.drifted));
            h = mix(h ^ event.applied.unwrap_or(0));
            h = mix(h ^ event.est_cost.to_bits());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlshred_rel::catalog::{ColumnDef, TableDef};
    use xmlshred_rel::db::Database;
    use xmlshred_rel::expr::{Filter, FilterOp};
    use xmlshred_rel::sql::{Output, SelectQuery};
    use xmlshred_rel::types::{DataType, Value};

    fn setup() -> (SessionDb, TableId) {
        let sdb = SessionDb::new(Database::new());
        let t = sdb
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                ],
            ))
            .unwrap();
        sdb.insert_rows(
            t,
            (0..500)
                .map(|i| vec![Value::Int(i % 50), Value::Int(i % 11)])
                .collect(),
        )
        .unwrap();
        sdb.analyze().unwrap();
        (sdb, t)
    }

    fn query_on(t: TableId, col: usize, v: i64) -> SqlQuery {
        let mut q = SelectQuery::single(t);
        q.filters = vec![Filter::new(0, col, FilterOp::Eq, Value::Int(v))];
        q.outputs = vec![Output::col(0, 0), Output::col(0, 1)];
        SqlQuery::Select(q)
    }

    #[test]
    fn decay_is_statement_count_based_and_lazy() {
        let mut p = WorkloadProfile::new(0.5);
        let (sdb, t) = setup();
        let _ = sdb;
        let q = query_on(t, 0, 1);
        p.record_query(&q);
        // Two unrelated statements decay the entry by 0.5^2.
        p.record_insert(t, 10);
        p.record_insert(t, 10);
        let w = p.workload();
        assert_eq!(w.len(), 1);
        assert!((w[0].1 - 0.25).abs() < 1e-12, "got {}", w[0].1);
    }

    #[test]
    fn drift_trips_on_shift_and_not_on_stable_load() {
        let (_, t) = setup();
        let mut profile = WorkloadProfile::new(1.0);
        let mut det = DriftDetector::new(0.3, 7);
        for v in 0..20 {
            profile.record_query(&query_on(t, 0, v % 3));
        }
        det.rebase(&profile);
        // Same mix again: no drift.
        for v in 0..20 {
            profile.record_query(&query_on(t, 0, v % 3));
        }
        let stable = det.check(&profile);
        assert!(!stable.drifted, "divergence {}", stable.divergence);
        // Shift to a disjoint query set: drift.
        for v in 0..60 {
            profile.record_query(&query_on(t, 1, v % 4));
        }
        let shifted = det.check(&profile);
        assert!(shifted.drifted, "divergence {}", shifted.divergence);
    }

    #[test]
    fn adaptive_loop_is_deterministic_and_converges() {
        let run = || {
            let (sdb, t) = setup();
            let mut adb = AdaptiveDb::new(
                sdb,
                ProfileOptions {
                    window: 16,
                    min_statements: 16,
                    seed: 42,
                    ..ProfileOptions::default()
                },
            );
            for i in 0..48i64 {
                adb.execute(&query_on(t, 0, i % 5)).unwrap();
            }
            for i in 0..48i64 {
                adb.execute(&query_on(t, 1, i % 3)).unwrap();
            }
            (adb.digest(), adb.events().len(), adb.tuned)
        };
        let (d1, n1, fp1) = run();
        let (d2, n2, fp2) = run();
        assert_eq!(d1, d2);
        assert_eq!(n1, n2);
        assert_eq!(fp1, fp2);
        assert!(fp1 != 0, "a design was installed");
        assert!(n1 >= 2, "at least two windows judged");
    }
}
