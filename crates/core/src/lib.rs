//! The paper's contribution: a joint logical/physical design advisor for
//! XML shredded into relational storage.
//!
//! * [`physical`] — the Index-Tuning-Wizard analog: workload-driven
//!   candidate indexes and materialized views, greedily selected under a
//!   storage bound using what-if optimizer calls. Returns per-query costs
//!   and used-object sets `I(Q, M)` (needed by cost derivation).
//! * [`profile`] — online self-tuning: a sliding workload profile fed from
//!   live execution, seeded drift detection, and a background re-tuning
//!   loop installing designs via non-blocking online swaps.
//! * [`context`] — glue: derive schema/catalog/statistics for a mapping and
//!   translate the XPath workload to SQL, all without touching the data.
//! * [`candidates`] — Section 4.5 workload-based candidate selection and
//!   Section 4.6 repetition-split count choice.
//! * [`merging`] — Section 4.7 candidate merging (greedy / exhaustive /
//!   none) with the heuristic I/O-saving model.
//! * [`cost_derive`] — Section 4.8 cost derivation rules.
//! * [`metrics`] — the observability layer: deterministic counters,
//!   histograms, and span timers with report-time invariant self-checks.
//! * [`greedy`] — the paper's Greedy search (Fig. 3), with ablation flags
//!   reproducing Figs. 7-9.
//! * [`naive`] — Naive-Greedy: the straightforward extension of prior
//!   logical-design search to the joint space (enumerates subsumed
//!   transformations too, no workload pruning).
//! * [`twostep`] — Two-Step: logical design first (under a best-guess
//!   physical configuration), then physical design once.
//! * [`quality`] — final evaluation: load the chosen mapping for real,
//!   build its physical design, execute the workload, and report measured
//!   cost (also against the hybrid-inlining baseline for normalization).

// Robustness gate: library code must propagate typed errors, not unwrap.
// Tests are exempt (unwrap there is an assertion).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod candidates;
pub mod context;
pub mod cost_derive;
pub mod greedy;
pub mod merging;
pub mod metrics;
pub mod moves;
pub mod naive;
pub mod oracle;
pub mod parallel;
pub mod physical;
pub mod profile;
pub mod quality;
pub mod search;
pub mod twostep;

pub use context::{EvalContext, PreparedMapping};
pub use greedy::{greedy_search, GreedyOptions};
pub use merging::MergeStrategy;
pub use metrics::{MetricsRegistry, MetricsReport};
pub use moves::SearchMove;
pub use naive::{naive_greedy_search, naive_greedy_search_with};
pub use oracle::{CacheStats, CostOracle};
pub use parallel::{effective_threads, parallel_map};
pub use physical::{tune, tune_with, TuneOptions, TuneResult};
pub use profile::{
    AdaptEvent, AdaptiveDb, DriftDecision, DriftDetector, ProfileOptions, WorkloadProfile,
};
pub use quality::{measure_quality, QualityReport};
pub use search::{AdvisorOutcome, Deadline, SearchOptions, SearchStats};
pub use twostep::{two_step_search, two_step_search_with};
