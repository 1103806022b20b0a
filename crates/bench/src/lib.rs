//! Benchmark harness: shared machinery for regenerating every table and
//! figure of the paper's evaluation (Section 5). See DESIGN.md for the
//! per-experiment index and EXPERIMENTS.md for recorded paper-vs-measured
//! results.
//!
//! The `reproduce` binary drives the [`experiments`]. Timed measurements
//! live in the separate `perf/` package.

// Robustness gate: library code must propagate typed errors, not panic —
// neither `unwrap` nor `expect` (a fixture `expect` once turned engine
// regressions into harness panics). Tests are exempt (panics there are
// assertions).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod experiments;
pub mod harness;
pub mod pins;
