//! # xmlshred
//!
//! A reproduction of *"Storing XML (with XSD) in SQL Databases: Interplay of
//! Logical and Physical Designs"* (Chaudhuri, Chen, Shim, Wu; ICDE 2004 /
//! TKDE 2005): a cost-based advisor that **jointly** chooses the logical
//! XML-to-relational mapping and the relational physical design (indexes,
//! materialized views) for an XPath workload under a storage bound.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`xml`] — XML parser, DOM, XSD subset, and the schema tree `T(V,E,A)`;
//! * [`xpath`] — the XPath subset (child/descendant, predicates, unions);
//! * [`rel`] — the in-memory relational engine (storage, B-tree indexes,
//!   materialized views, statistics, optimizer, executor, what-if costing);
//! * [`shred`] — mappings, logical design transformations, shredding, and
//!   statistics derivation;
//! * [`translate`] — XPath-to-SQL via sorted outer unions;
//! * [`core`] — the advisor: physical design tool, Greedy search with
//!   workload-based pruning, and the Naive-Greedy / Two-Step baselines;
//! * [`data`] — synthetic DBLP and Movie datasets plus workload generation.
//!
//! ## Quickstart
//!
//! ```
//! use xmlshred::prelude::*;
//!
//! // A schema and a document.
//! let dataset = xmlshred::data::movie::generate_movie(
//!     &xmlshred::data::movie::MovieConfig { n_movies: 200, ..Default::default() })
//!     .expect("dataset generates");
//!
//! // A workload.
//! let workload = vec![
//!     (parse_path("//movie[year = 1990]/(title | box_office)").unwrap(), 1.0),
//! ];
//!
//! // Collect statistics once, search the joint design space.
//! let source = SourceStats::collect(&dataset.tree, &dataset.document);
//! let ctx = EvalContext {
//!     tree: &dataset.tree,
//!     source: &source,
//!     workload: &workload,
//!     space_budget: 1e9,
//! };
//! let outcome = greedy_search(&ctx, &GreedyOptions::default());
//! assert!(outcome.estimated_cost.is_finite());
//! ```

// Robustness gate: library code must propagate typed errors, not unwrap.
// Tests are exempt (unwrap there is an assertion).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub use xmlshred_core as core;
pub use xmlshred_data as data;
pub use xmlshred_rel as rel;
pub use xmlshred_shred as shred;
pub use xmlshred_translate as translate;
pub use xmlshred_xml as xml;
pub use xmlshred_xpath as xpath;

/// Commonly used items in one import.
pub mod prelude {
    pub use xmlshred_core::{
        greedy_search, measure_quality, naive_greedy_search, naive_greedy_search_with, tune,
        tune_with, two_step_search, two_step_search_with, AdvisorOutcome, CostOracle, Deadline,
        EvalContext, GreedyOptions, MergeStrategy, MetricsRegistry, MetricsReport, SearchOptions,
        SearchStats, TuneOptions,
    };
    pub use xmlshred_rel::{Database, FaultConfig, PhysicalConfig};
    pub use xmlshred_shred::schema::derive_schema;
    pub use xmlshred_shred::shredder::load_database;
    pub use xmlshred_shred::{Mapping, SourceStats, Transformation};
    pub use xmlshred_translate::translate::translate;
    pub use xmlshred_xml::tree::SchemaTree;
    pub use xmlshred_xml::xsd::parse_to_tree;
    pub use xmlshred_xpath::parser::parse_path;
}
