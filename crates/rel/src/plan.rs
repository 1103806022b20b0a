//! Physical query plans.
//!
//! A [`QueryPlan`] mirrors the sorted-outer-union SQL shape: one
//! [`BranchPlan`] per `UNION ALL` branch plus a final sort. Branches are
//! either left-deep join pipelines over base tables or a scan of a
//! materialized view.

use crate::expr::{Filter, FilterOp};
use crate::index::KeyRange;
use crate::sql::Output;
use crate::types::{DataType, Value};

/// How one table occurrence is accessed.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Full sequential scan of the heap.
    SeqScan,
    /// B-tree seek/scan.
    IndexSeek {
        /// Index name.
        index: String,
        /// Seek argument (empty prefix = full index scan).
        key: KeyRange,
        /// True when the index covers every referenced column, so the heap
        /// is never touched.
        covering: bool,
    },
}

impl Access {
    /// Name of the index used, if any.
    pub fn index_name(&self) -> Option<&str> {
        match self {
            Access::SeqScan => None,
            Access::IndexSeek { index, .. } => Some(index),
        }
    }
}

/// Scan of one table occurrence: access path plus residual filters.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanNode {
    /// Occurrence index in the originating [`crate::sql::SelectQuery`].
    pub table_ref: usize,
    /// Access path.
    pub access: Access,
    /// Filters evaluated on this occurrence (including any consumed by the
    /// seek — re-checking them is harmless and keeps execution simple).
    pub filters: Vec<Filter>,
    /// Optimizer row estimate after filters.
    pub est_rows: f64,
    /// Optimizer cost estimate for the access.
    pub est_cost: f64,
}

/// Join algorithm for one pipeline step.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinAlgo {
    /// Build a hash table on the inner side, probe with outer rows.
    Hash,
    /// Probe an inner-side B-tree per outer row.
    IndexNestedLoop {
        /// Inner index keyed on the join column.
        index: String,
        /// True when that index covers the inner side's referenced columns.
        covering: bool,
    },
}

/// One join step: attach `inner` to the pipeline built so far.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinNode {
    /// Inner side scan (for hash joins; INLJ uses the index in the algo and
    /// applies `inner.filters` as residuals).
    pub inner: ScanNode,
    /// Algorithm.
    pub algo: JoinAlgo,
    /// Outer-side join key: occurrence and column.
    pub outer_ref: usize,
    /// Outer-side join column.
    pub outer_col: usize,
    /// Inner-side join column.
    pub inner_col: usize,
    /// Row estimate after this join.
    pub est_rows: f64,
    /// Cumulative cost estimate through this join.
    pub est_cost: f64,
}

/// Output expression over a materialized view.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewOutput {
    /// A view column.
    Col(usize),
    /// A typed NULL placeholder.
    Null(DataType),
}

/// Plan for one `UNION ALL` branch.
#[derive(Debug, Clone, PartialEq)]
pub enum BranchPlan {
    /// Left-deep pipeline over base tables.
    Pipeline {
        /// Table id of each occurrence in the originating query
        /// (indexed by `table_ref`).
        tables: Vec<crate::catalog::TableId>,
        /// Driving scan.
        driver: ScanNode,
        /// Subsequent joins, in order.
        joins: Vec<JoinNode>,
        /// Output expressions (in terms of the original query occurrences).
        outputs: Vec<Output>,
        /// Row estimate.
        est_rows: f64,
        /// Cost estimate.
        est_cost: f64,
    },
    /// Scan of a materialized view replacing the whole branch.
    ViewScan {
        /// View name.
        view: String,
        /// Filters over view columns.
        filters: Vec<(usize, FilterOp, Value)>,
        /// Outputs over view columns.
        outputs: Vec<ViewOutput>,
        /// Row estimate.
        est_rows: f64,
        /// Cost estimate.
        est_cost: f64,
    },
}

impl BranchPlan {
    /// Branch cost estimate.
    pub fn est_cost(&self) -> f64 {
        match self {
            BranchPlan::Pipeline { est_cost, .. } | BranchPlan::ViewScan { est_cost, .. } => {
                *est_cost
            }
        }
    }

    /// Branch row estimate.
    pub fn est_rows(&self) -> f64 {
        match self {
            BranchPlan::Pipeline { est_rows, .. } | BranchPlan::ViewScan { est_rows, .. } => {
                *est_rows
            }
        }
    }

    /// Names of indexes and views this branch uses.
    pub fn used_objects(&self) -> Vec<String> {
        match self {
            BranchPlan::Pipeline { driver, joins, .. } => {
                let mut out = Vec::new();
                if let Some(name) = driver.access.index_name() {
                    out.push(name.to_string());
                }
                for join in joins {
                    match &join.algo {
                        JoinAlgo::Hash => {
                            if let Some(name) = join.inner.access.index_name() {
                                out.push(name.to_string());
                            }
                        }
                        JoinAlgo::IndexNestedLoop { index, .. } => out.push(index.clone()),
                    }
                }
                out
            }
            BranchPlan::ViewScan { view, .. } => vec![view.clone()],
        }
    }
}

/// A full query plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Branch plans, one per `UNION ALL` branch.
    pub branches: Vec<BranchPlan>,
    /// Output positions to sort the combined result by.
    pub order_by: Vec<usize>,
    /// Total cost estimate (branches + sort).
    pub est_cost: f64,
    /// Configuration epoch the plan was chosen under (`0` = unpinned, e.g.
    /// a what-if plan). `Database::execute_plan` rejects a pinned plan
    /// whose epoch no longer matches — the configuration was swapped
    /// between plan and execute, so the plan may reference dropped
    /// structures.
    pub epoch: u64,
}

impl QueryPlan {
    /// Names of every physical object (index / view) the plan touches,
    /// deduplicated — the `I(Q, M)` set of the paper's Section 4.8.
    pub fn used_objects(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .branches
            .iter()
            .flat_map(BranchPlan::used_objects)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// One-line-per-branch human-readable summary.
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, branch) in self.branches.iter().enumerate() {
            match branch {
                BranchPlan::Pipeline { driver, joins, .. } => {
                    let _ = write!(out, "branch {i}: ");
                    match &driver.access {
                        Access::SeqScan => {
                            let _ = write!(out, "SeqScan(t{})", driver.table_ref);
                        }
                        Access::IndexSeek {
                            index, covering, ..
                        } => {
                            let _ = write!(
                                out,
                                "IndexSeek(t{}, {index}{})",
                                driver.table_ref,
                                if *covering { ", covering" } else { "" }
                            );
                        }
                    }
                    for join in joins {
                        match &join.algo {
                            JoinAlgo::Hash => {
                                let _ = write!(out, " -> HashJoin(t{})", join.inner.table_ref);
                            }
                            JoinAlgo::IndexNestedLoop { index, .. } => {
                                let _ = write!(out, " -> INLJ(t{}, {index})", join.inner.table_ref);
                            }
                        }
                    }
                    let _ = writeln!(out, "  [cost={:.1}]", branch.est_cost());
                }
                BranchPlan::ViewScan { view, .. } => {
                    let _ = writeln!(
                        out,
                        "branch {i}: ViewScan({view})  [cost={:.1}]",
                        branch.est_cost()
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(table_ref: usize, index: Option<&str>) -> ScanNode {
        ScanNode {
            table_ref,
            access: match index {
                None => Access::SeqScan,
                Some(name) => Access::IndexSeek {
                    index: name.to_string(),
                    key: KeyRange::eq(vec![]),
                    covering: false,
                },
            },
            filters: vec![],
            est_rows: 10.0,
            est_cost: 1.0,
        }
    }

    #[test]
    fn used_objects_deduplicated() {
        let plan = QueryPlan {
            epoch: 0,
            branches: vec![
                BranchPlan::Pipeline {
                    tables: vec![crate::catalog::TableId(0), crate::catalog::TableId(1)],
                    driver: scan(0, Some("ix_a")),
                    joins: vec![JoinNode {
                        inner: scan(1, None),
                        algo: JoinAlgo::IndexNestedLoop {
                            index: "ix_b".into(),
                            covering: false,
                        },
                        outer_ref: 0,
                        outer_col: 0,
                        inner_col: 1,
                        est_rows: 10.0,
                        est_cost: 2.0,
                    }],
                    outputs: vec![],
                    est_rows: 10.0,
                    est_cost: 2.0,
                },
                BranchPlan::Pipeline {
                    tables: vec![crate::catalog::TableId(0)],
                    driver: scan(0, Some("ix_a")),
                    joins: vec![],
                    outputs: vec![],
                    est_rows: 10.0,
                    est_cost: 1.0,
                },
            ],
            order_by: vec![0],
            est_cost: 3.0,
        };
        assert_eq!(plan.used_objects(), vec!["ix_a".to_string(), "ix_b".into()]);
    }

    #[test]
    fn explain_mentions_operators() {
        let plan = QueryPlan {
            epoch: 0,
            branches: vec![BranchPlan::ViewScan {
                view: "v1".into(),
                filters: vec![],
                outputs: vec![],
                est_rows: 5.0,
                est_cost: 1.0,
            }],
            order_by: vec![],
            est_cost: 1.0,
        };
        assert!(plan.explain().contains("ViewScan(v1)"));
    }
}
