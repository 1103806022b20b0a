//! Cost model constants and elementary cost formulas.
//!
//! The constants follow the classic System-R-style mix used by mainstream
//! optimizers: sequential pages are cheap, random pages are several times
//! more expensive, and per-tuple CPU costs keep plans honest when everything
//! fits in few pages. Only *relative* magnitudes matter for the paper's
//! experiments.

/// Bytes per page.
pub const PAGE_SIZE: usize = 8192;

/// Cost of reading one page sequentially.
pub const SEQ_PAGE_COST: f64 = 1.0;

/// Cost of reading one page at random (index traversals, INLJ probes).
pub const RANDOM_PAGE_COST: f64 = 4.0;

/// CPU cost of processing one tuple. Roughly 100 tuples fit a page, and the
/// model is deliberately I/O-dominated (the paper's testbed is a cold-cache
/// disk-resident database), so per-tuple CPU sits well below the per-page
/// amortized I/O cost.
pub const CPU_TUPLE_COST: f64 = 0.002;

/// CPU cost of evaluating one predicate on one tuple.
pub const CPU_PRED_COST: f64 = 0.0005;

/// CPU cost of hashing / probing one tuple in a hash join.
pub const CPU_HASH_COST: f64 = 0.003;

/// Per-lookup B-tree descent cost (root + internal levels, mostly cached).
pub const BTREE_DESCENT_COST: f64 = 0.5;

/// Cost of a full sequential scan.
pub fn seq_scan_cost(pages: f64, rows: f64, predicates: usize) -> f64 {
    pages * SEQ_PAGE_COST + rows * (CPU_TUPLE_COST + predicates as f64 * CPU_PRED_COST)
}

/// Cost of one index seek returning `matching_rows` rows spread over
/// `leaf_pages` leaf pages, plus `fetch_pages` random heap fetches when the
/// index does not cover the query.
pub fn index_seek_cost(leaf_pages: f64, matching_rows: f64, fetch_pages: f64) -> f64 {
    BTREE_DESCENT_COST * RANDOM_PAGE_COST
        + leaf_pages * SEQ_PAGE_COST
        + fetch_pages * RANDOM_PAGE_COST
        + matching_rows * CPU_TUPLE_COST
}

/// Cost of a hash join between materialized inputs.
pub fn hash_join_cost(build_rows: f64, probe_rows: f64, output_rows: f64) -> f64 {
    build_rows * CPU_HASH_COST + probe_rows * CPU_HASH_COST + output_rows * CPU_TUPLE_COST
}

/// Cardenas/Yao approximation: distinct pages touched when fetching
/// `matched_rows` random rows from a table of `table_pages` pages.
pub fn pages_fetched(matched_rows: f64, table_pages: f64) -> f64 {
    if table_pages <= 0.0 || matched_rows <= 0.0 {
        return 0.0;
    }
    table_pages * (1.0 - (-matched_rows / table_pages).exp())
}

/// Cost of sorting `rows` tuples (n log n CPU).
pub fn sort_cost(rows: f64) -> f64 {
    if rows <= 1.0 {
        return 0.0;
    }
    rows * rows.log2() * CPU_TUPLE_COST * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_scan_scales_with_pages() {
        assert!(seq_scan_cost(100.0, 1000.0, 1) > seq_scan_cost(10.0, 1000.0, 1));
        assert!(seq_scan_cost(10.0, 10_000.0, 1) > seq_scan_cost(10.0, 100.0, 1));
    }

    #[test]
    fn index_seek_cheaper_than_scan_for_selective_predicates() {
        // 1M-row table, 10k pages, predicate matches 100 rows on 2 leaf pages.
        let scan = seq_scan_cost(10_000.0, 1_000_000.0, 1);
        let seek = index_seek_cost(2.0, 100.0, 100.0);
        assert!(seek < scan);
    }

    #[test]
    fn full_fetch_can_beat_index_for_unselective_predicates() {
        // Matching half the table: random fetches exceed a scan.
        let scan = seq_scan_cost(1_000.0, 100_000.0, 1);
        let seek = index_seek_cost(500.0, 50_000.0, 50_000.0 / 10.0 * 4.0);
        assert!(seek > scan);
    }

    #[test]
    fn sort_cost_zero_for_tiny_inputs() {
        assert_eq!(sort_cost(0.0), 0.0);
        assert_eq!(sort_cost(1.0), 0.0);
        assert!(sort_cost(1000.0) > 0.0);
    }

    #[test]
    fn hash_join_scales_with_inputs() {
        assert!(hash_join_cost(1e6, 1e6, 1e6) > hash_join_cost(1e3, 1e3, 1e3));
    }
}
