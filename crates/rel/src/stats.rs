//! Column and table statistics: row counts, distinct counts, and equi-depth
//! histograms, with the selectivity estimation the optimizer uses.
//!
//! The paper (Section 4.1) collects three kinds of statistics on the fully
//! split schema: the range of `ID`, the distribution of `PID`, and the value
//! distribution of every column mapped from a base type. Per-column
//! [`ColumnStats`] covers all three uniformly.

use crate::expr::FilterOp;
use crate::types::Value;

/// Number of buckets in equi-depth histograms.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// One equi-depth histogram bucket: values `v` with `lower < v <= upper`
/// (the first bucket includes its lower bound).
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Inclusive upper boundary.
    pub upper: Value,
    /// Rows in the bucket.
    pub count: u64,
    /// Distinct values in the bucket.
    pub distinct: u64,
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Total rows in the table (including NULLs in this column).
    pub rows: u64,
    /// NULL count.
    pub nulls: u64,
    /// Number of distinct non-null values.
    pub n_distinct: u64,
    /// Minimum non-null value.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Equi-depth histogram over non-null values.
    pub histogram: Vec<Bucket>,
    /// Average width in bytes of non-null values.
    pub avg_width: f64,
}

impl ColumnStats {
    /// Statistics of an empty column.
    pub fn empty() -> Self {
        ColumnStats {
            rows: 0,
            nulls: 0,
            n_distinct: 0,
            min: None,
            max: None,
            histogram: Vec::new(),
            avg_width: 0.0,
        }
    }

    /// Build statistics from a column of values.
    pub fn build(values: impl Iterator<Item = Value>) -> Self {
        let mut non_null: Vec<Value> = Vec::new();
        let mut nulls = 0u64;
        let mut rows = 0u64;
        let mut width_sum = 0usize;
        for v in values {
            rows += 1;
            if v.is_null() {
                nulls += 1;
            } else {
                width_sum += v.width();
                non_null.push(v);
            }
        }
        non_null.sort_unstable();
        Self::from_sorted(rows, nulls, width_sum, &non_null)
    }

    /// Build statistics from a *sorted* non-null value run plus the null
    /// accounting: [`ColumnStats::build`]'s histogram construction.
    fn from_sorted(rows: u64, nulls: u64, width_sum: usize, non_null: &[Value]) -> Self {
        if non_null.is_empty() {
            return ColumnStats {
                rows,
                nulls,
                ..ColumnStats::empty()
            };
        }
        let n = non_null.len();
        let mut n_distinct = 1u64;
        for i in 1..n {
            if non_null[i] != non_null[i - 1] {
                n_distinct += 1;
            }
        }

        let bucket_count = HISTOGRAM_BUCKETS.min(n);
        let per_bucket = n.div_ceil(bucket_count);
        let mut histogram = Vec::with_capacity(bucket_count);
        let mut start = 0usize;
        while start < n {
            let mut end = (start + per_bucket).min(n);
            // Extend so equal values never straddle buckets.
            while end < n && non_null[end] == non_null[end - 1] {
                end += 1;
            }
            let slice = &non_null[start..end];
            let mut distinct = 1u64;
            for i in 1..slice.len() {
                if slice[i] != slice[i - 1] {
                    distinct += 1;
                }
            }
            histogram.push(Bucket {
                upper: slice[slice.len() - 1].clone(),
                count: slice.len() as u64,
                distinct,
            });
            start = end;
        }

        ColumnStats {
            rows,
            nulls,
            n_distinct,
            min: Some(non_null[0].clone()),
            max: Some(non_null[n - 1].clone()),
            histogram,
            avg_width: width_sum as f64 / n as f64,
        }
    }

    /// Rescale to a table of `rows` rows with `non_null` non-null values,
    /// keeping the value distribution's *shape*. This is how merged-schema
    /// statistics are derived from fully-split statistics (Section 4.1)
    /// without touching the data.
    pub fn rescale(&self, non_null: u64, rows: u64) -> ColumnStats {
        let non_null = non_null.min(rows);
        let old_non_null = self.rows - self.nulls;
        if old_non_null == 0 || non_null == 0 {
            return ColumnStats {
                rows,
                nulls: rows,
                ..ColumnStats::empty()
            };
        }
        let factor = non_null as f64 / old_non_null as f64;
        let mut histogram: Vec<Bucket> = self
            .histogram
            .iter()
            .map(|b| Bucket {
                upper: b.upper.clone(),
                count: ((b.count as f64 * factor).round() as u64).max(1),
                distinct: b
                    .distinct
                    .min(((b.count as f64 * factor).round() as u64).max(1)),
            })
            .collect();
        // Reconcile exactly: equi-depth estimation assumes the histogram
        // total equals the non-null count, and every estimator divides by
        // it. Rounding and the >=1 clamp above can drift the total in
        // either direction, so redistribute the difference rather than
        // dumping it on the last bucket (whose own >=1 clamp used to leave
        // the total above `non_null` when scaling far down).
        if !histogram.is_empty() {
            if non_null < histogram.len() as u64 {
                // Fewer values than buckets: keep `non_null` evenly spaced
                // boundaries (always including the last, so `upper` still
                // equals `max`), one value each.
                let len = histogram.len() as u64;
                histogram = (0..non_null)
                    .map(|i| {
                        let idx = ((i + 1) * len / non_null - 1) as usize;
                        Bucket {
                            upper: histogram[idx].upper.clone(),
                            count: 1,
                            distinct: 1,
                        }
                    })
                    .collect();
            } else {
                let total: u64 = histogram.iter().map(|b| b.count).sum();
                if total < non_null {
                    let last = histogram.len() - 1;
                    histogram[last].count += non_null - total;
                } else if total > non_null {
                    // Shave the excess from the tail, keeping every bucket
                    // at >= 1 so boundaries stay meaningful.
                    let mut excess = total - non_null;
                    for bucket in histogram.iter_mut().rev() {
                        if excess == 0 {
                            break;
                        }
                        let take = excess.min(bucket.count - 1);
                        bucket.count -= take;
                        excess -= take;
                    }
                }
            }
            for bucket in &mut histogram {
                bucket.distinct = bucket.distinct.clamp(1, bucket.count);
            }
            debug_assert_eq!(
                histogram.iter().map(|b| b.count).sum::<u64>(),
                non_null,
                "rescaled histogram total must equal the non-null count"
            );
        }
        ColumnStats {
            rows,
            nulls: rows - non_null,
            n_distinct: self.n_distinct.min(non_null),
            min: self.min.clone(),
            max: self.max.clone(),
            histogram,
            avg_width: self.avg_width,
        }
    }

    /// Sum of histogram bucket counts.
    pub fn histogram_total(&self) -> u64 {
        self.histogram.iter().map(|b| b.count).sum()
    }

    /// Internal-consistency check used by the observability layer: `None`
    /// when consistent, `Some(message)` otherwise. A non-empty histogram
    /// must total exactly the non-null count (every selectivity estimator
    /// divides by it), and no bucket may claim more distinct values than it
    /// has rows.
    pub fn consistency_error(&self) -> Option<String> {
        if self.nulls > self.rows {
            return Some(format!("nulls {} > rows {}", self.nulls, self.rows));
        }
        if self.histogram.is_empty() {
            return None;
        }
        let non_null = self.rows - self.nulls;
        let total = self.histogram_total();
        if total != non_null {
            return Some(format!(
                "histogram total {total} != non-null count {non_null}"
            ));
        }
        for (i, bucket) in self.histogram.iter().enumerate() {
            if bucket.distinct > bucket.count {
                return Some(format!(
                    "bucket {i}: distinct {} > count {}",
                    bucket.distinct, bucket.count
                ));
            }
        }
        None
    }

    /// Synthetic statistics for a dense integer key column (`ID` columns):
    /// `rows` distinct values uniform over `[min, max]`.
    pub fn synthetic_uniform_int(rows: u64, min: i64, max: i64) -> ColumnStats {
        if rows == 0 {
            return ColumnStats::empty();
        }
        let bucket_count = (HISTOGRAM_BUCKETS as u64).min(rows) as usize;
        let per_bucket = rows / bucket_count as u64;
        let span = (max - min).max(0) as f64;
        let mut histogram = Vec::with_capacity(bucket_count);
        for i in 0..bucket_count {
            let upper = min + ((i + 1) as f64 / bucket_count as f64 * span) as i64;
            let count = if i == bucket_count - 1 {
                rows - per_bucket * (bucket_count as u64 - 1)
            } else {
                per_bucket
            };
            histogram.push(Bucket {
                upper: Value::Int(upper),
                count,
                distinct: count,
            });
        }
        ColumnStats {
            rows,
            nulls: 0,
            n_distinct: rows,
            min: Some(Value::Int(min)),
            max: Some(Value::Int(max)),
            histogram,
            avg_width: 8.0,
        }
    }

    /// Synthetic statistics for a foreign-key column: `rows` non-null values
    /// over `n_distinct` parents uniform in `[min, max]`.
    pub fn synthetic_fk(rows: u64, n_distinct: u64, min: i64, max: i64) -> ColumnStats {
        let mut stats = ColumnStats::synthetic_uniform_int(rows, min, max);
        let n_distinct = n_distinct.clamp(1, rows.max(1));
        stats.n_distinct = n_distinct;
        let per_value = rows / n_distinct.max(1);
        for bucket in &mut stats.histogram {
            bucket.distinct = (bucket.count / per_value.max(1)).max(1);
        }
        stats
    }

    /// Approximate merge of two columns' statistics (used when shared-type
    /// tables combine instance populations). Histogram detail is kept from
    /// the larger side; counts, bounds, widths combine exactly.
    pub fn merge(&self, other: &ColumnStats) -> ColumnStats {
        if self.rows == 0 {
            return other.clone();
        }
        if other.rows == 0 {
            return self.clone();
        }
        let (big, small) = if self.rows - self.nulls >= other.rows - other.nulls {
            (self, other)
        } else {
            (other, self)
        };
        let rows = self.rows + other.rows;
        let nulls = self.nulls + other.nulls;
        let non_null = rows - nulls;
        let mut merged = big.rescale(non_null, rows);
        merged.n_distinct = (self.n_distinct + other.n_distinct).min(non_null);
        merged.min = match (&self.min, &other.min) {
            (Some(a), Some(b)) => Some(a.clone().min(b.clone())),
            (a, b) => a.clone().or_else(|| b.clone()),
        };
        merged.max = match (&self.max, &other.max) {
            (Some(a), Some(b)) => Some(a.clone().max(b.clone())),
            (a, b) => a.clone().or_else(|| b.clone()),
        };
        let (w1, n1) = (self.avg_width, (self.rows - self.nulls) as f64);
        let (w2, n2) = (other.avg_width, (other.rows - other.nulls) as f64);
        merged.avg_width = if n1 + n2 > 0.0 {
            (w1 * n1 + w2 * n2) / (n1 + n2)
        } else {
            0.0
        };
        let _ = small;
        merged
    }

    /// Fraction of rows that are non-null.
    pub fn fill_fraction(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        (self.rows - self.nulls) as f64 / self.rows as f64
    }

    /// Estimated selectivity (fraction of *all* rows) of `col <op> value`.
    pub fn selectivity(&self, op: FilterOp, value: &Value) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        // NULL tests don't look at the comparison value.
        match op {
            FilterOp::IsNull => return self.nulls as f64 / self.rows as f64,
            FilterOp::IsNotNull => return self.fill_fraction(),
            _ => {}
        }
        if value.is_null() {
            return 0.0; // comparisons with NULL match nothing
        }
        let non_null_frac = self.fill_fraction();
        if non_null_frac == 0.0 {
            return 0.0;
        }
        let eq = self.eq_fraction(value);
        let lt = self.lt_fraction(value);
        let frac = match op {
            FilterOp::Eq => eq,
            FilterOp::Ne => 1.0 - eq,
            FilterOp::Lt => lt,
            FilterOp::Le => lt + eq,
            FilterOp::Gt => 1.0 - lt - eq,
            FilterOp::Ge => 1.0 - lt,
            FilterOp::IsNull | FilterOp::IsNotNull => unreachable!("handled above"),
        };
        (frac.clamp(0.0, 1.0)) * non_null_frac
    }

    /// Fraction of non-null rows equal to `value`.
    fn eq_fraction(&self, value: &Value) -> f64 {
        let non_null = (self.rows - self.nulls) as f64;
        if non_null == 0.0 {
            return 0.0;
        }
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => {
                if value < min || value > max {
                    return 0.0;
                }
            }
            _ => return 0.0,
        }
        if let Some(bucket) = self.bucket_containing(value) {
            let per_value = bucket.count as f64 / bucket.distinct.max(1) as f64;
            (per_value / non_null).min(1.0)
        } else if self.n_distinct > 0 {
            1.0 / self.n_distinct as f64
        } else {
            0.0
        }
    }

    /// Fraction of non-null rows strictly below `value`.
    fn lt_fraction(&self, value: &Value) -> f64 {
        let non_null = (self.rows - self.nulls) as f64;
        if non_null == 0.0 || self.histogram.is_empty() {
            return 0.0;
        }
        if let Some(min) = &self.min {
            if value <= min {
                return 0.0;
            }
        }
        if let Some(max) = &self.max {
            if value > max {
                return 1.0;
            }
        }
        let mut below = 0u64;
        let mut prev_upper: Option<&Value> = None;
        for bucket in &self.histogram {
            if &bucket.upper < value {
                below += bucket.count;
                prev_upper = Some(&bucket.upper);
            } else {
                // Interpolate within this bucket when boundaries are numeric.
                let lower = prev_upper.or(self.min.as_ref());
                let fraction = interpolate(lower, &bucket.upper, value);
                return (below as f64 + fraction * bucket.count as f64) / non_null;
            }
        }
        1.0
    }

    fn bucket_containing(&self, value: &Value) -> Option<&Bucket> {
        self.histogram.iter().find(|b| value <= &b.upper)
    }
}

/// Linear interpolation of `value`'s position between `lower` and `upper`,
/// when both are numeric; 0.5 otherwise.
fn interpolate(lower: Option<&Value>, upper: &Value, value: &Value) -> f64 {
    let (Some(lower), Some(up), Some(v)) = (lower.and_then(as_f64), as_f64(upper), as_f64(value))
    else {
        return 0.5;
    };
    if up <= lower {
        return 0.5;
    }
    ((v - lower) / (up - lower)).clamp(0.0, 1.0)
}

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Int(v) => Some(*v as f64),
        Value::Float(v) => Some(*v),
        _ => None,
    }
}

/// Statistics for one table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    /// Row count.
    pub rows: u64,
    /// Per-column statistics, in catalog column order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Effective row width in bytes: 8-byte header plus, per column, the
    /// average width weighted by its fill fraction (NULLs occupy one byte).
    pub fn effective_row_width(&self) -> f64 {
        8.0 + self
            .columns
            .iter()
            .map(|c| {
                let fill = c.fill_fraction();
                fill * c.avg_width.max(1.0) + (1.0 - fill) * 1.0
            })
            .sum::<f64>()
    }

    /// Pages occupied by the table under the effective width model.
    pub fn pages(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        (self.rows as f64 * self.effective_row_width() / crate::cost::PAGE_SIZE as f64).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(values: &[i64]) -> ColumnStats {
        ColumnStats::build(values.iter().map(|&v| Value::Int(v)))
    }

    #[test]
    fn basic_counts() {
        let stats = ColumnStats::build(
            [Value::Int(1), Value::Null, Value::Int(2), Value::Int(2)].into_iter(),
        );
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.nulls, 1);
        assert_eq!(stats.n_distinct, 2);
        assert_eq!(stats.min, Some(Value::Int(1)));
        assert_eq!(stats.max, Some(Value::Int(2)));
    }

    #[test]
    fn eq_selectivity_uniform() {
        let values: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        let stats = int_col(&values);
        let sel = stats.selectivity(FilterOp::Eq, &Value::Int(42));
        assert!((sel - 0.01).abs() < 0.005, "sel={sel}");
    }

    #[test]
    fn range_selectivity_uniform() {
        let values: Vec<i64> = (0..10_000).collect();
        let stats = int_col(&values);
        let sel = stats.selectivity(FilterOp::Lt, &Value::Int(2_500));
        assert!((sel - 0.25).abs() < 0.02, "sel={sel}");
        let sel = stats.selectivity(FilterOp::Ge, &Value::Int(2_500));
        assert!((sel - 0.75).abs() < 0.02, "sel={sel}");
    }

    #[test]
    fn out_of_range_values() {
        let stats = int_col(&[10, 20, 30]);
        assert_eq!(stats.selectivity(FilterOp::Eq, &Value::Int(99)), 0.0);
        assert_eq!(stats.selectivity(FilterOp::Lt, &Value::Int(5)), 0.0);
        assert_eq!(stats.selectivity(FilterOp::Lt, &Value::Int(99)), 1.0);
    }

    #[test]
    fn null_predicates() {
        let stats = ColumnStats::build(
            [Value::Int(1), Value::Null, Value::Null, Value::Int(2)].into_iter(),
        );
        assert_eq!(stats.selectivity(FilterOp::IsNull, &Value::Null), 0.5);
        assert_eq!(stats.selectivity(FilterOp::IsNotNull, &Value::Null), 0.5);
        // Comparisons against NULL match nothing.
        assert_eq!(stats.selectivity(FilterOp::Eq, &Value::Null), 0.0);
    }

    #[test]
    fn skewed_distribution_eq() {
        // 90% of rows are value 0; histogram should notice.
        let mut values = vec![0i64; 900];
        values.extend(1..=100);
        let stats = int_col(&values);
        let hot = stats.selectivity(FilterOp::Eq, &Value::Int(0));
        let cold = stats.selectivity(FilterOp::Eq, &Value::Int(50));
        assert!(hot > 0.5, "hot={hot}");
        assert!(cold < 0.05, "cold={cold}");
    }

    #[test]
    fn string_histograms_work() {
        let stats = ColumnStats::build(
            ["SIGMOD", "VLDB", "ICDE", "SIGMOD", "SIGMOD"]
                .iter()
                .map(Value::str),
        );
        let sel = stats.selectivity(FilterOp::Eq, &Value::str("SIGMOD"));
        assert!(sel > 0.3);
        assert_eq!(stats.selectivity(FilterOp::Eq, &Value::str("ZZZ")), 0.0);
    }

    #[test]
    fn fill_fraction_and_width() {
        let stats =
            ColumnStats::build([Value::str("abcd"), Value::Null, Value::str("ab")].into_iter());
        assert!((stats.fill_fraction() - 2.0 / 3.0).abs() < 1e-9);
        // widths: 4+4=8 and 4+2=6 -> avg 7
        assert!((stats.avg_width - 7.0).abs() < 1e-9);
    }

    #[test]
    fn table_width_discounts_nulls() {
        let full = TableStats {
            rows: 100,
            columns: vec![ColumnStats::build((0..100).map(Value::Int))],
        };
        let sparse = TableStats {
            rows: 100,
            columns: vec![ColumnStats::build((0..100).map(|i| {
                if i < 10 {
                    Value::Int(i)
                } else {
                    Value::Null
                }
            }))],
        };
        assert!(sparse.effective_row_width() < full.effective_row_width());
    }

    #[test]
    fn empty_column() {
        let stats = ColumnStats::build(std::iter::empty());
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.selectivity(FilterOp::Eq, &Value::Int(1)), 0.0);
    }

    #[test]
    fn histogram_buckets_capped() {
        let stats = int_col(&(0..100_000).collect::<Vec<_>>());
        assert!(stats.histogram.len() <= HISTOGRAM_BUCKETS);
        let total: u64 = stats.histogram.iter().map(|b| b.count).sum();
        assert_eq!(total, 100_000);
    }
}

#[cfg(test)]
mod derive_tests {
    use super::*;

    #[test]
    fn rescale_preserves_shape() {
        let stats = ColumnStats::build((0..1000).map(|i| Value::Int(i % 100)));
        let scaled = stats.rescale(500, 1000);
        assert_eq!(scaled.rows, 1000);
        assert_eq!(scaled.nulls, 500);
        let sel = scaled.selectivity(FilterOp::Eq, &Value::Int(42));
        // Half the rows non-null, uniform over 100 values -> ~0.005.
        assert!((sel - 0.005).abs() < 0.003, "sel={sel}");
    }

    #[test]
    fn rescale_to_zero() {
        let stats = ColumnStats::build((0..100).map(Value::Int));
        let scaled = stats.rescale(0, 50);
        assert_eq!(scaled.nulls, 50);
        assert_eq!(scaled.n_distinct, 0);
    }

    #[test]
    fn rescale_total_matches_non_null_exactly() {
        // Regression: scaling far down used to leave the total above
        // `non_null` — the >=1 clamp fires in every bucket, and the old
        // reconciliation only adjusted the last bucket (itself clamped to
        // >=1), overestimating every selectivity derived from the result.
        let stats = ColumnStats::build((0..10_000).map(Value::Int));
        assert!(stats.histogram.len() > 1);
        for non_null in [1u64, 3, 7, 16, 31, 33, 100, 5_000, 20_000] {
            let rows = non_null + 5;
            let scaled = stats.rescale(non_null, rows);
            assert_eq!(
                scaled.histogram_total(),
                non_null,
                "non_null={non_null}: histogram total must match"
            );
            assert_eq!(scaled.consistency_error(), None, "non_null={non_null}");
            // Boundaries survive: the last bucket still carries the max.
            assert_eq!(
                scaled.histogram.last().map(|b| b.upper.clone()),
                Some(Value::Int(9_999))
            );
        }
    }

    #[test]
    fn rescale_below_bucket_count_keeps_one_value_per_bucket() {
        let stats = ColumnStats::build((0..10_000).map(Value::Int));
        let scaled = stats.rescale(5, 5);
        assert_eq!(scaled.histogram.len(), 5);
        assert!(scaled.histogram.iter().all(|b| b.count == 1));
        assert_eq!(scaled.consistency_error(), None);
    }

    #[test]
    fn consistency_error_flags_inflated_histogram() {
        let mut stats = ColumnStats::build((0..1000).map(Value::Int));
        stats.histogram[0].count += 7; // simulate the old accounting bug
        let err = stats.consistency_error().expect("must be flagged");
        assert!(err.contains("histogram total"), "{err}");
    }

    #[test]
    fn synthetic_uniform_int_selectivity() {
        let stats = ColumnStats::synthetic_uniform_int(10_000, 0, 9_999);
        let sel = stats.selectivity(FilterOp::Lt, &Value::Int(2_500));
        assert!((sel - 0.25).abs() < 0.05, "sel={sel}");
        assert_eq!(stats.n_distinct, 10_000);
    }

    #[test]
    fn synthetic_fk_distinct() {
        let stats = ColumnStats::synthetic_fk(150_000, 50_000, 0, 49_999);
        assert_eq!(stats.n_distinct, 50_000);
        assert_eq!(stats.rows, 150_000);
    }

    #[test]
    fn merge_combines_counts() {
        let a = ColumnStats::build((0..100).map(Value::Int));
        let b = ColumnStats::build((100..300).map(Value::Int));
        let merged = a.merge(&b);
        assert_eq!(merged.rows, 300);
        assert_eq!(merged.min, Some(Value::Int(0)));
        assert_eq!(merged.max, Some(Value::Int(299)));
        assert_eq!(merged.n_distinct, 300);
    }

    #[test]
    fn merge_with_empty() {
        let a = ColumnStats::build((0..10).map(Value::Int));
        let empty = ColumnStats::empty();
        assert_eq!(a.merge(&empty).rows, 10);
        assert_eq!(empty.merge(&a).rows, 10);
    }
}
