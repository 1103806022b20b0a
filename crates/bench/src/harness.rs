//! Shared machinery: scaled datasets, workload suites, algorithm runners,
//! and text-table rendering.

use std::path::{Path, PathBuf};
use std::time::Duration;
use xmlshred_core::quality::{
    measure_quality_with_exec, measure_quality_with_tuning_exec, QualityReport,
};
use xmlshred_core::{
    greedy_search, naive_greedy_search_with, two_step_search_with, AdvisorOutcome, EvalContext,
    GreedyOptions, SearchOptions,
};
use xmlshred_data::dblp::{generate_dblp, DblpConfig};
use xmlshred_data::movie::{generate_movie, MovieConfig};
use xmlshred_data::workload::{
    dblp_workload, movie_workload, Projections, Selectivity, Workload, WorkloadSpec,
};
use xmlshred_data::Dataset;
use xmlshred_rel::{Database, ExecOptions, ExecStats, Row, SqlQuery, Value};
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::schema::derive_schema;
use xmlshred_shred::shredder::load_database;
use xmlshred_shred::source_stats::SourceStats;
use xmlshred_translate::translate::translate;

/// Scale factor for dataset sizes (1.0 = the default bench scale, roughly a
/// third of the paper's 100 MB; the figures report ratios, which are scale
/// stable).
#[derive(Debug, Clone, Copy)]
pub struct BenchScale(pub f64);

impl BenchScale {
    /// Validate a scale factor: it must be a finite number greater than
    /// zero. NaN, zero, and negative values used to slip through
    /// `from_env` and silently collapse every dataset to the floor-50
    /// configs, making "scaled" runs measure nothing.
    pub fn try_new(value: f64) -> Result<Self, String> {
        if !value.is_finite() || value <= 0.0 {
            return Err(format!("scale must be a finite number > 0, got {value}"));
        }
        Ok(BenchScale(value))
    }

    /// Read from the `XMLSHRED_SCALE` environment variable (default 1.0).
    /// An unset variable defaults; a set-but-invalid one (unparsable, NaN,
    /// zero, or negative) is an error, not a silent fallback.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("XMLSHRED_SCALE") {
            Err(_) => Ok(BenchScale(1.0)),
            Ok(raw) => Self::parse(&raw),
        }
    }

    /// Parse a scale string with the same validation as [`BenchScale::try_new`].
    pub fn parse(raw: &str) -> Result<Self, String> {
        let value: f64 = raw
            .trim()
            .parse()
            .map_err(|_| format!("XMLSHRED_SCALE is not a number: {raw:?}"))?;
        Self::try_new(value).map_err(|e| format!("XMLSHRED_SCALE invalid: {e}"))
    }

    fn apply(&self, n: usize) -> usize {
        ((n as f64 * self.0) as usize).max(50)
    }

    /// The DBLP generator configuration at this scale.
    pub fn dblp_config(&self) -> DblpConfig {
        DblpConfig {
            n_inproceedings: self.apply(20_000),
            n_books: self.apply(2_000),
            ..DblpConfig::default()
        }
    }

    /// The Movie generator configuration at this scale.
    pub fn movie_config(&self) -> MovieConfig {
        MovieConfig {
            n_movies: self.apply(30_000),
            ..MovieConfig::default()
        }
    }

    /// Generate the DBLP dataset.
    pub fn dblp(&self) -> Result<Dataset, String> {
        generate_dblp(&self.dblp_config())
    }

    /// Generate the Movie dataset.
    pub fn movie(&self) -> Result<Dataset, String> {
        generate_movie(&self.movie_config())
    }
}

/// The paper's storage bound: data plus physical structures within 3x the
/// data size (Section 1.1 uses 300 MB for 100 MB of data).
pub fn space_budget(dataset: &Dataset) -> f64 {
    3.0 * dataset.approx_bytes() as f64
}

/// One algorithm's run on one workload: search outcome plus measured
/// quality.
pub struct EvalRun {
    /// Algorithm name (`Greedy`, `Naive-Greedy`, `Two-Step`).
    pub algorithm: &'static str,
    /// Search outcome.
    pub outcome: AdvisorOutcome,
    /// Measured execution quality of the recommendation.
    pub quality: QualityReport,
}

/// The hybrid-inlining baseline (tuned), which Fig. 4 normalizes against.
pub fn hybrid_baseline(dataset: &Dataset, workload: &Workload, budget: f64) -> QualityReport {
    hybrid_baseline_exec(dataset, workload, budget, ExecOptions::default())
}

/// [`hybrid_baseline`] with explicit executor options.
pub fn hybrid_baseline_exec(
    dataset: &Dataset,
    workload: &Workload,
    budget: f64,
    exec: ExecOptions,
) -> QualityReport {
    measure_quality_with_tuning_exec(
        &dataset.tree,
        &dataset.document,
        &workload.queries,
        &Mapping::hybrid(&dataset.tree),
        budget,
        exec,
    )
}

/// Which algorithms to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Greedy,
    NaiveGreedy,
    TwoStep,
}

/// Run the selected algorithms on one workload. Recommendations are
/// identical for any `search` parallelism/caching knobs and measured costs
/// for any `exec` options; only running time and the cache counters change.
#[allow(clippy::too_many_arguments)]
pub fn run_algorithms(
    dataset: &Dataset,
    source: &SourceStats,
    workload: &Workload,
    budget: f64,
    algos: &[Algo],
    search: &SearchOptions,
    exec: ExecOptions,
) -> Vec<EvalRun> {
    let ctx = EvalContext {
        tree: &dataset.tree,
        source,
        workload: &workload.queries,
        space_budget: budget,
    };
    algos
        .iter()
        .map(|algo| {
            let (name, outcome): (&'static str, AdvisorOutcome) = match algo {
                Algo::Greedy => (
                    "Greedy",
                    greedy_search(
                        &ctx,
                        &GreedyOptions {
                            threads: search.threads,
                            plan_cache: search.plan_cache,
                            deadline: search.deadline.clone(),
                            fault: search.fault,
                            metrics: search.metrics.clone(),
                            ..GreedyOptions::default()
                        },
                    ),
                ),
                Algo::NaiveGreedy => ("Naive-Greedy", naive_greedy_search_with(&ctx, 3, search)),
                Algo::TwoStep => ("Two-Step", two_step_search_with(&ctx, 6, search)),
            };
            let quality = measure_quality_with_exec(
                &dataset.tree,
                &dataset.document,
                &workload.queries,
                &outcome.mapping,
                &outcome.config,
                exec,
            );
            EvalRun {
                algorithm: name,
                outcome,
                quality,
            }
        })
        .collect()
}

// ------------------------------------------------------ matrix scaffolding --

/// The shared prologue of the crash and heal matrices: the fixture loaded
/// under the hybrid mapping with `exec` installed, plus its four-query
/// low-selectivity workload translated to SQL.
pub fn matrix_fixture(
    dataset: &Dataset,
    scale: BenchScale,
    projections: Projections,
    exec: ExecOptions,
) -> Result<(Database, Vec<SqlQuery>), String> {
    let mapping = Mapping::hybrid(&dataset.tree);
    let schema = derive_schema(&dataset.tree, &mapping);
    let mut db = load_database(&dataset.tree, &mapping, &schema, &[&dataset.document])
        .map_err(|e| format!("load failed: {e}"))?;
    db.set_exec_options(exec);

    let spec = |seed| WorkloadSpec {
        projections,
        selectivity: Selectivity::Low,
        n_queries: 4,
        seed,
    };
    let workload = if dataset.name == "dblp" {
        let config = scale.dblp_config();
        dblp_workload(&spec(31), config.years, config.n_conferences)?
    } else {
        let config = scale.movie_config();
        movie_workload(&spec(32), config.years, config.n_genres)?
    };
    let queries: Vec<SqlQuery> = workload
        .queries
        .iter()
        .filter_map(|(path, _)| translate(&dataset.tree, &mapping, &schema, path).ok())
        .map(|t| t.sql)
        .collect();
    if queries.is_empty() {
        return Err(format!("no translatable {} queries", dataset.name));
    }
    Ok((db, queries))
}

/// Execute every query, keeping what the matrices compare: rows and
/// [`ExecStats`].
pub fn run_queries(
    db: &Database,
    queries: &[SqlQuery],
) -> Result<Vec<(Vec<Row>, ExecStats)>, String> {
    queries
        .iter()
        .map(|q| {
            db.execute(q)
                .map(|outcome| (outcome.rows, outcome.exec))
                .map_err(|e| format!("query failed: {e}"))
        })
        .collect()
}

/// Diff a matrix's query answers against its oracle's: rows equal and
/// [`ExecStats`] bit-equal, query by query. The error names the first
/// divergent query; the caller adds its stage prefix.
pub fn check_answers(
    got: &[(Vec<Row>, ExecStats)],
    want: &[(Vec<Row>, ExecStats)],
) -> Result<(), String> {
    for (i, ((got_rows, g), (want_rows, w))) in got.iter().zip(want).enumerate() {
        if got_rows != want_rows {
            return Err(format!("query {i}: rows differ from oracle"));
        }
        if g.io_cost.to_bits() != w.io_cost.to_bits()
            || g.cpu_cost.to_bits() != w.cpu_cost.to_bits()
            || g.rows_out != w.rows_out
            || g.tuples_processed != w.tuples_processed
        {
            return Err(format!(
                "query {i}: ExecStats differ from oracle ({g:?} vs {w:?})"
            ));
        }
    }
    Ok(())
}

/// Where a matrix keeps its per-cell durable databases: under `--data-dir`
/// (kept, together with a reports artifact) or under a per-process temp
/// directory (removed as the cells finish).
pub struct MatrixDir {
    base: PathBuf,
    keep: bool,
}

impl MatrixDir {
    /// Create the base directory; `tag` names the temp directory when no
    /// `--data-dir` was given.
    pub fn create(data_dir: Option<&str>, tag: &str) -> Result<MatrixDir, String> {
        let (base, keep) = match data_dir {
            Some(dir) => (PathBuf::from(dir), true),
            None => (
                std::env::temp_dir().join(format!("xmlshred-{tag}-{}", std::process::id())),
                false,
            ),
        };
        std::fs::create_dir_all(&base).map_err(|e| format!("data dir: {e}"))?;
        Ok(MatrixDir { base, keep })
    }

    /// The directory of one cell.
    pub fn cell_dir(&self, cell: &str) -> PathBuf {
        self.base.join(format!("cell-{cell}"))
    }

    /// A cell is done with its directory: removed now unless kept.
    pub fn release(&self, cell_dir: &Path) {
        if !self.keep {
            std::fs::remove_dir_all(cell_dir).ok();
        }
    }

    /// Write the per-cell JSON reports as one array under `artifact_name`
    /// when the directory is kept; remove the directory otherwise.
    pub fn finish(self, artifact_name: &str, reports: &[String]) -> Result<(), String> {
        if self.keep {
            let path = self.base.join(artifact_name);
            std::fs::write(&path, format!("[{}]", reports.join(", ")))
                .map_err(|e| format!("artifact write: {e}"))?;
            println!("reports written to {}", path.display());
        } else {
            std::fs::remove_dir_all(&self.base).ok();
        }
        Ok(())
    }
}

// ------------------------------------------------------- matrix digests --

/// splitmix64: the same deterministic mixer the rel fault plane uses, local
/// to the harness so crash and heal matrix cell positions are reproducible
/// from the CLI seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-sensitive fold of `value` into a running digest.
pub fn fold(hash: u64, value: u64) -> u64 {
    mix(hash ^ value.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

/// Fold one SQL value, tagged by type so `Null` and `Int(0)` digest apart.
pub fn fold_value(hash: u64, value: &Value) -> u64 {
    match value {
        Value::Null => fold(hash, 0),
        Value::Int(v) => fold(fold(hash, 1), *v as u64),
        Value::Float(v) => fold(fold(hash, 2), v.to_bits()),
        Value::Str(s) => s.bytes().fold(fold(hash, 3), |h, b| fold(h, u64::from(b))),
    }
}

/// Fold a query answer: every row value plus the thread-invariant
/// [`ExecStats`] observables, so a matrix hash pins bit-identity.
pub fn fold_answer(mut hash: u64, rows: &[Row], stats: &ExecStats) -> u64 {
    hash = fold(hash, rows.len() as u64);
    for row in rows {
        for value in row {
            hash = fold_value(hash, value);
        }
    }
    hash = fold(hash, stats.io_cost.to_bits());
    hash = fold(hash, stats.cpu_cost.to_bits());
    hash = fold(hash, stats.rows_out as u64);
    fold(hash, stats.tuples_processed)
}

// ------------------------------------------------------------- rendering --

/// Render an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            for _ in cell.len()..widths[i] {
                out.push(' ');
            }
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    line(&header_cells, &widths, &mut out);
    // saturating_sub: an empty header slice must render an (empty) table,
    // not underflow the separator width and panic.
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(row, &widths, &mut out);
    }
    out
}

/// Format a duration in human units.
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else {
        format!("{:.1}ms", secs * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["a", "bb"],
            &[
                vec!["xxx".into(), "y".into()],
                vec!["1".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a  "));
    }

    #[test]
    fn empty_headers_render_without_panicking() {
        // Regression: `2 * (widths.len() - 1)` underflowed on an empty
        // header slice.
        let t = render_table(&[], &[]);
        assert_eq!(t, "\n\n");
        let one = render_table(&["only"], &[vec!["x".into()]]);
        assert!(one.contains("----"));
    }

    #[test]
    fn scale_applies_floor() {
        let s = BenchScale(0.0001);
        assert_eq!(s.apply(20_000), 50);
    }

    #[test]
    fn nan_scale_rejected() {
        let err = BenchScale::try_new(f64::NAN).unwrap_err();
        assert!(err.contains("finite"), "{err}");
        assert!(BenchScale::parse("NaN").is_err());
    }

    #[test]
    fn zero_scale_rejected() {
        assert!(BenchScale::try_new(0.0).is_err());
        assert!(BenchScale::parse("0").is_err());
    }

    #[test]
    fn negative_scale_rejected() {
        assert!(BenchScale::try_new(-1.5).is_err());
        assert!(BenchScale::parse("-1.5").is_err());
    }

    #[test]
    fn valid_scale_accepted_and_garbage_rejected() {
        assert_eq!(BenchScale::parse("0.25").unwrap().0, 0.25);
        assert_eq!(BenchScale::parse(" 2 ").unwrap().0, 2.0);
        assert!(BenchScale::parse("lots").is_err());
    }

    #[test]
    fn tiny_end_to_end_run() {
        let scale = BenchScale(0.01);
        let dataset = scale.movie().unwrap();
        let source = SourceStats::collect(&dataset.tree, &dataset.document);
        let workload = xmlshred_data::workload::movie_workload(
            &xmlshred_data::workload::WorkloadSpec {
                projections: xmlshred_data::workload::Projections::Low,
                selectivity: xmlshred_data::workload::Selectivity::Low,
                n_queries: 3,
                seed: 1,
            },
            (1950, 2004),
            25,
        )
        .expect("workload generates");
        let budget = space_budget(&dataset);
        let runs = run_algorithms(
            &dataset,
            &source,
            &workload,
            budget,
            &[Algo::Greedy],
            &SearchOptions::default(),
            ExecOptions::default(),
        );
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].quality.skipped, 0);
    }
}
