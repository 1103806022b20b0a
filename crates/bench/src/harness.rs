//! Shared machinery: scaled datasets, workload suites, algorithm runners,
//! and text-table rendering.

use std::path::{Path, PathBuf};
use std::time::Duration;
use xmlshred_core::quality::{
    measure_quality_with_exec, measure_quality_with_tuning_exec, QualityReport,
};
use xmlshred_core::{
    greedy_search, naive_greedy_search_with, two_step_search_with, AdvisorOutcome, EvalContext,
    GreedyOptions, MetricsRegistry, SearchOptions,
};
use xmlshred_data::dblp::{generate_dblp, DblpConfig};
use xmlshred_data::movie::{generate_movie, MovieConfig};
use xmlshred_data::workload::{dblp_workload, movie_workload, Workload, WorkloadSpec};
use xmlshred_data::Dataset;
use xmlshred_rel::{Database, ExecOptions, ExecStats, Row, SqlQuery, Value};
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::schema::derive_schema;
use xmlshred_shred::shredder::load_database;
use xmlshred_shred::source_stats::SourceStats;
use xmlshred_translate::translate::translate;
use xmlshred_xpath::Path as XPath;

/// One draw of the figure experiments' inputs: the dataset scale (1.0 = the
/// default bench scale, roughly a third of the paper's 100 MB; the figures
/// report ratios, which are scale stable) and the draw index, which moves
/// the generators' seeds. Draw 0 is the generators' default seeds, so it
/// prints the figures as they have always read. Built by [`Draw::new`],
/// which checks the scale.
#[derive(Debug, Clone, Copy)]
pub struct Draw {
    pub(crate) scale: f64,
    pub(crate) index: u64,
}

impl Draw {
    /// Validate the scale: it must be a finite number greater than zero.
    /// NaN, zero and negative values would collapse every dataset to the
    /// floor-50 configs, making "scaled" runs measure nothing.
    pub fn new(scale: f64, index: u64) -> Result<Self, String> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(format!("scale must be a finite number > 0, got {scale}"));
        }
        Ok(Draw { scale, index })
    }

    fn apply(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(50)
    }

    /// The DBLP generator configuration of this draw.
    pub fn dblp_config(&self) -> DblpConfig {
        let default = DblpConfig::default();
        DblpConfig {
            n_inproceedings: self.apply(20_000),
            n_books: self.apply(2_000),
            seed: default.seed + self.index,
            ..default
        }
    }

    /// The Movie generator configuration of this draw.
    pub fn movie_config(&self) -> MovieConfig {
        let default = MovieConfig::default();
        MovieConfig {
            n_movies: self.apply(30_000),
            seed: default.seed + self.index,
            ..default
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

    /// Generate a workload over the `dblp` or `movie` dataset of this draw:
    /// `spec` with `101 * index` added to its seed.
    pub fn workload(&self, dataset: &str, spec: &WorkloadSpec) -> Result<Workload, String> {
        let spec = WorkloadSpec {
            seed: spec.seed + 101 * self.index,
            ..*spec
        };
        match dataset {
            "dblp" => {
                let config = self.dblp_config();
                dblp_workload(&spec, config.years, config.n_conferences)
            }
            _ => {
                let config = self.movie_config();
                movie_workload(&spec, config.years, config.n_genres)
            }
        }
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
    /// Search outcome.
    pub outcome: AdvisorOutcome,
    /// Measured execution quality of the recommendation.
    pub quality: QualityReport,
}

/// The tuned hybrid-inlining baseline that Figs. 4, 8 and 9 normalize against.
pub fn hybrid_baseline(
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

/// Run Greedy, Naive-Greedy and Two-Step, in that order, on one workload.
/// Recommendations are identical for any `search` parallelism/caching knobs
/// and measured costs for any `exec` options; only running time and the
/// cache counters change.
pub fn run_algorithms(
    dataset: &Dataset,
    source: &SourceStats,
    workload: &Workload,
    budget: f64,
    search: &SearchOptions,
    exec: ExecOptions,
) -> [EvalRun; 3] {
    let ctx = EvalContext {
        tree: &dataset.tree,
        source,
        workload: &workload.queries,
        space_budget: budget,
    };
    let greedy = GreedyOptions {
        search: search.clone(),
        ..GreedyOptions::default()
    };
    [
        greedy_search(&ctx, &greedy),
        naive_greedy_search_with(&ctx, 3, search),
        two_step_search_with(&ctx, 6, search),
    ]
    .map(|outcome| {
        let (tree, document, queries) = (&dataset.tree, &dataset.document, &workload.queries);
        let (mapping, config) = (&outcome.mapping, &outcome.config);
        let quality = measure_quality_with_exec(tree, document, queries, mapping, config, exec);
        EvalRun { outcome, quality }
    })
}

// ------------------------------------------------------ matrix scaffolding --

/// `dataset` loaded under the hybrid mapping, plus `paths` translated to
/// SQL with their weights; paths that do not translate are skipped, and
/// none translating is an error.
pub fn load_hybrid(
    dataset: &Dataset,
    paths: &[(XPath, f64)],
) -> Result<(Database, Vec<(SqlQuery, f64)>), String> {
    let mapping = Mapping::hybrid(&dataset.tree);
    let schema = derive_schema(&dataset.tree, &mapping);
    let db = load_database(&dataset.tree, &mapping, &schema, &[&dataset.document])
        .map_err(|e| format!("load failed: {e}"))?;
    let translated = |(path, weight): &(XPath, f64)| {
        let sql = translate(&dataset.tree, &mapping, &schema, path).ok()?.sql;
        Some((sql, *weight))
    };
    let queries: Vec<(SqlQuery, f64)> = paths.iter().filter_map(translated).collect();
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

/// Diff a matrix's query answers against its oracle's: as many answers,
/// rows equal and [`ExecStats`] bit-equal, query by query. The error names
/// the first divergent query; the caller adds its stage prefix.
pub fn check_answers(
    got: &[(Vec<Row>, ExecStats)],
    want: &[(Vec<Row>, ExecStats)],
) -> Result<(), String> {
    let (n, expected) = (got.len(), want.len());
    if n != expected {
        return Err(format!("{n} answers for the oracle's {expected}"));
    }
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
/// (kept, with the reports artifact) or under a per-process temp directory,
/// removed when the `MatrixDir` drops, also when a cell fails.
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
            None => {
                let name = format!("xmlshred-{tag}-{}", std::process::id());
                (std::env::temp_dir().join(name), false)
            }
        };
        std::fs::create_dir_all(&base).map_err(|e| format!("data dir: {e}"))?;
        Ok(MatrixDir { base, keep })
    }
}

impl Drop for MatrixDir {
    fn drop(&mut self) {
        if !self.keep {
            std::fs::remove_dir_all(&self.base).ok();
        }
    }
}

/// The fixed shape of one seeded matrix: its `name` (in the `<name>: N
/// cells` and closing `<name> hash:` lines), temp directory `tag`, starting
/// hash, comma-separated listing and result columns (a result row starts
/// with its listing's first `key_columns`), reports artifact, and the
/// counter the cells record that must total their tallies, with the label
/// of the line printing it.
pub struct MatrixSpec {
    pub name: &'static str,
    pub tag: &'static str,
    pub hash_seed: u64,
    pub key_columns: usize,
    pub list_columns: &'static str,
    pub columns: &'static str,
    pub artifact: &'static str,
    pub metric: (&'static str, &'static str),
}

/// What one cell hands back to [`Matrix::cell`]: its result row after the
/// key columns, its fields in the reports artifact (after its `"cell"`
/// name), and its share of [`MatrixSpec::metric`].
pub struct CellOut {
    pub row: Vec<String>,
    pub report: String,
    pub tally: u64,
}

/// The one driver of the seeded matrices: header, data directory, the
/// per-cell step, the results table, the reports artifact, the metrics
/// agreement check and the closing hash line. Under `--list-cells` it
/// collects each cell's listing row and runs nothing.
pub struct Matrix {
    spec: &'static MatrixSpec,
    dir: Option<MatrixDir>,
    registry: MetricsRegistry,
    hash: u64,
    rows: Vec<Vec<String>>,
    reports: Vec<String>,
    tally: u64,
}

impl Matrix {
    /// Start a matrix: list only, or print `header` and create the data
    /// directory.
    pub fn start(
        spec: &'static MatrixSpec,
        header: &str,
        list: bool,
        data_dir: Option<&str>,
    ) -> Result<Matrix, String> {
        if !list {
            println!("\n=== {header} ===");
        }
        Ok(Matrix {
            spec,
            dir: (!list)
                .then(|| MatrixDir::create(data_dir, spec.tag))
                .transpose()?,
            registry: MetricsRegistry::new(),
            hash: spec.hash_seed,
            rows: Vec::new(),
            reports: Vec::new(),
            tally: 0,
        })
    }

    /// Print a line above the results table (not when listing).
    pub fn note(&self, line: &str) {
        if self.dir.is_some() {
            println!("{line}");
        }
    }

    /// One cell: list its `listing` row, or run it in a fresh directory,
    /// removed afterwards unless kept. `run` records into the registry,
    /// folds its digest into the matrix hash and returns its [`CellOut`].
    pub fn cell(
        &mut self,
        name: &str,
        listing: Vec<String>,
        run: impl FnOnce(&Path, &MetricsRegistry, &mut u64) -> Result<CellOut, String>,
    ) -> Result<(), String> {
        let Some(matrix_dir) = &self.dir else {
            self.rows.push(listing);
            return Ok(());
        };
        let dir = matrix_dir.base.join(format!("cell-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        let out =
            run(&dir, &self.registry, &mut self.hash).map_err(|e| format!("cell {name}: {e}"))?;
        if !matrix_dir.keep {
            std::fs::remove_dir_all(&dir).ok();
        }
        let key = listing.into_iter().take(self.spec.key_columns);
        self.rows.push(key.chain(out.row).collect());
        self.reports
            .push(format!("{{\"cell\": \"{name}\", {}}}", out.report));
        self.tally += out.tally;
        Ok(())
    }

    /// Print the listing, or the results table, the metrics agreement line,
    /// the kept artifact and the closing hash line.
    pub fn finish(self) -> Result<(), String> {
        let (spec, cells, tally) = (self.spec, self.rows.len(), self.tally);
        let columns = if self.dir.is_some() {
            spec.columns
        } else {
            spec.list_columns
        };
        let columns: Vec<&str> = columns.split(", ").collect();
        println!("{}", render_table(&columns, &self.rows));
        let Some(matrix_dir) = &self.dir else {
            println!("{}: {cells} cells", spec.name);
            return Ok(());
        };
        let ((metric, label), report) = (spec.metric, self.registry.snapshot());
        let total = (report.deterministic.get(metric))
            .or(report.schedule.get(metric))
            .map_or(0, |v| *v);
        if total != tally {
            return Err(format!("metrics disagree: {metric} {total} != {tally}"));
        }
        println!("{label} metrics: {metric} {total}, {label} cells {cells}");
        if matrix_dir.keep {
            let path = matrix_dir.base.join(spec.artifact);
            std::fs::write(&path, format!("[{}]", self.reports.join(", ")))
                .map_err(|e| format!("artifact write: {e}"))?;
            println!("reports written to {}", path.display());
        }
        println!("{} hash: {:016x}", spec.name, self.hash);
        Ok(())
    }
}

// ------------------------------------------------------- matrix digests --

/// splitmix64: the same deterministic mixer the rel fault plane uses, local
/// to the harness so the matrices' cell positions are reproducible from the
/// CLI seeds.
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

/// Fold a report's counters in their `metric_counters()` order.
pub fn fold_counters<'a>(hash: u64, counters: impl IntoIterator<Item = (&'a str, u64)>) -> u64 {
    counters
        .into_iter()
        .fold(hash, |h, (_, value)| fold(h, value))
}

/// Fold one SQL value, tagged by type so `Null` and `Int(0)` digest apart.
pub fn fold_value(hash: u64, value: &Value) -> u64 {
    match value {
        Value::Null => fold(hash, 0),
        Value::Int(v) => fold(fold(hash, 1), *v as u64),
        Value::Float(v) => fold(fold(hash, 2), v.to_bits()),
        Value::Str(s) => fold_str(fold(hash, 3), s),
    }
}

/// Fold a string's bytes.
pub fn fold_str(hash: u64, s: &str) -> u64 {
    s.bytes().fold(hash, |h, b| fold(h, u64::from(b)))
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
        let draw = Draw::new(0.0001, 0).unwrap();
        assert_eq!(draw.apply(20_000), 50);
    }

    #[test]
    fn nan_zero_and_negative_scales_rejected() {
        let err = Draw::new(f64::NAN, 0).unwrap_err();
        assert!(err.contains("finite"), "{err}");
        assert!(Draw::new(0.0, 0).is_err());
        assert!(Draw::new(-1.5, 0).is_err());
    }

    #[test]
    fn short_answer_list_fails_the_oracle_diff() {
        // Regression: the diff zipped the two lists, so a run that lost a
        // trailing answer passed.
        let answer = (vec![vec![Value::Int(1)]], ExecStats::default());
        let want = vec![answer.clone(), answer];
        assert!(check_answers(&want, &want).is_ok());
        let err = check_answers(&want[..1], &want).unwrap_err();
        assert!(err.contains("1 answers for the oracle's 2"), "{err}");
        assert!(check_answers(&[], &want).is_err());
    }

    static TEST_SPEC: MatrixSpec = MatrixSpec {
        name: "test matrix",
        tag: "harness-test",
        hash_seed: 0,
        key_columns: 0,
        list_columns: "cell",
        columns: "cell",
        artifact: "test-reports.json",
        metric: ("test.counter", "test"),
    };

    #[test]
    fn failed_cell_leaves_no_temp_dir() {
        // Regression: only a finished matrix removed its temp directory,
        // and a failing cell returns before it finishes.
        let mut matrix = Matrix::start(&TEST_SPEC, "test", false, None).unwrap();
        let mut cell_dir = PathBuf::new();
        let err = matrix.cell("a", vec![], |dir, _, _| {
            std::fs::create_dir_all(dir).unwrap();
            cell_dir = dir.to_path_buf();
            Err("boom".into())
        });
        assert_eq!(err.unwrap_err(), "cell a: boom");
        assert!(cell_dir.exists());
        drop(matrix);
        assert!(cell_dir.parent().is_some_and(|base| !base.exists()));
    }

    #[test]
    fn kept_matrix_dir_survives_drop() {
        let base = std::env::temp_dir().join(format!("xmlshred-kept-{}", std::process::id()));
        std::fs::create_dir_all(base.join("cell-a")).unwrap();
        drop(MatrixDir::create(base.to_str(), "unused").unwrap());
        assert!(base.join("cell-a").exists());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn tiny_end_to_end_run() {
        let draw = Draw::new(0.01, 0).unwrap();
        let dataset = draw.movie().unwrap();
        let source = SourceStats::collect(&dataset.tree, &dataset.document);
        let spec = WorkloadSpec {
            n_queries: 3,
            ..WorkloadSpec::movie_suite()[0]
        };
        let workload = draw.workload("movie", &spec).expect("workload generates");
        let (budget, search) = (space_budget(&dataset), SearchOptions::default());
        let runs = run_algorithms(
            &dataset,
            &source,
            &workload,
            budget,
            &search,
            Default::default(),
        );
        assert!(runs.iter().all(|run| run.quality.skipped == 0));
    }
}
