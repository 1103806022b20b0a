//! The paper's experiments, one module per table/figure group, and the
//! engine's determinism matrices. Each closing `… hash:` line that a
//! contract rests on is pinned once, in the repository's `PINS` file,
//! with the variants (thread counts) that must all print it;
//! [`crate::pins`] checks them (`reproduce pins`).

pub mod ablations;
pub mod adapt;
pub mod claims;
pub mod evaluation;
pub mod exec_parallel;
pub mod faults;
pub mod motivating;
pub mod profile;
pub mod serve;
pub mod soak;
pub mod table1;
pub mod updates;

use crate::harness::{fold, Draw};
use xmlshred_core::{Deadline, SearchOptions};
use xmlshred_rel::ExecOptions;

/// CLI-level knobs for one `reproduce` invocation: the base search options
/// plus the anytime deadline (`--deadline-ms`) and the three knobs every
/// seeded experiment shares (`--seed`, `--points`, `--ops`), each `None`
/// for the running experiment's own default.
///
/// The deadline is intentionally stored as a duration, not a
/// [`Deadline`]: a `Deadline` pins a wall-clock instant, so each strategy
/// run must construct a fresh one (via [`RunOptions::search_for_run`]) to
/// get the full budget.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Threads / plan-cache knobs; its `deadline` field stays inert here
    /// and is filled in per run.
    pub search: SearchOptions,
    /// Anytime budget per strategy run, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// The running experiment's seed (`--seed`). The figure experiments
    /// take it as their draw index (default 0, see [`Draw`]); `claims`
    /// judges draws 0-11 and rejects it. Defaults: `crash`
    /// positions 7; `heal` corruption sites 9; `faults` schedules 1 (a
    /// cell's schedule depends only on its fixture and its seed, so
    /// `--seed S --points 1` reruns the cells of seed `S`); `soak`
    /// wire-fault scripts and backoff schedules 13 (the `soak hash` does
    /// *not* depend on it — chaos must cancel out); `adapt` statement
    /// schedule and drift jitter 5.
    pub seed: Option<u64>,
    /// Consecutive seeds from `seed` per (fixture, kind) in the `crash` /
    /// `heal` matrices and per fixture in `faults` (`--points`; defaults
    /// 4 / 3 / 10, the last sized to about a second of release run; 0 is
    /// treated as 1).
    pub points: Option<usize>,
    /// Operations per client in `soak`, statements in `adapt` (`--ops`;
    /// default derived from the scale). The `adapt` workload shifts at the
    /// midpoint, and the printed `adapt hash` is a pure function of
    /// `(scale, seed, ops)`.
    pub ops: Option<usize>,
    /// Executor knobs (`--exec-threads`): morsel worker threads for query
    /// execution. Results and measured costs are identical for any value;
    /// only wall-clock time changes.
    pub exec: ExecOptions,
    /// Where the `profile` experiment writes its JSON metrics report
    /// (`--metrics-out`); `None` prints the summary table only.
    pub metrics_out: Option<String>,
    /// Directory for the `crash`/`heal`/`faults`/`soak` matrices' per-cell
    /// durable databases and their `recovery-reports.json` /
    /// `heal-reports.json` / `faults-reports.json` / `soak-reports.json`
    /// artifacts (`--data-dir`); `None` uses a temporary directory, removed
    /// when the matrix ends, failed or not.
    pub data_dir: Option<String>,
    /// Print the cell matrix of `crash`, `heal`, `faults` or `soak`
    /// without running any cell (`--list-cells`). Each row comes from the
    /// function the run uses: `crash` lists each cell's crash frame,
    /// `heal` its corruption site, `faults` its schedule, one letter per
    /// event.
    pub list_cells: bool,
}

impl RunOptions {
    /// The base seed and the per-cell seeds of a seeded matrix (`crash`,
    /// `heal`, `faults`): `--seed` / `--points` over the matrix's own
    /// defaults.
    pub(crate) fn matrix_seeds(&self, seed: u64, points: usize) -> (u64, Vec<u64>) {
        let base = self.seed.unwrap_or(seed);
        let points = self.points.unwrap_or(points).max(1) as u64;
        (base, (0..points).map(|i| base.wrapping_add(i)).collect())
    }

    /// Search options for one strategy run, with a freshly started deadline.
    pub fn search_for_run(&self) -> SearchOptions {
        let mut search = self.search.clone();
        if let Some(ms) = self.deadline_ms {
            search.deadline = Deadline::from_millis(ms);
        }
        search
    }
}

/// The paper's figures: Table 1, §1.1, Figs. 4-9 and `updates`, closed by
/// a `figures hash` over their deterministic columns (every measured cost,
/// count and design; no wall-clock column, so Fig. 5 and the speed-ups of
/// Figs. 7-9 stay out). It is identical across `--threads`,
/// `--no-plan-cache` and `--exec-threads`.
fn figures(draw: &Draw, opts: &RunOptions) -> Result<(), String> {
    let search = opts.search_for_run();
    let digests = [
        shown(table1::run(draw))?,
        shown(motivating::run(draw))?.digest(),
        evaluation::digest(&shown(evaluation::run(draw, &search, opts.exec))?),
        ablations::digest(&shown(ablations::fig7(draw, &search))?),
        ablations::digest(&shown(ablations::fig8(draw, &search))?),
        ablations::digest(&shown(ablations::fig9(draw, &search))?),
        shown(updates::run(draw))?,
    ];
    let hash = digests.into_iter().fold(0xf16a_7e5d, fold);
    println!("\nfigures hash: {hash:016x}");
    Ok(())
}

/// Print a figure runner's report and return its deterministic columns:
/// the runners compute their report, and only this module prints it.
fn shown<T>(run: Result<(T, String), String>) -> Result<T, String> {
    let (columns, report) = run?;
    print!("{report}");
    Ok(columns)
}

/// Run an experiment by id. Known ids: `table1`, `motivating`, `fig4`,
/// `fig5`, `fig6` (the three share one evaluation run, so each prints all
/// three), `fig7`, `fig8`, `fig9`, `updates`, `figures` (all of those),
/// `claims` (the paper's claims over draws 0-11, see [`claims`]), `crash`,
/// `heal`, `faults`, `profile`, `exec`, `serve`, `soak`, `adapt`, `all`
/// (`figures`, then the matrices). The figure experiments run on `draw`;
/// the matrices read only its scale, so `--seed` never moves their
/// datasets.
pub fn run(id: &str, draw: &Draw, opts: &RunOptions) -> Result<(), String> {
    let scale = draw.scale;
    let search = opts.search_for_run();
    match id {
        "table1" => shown(table1::run(draw)).map(drop),
        "motivating" => shown(motivating::run(draw)).map(drop),
        "fig4" | "fig5" | "fig6" | "eval" => shown(evaluation::run(draw, &search, opts.exec)).map(drop),
        "fig7" => shown(ablations::fig7(draw, &search)).map(drop),
        "updates" => shown(updates::run(draw)).map(drop),
        "fig8" => shown(ablations::fig8(draw, &search)).map(drop),
        "fig9" => shown(ablations::fig9(draw, &search)).map(drop),
        "figures" => figures(draw, opts),
        "claims" => claims::run(scale, opts),
        "crash" => faults::crash(scale, opts),
        "heal" => faults::heal(scale, opts),
        "faults" => faults::mixed(scale, opts),
        "profile" => profile::run(scale, opts),
        "exec" => exec_parallel::run(scale, opts),
        "serve" => serve::run(scale, opts),
        "soak" => soak::run(scale, opts),
        "adapt" => adapt::run(scale, opts),
        "all" => {
            figures(draw, opts)?;
            faults::crash(scale, opts)?;
            faults::heal(scale, opts)?;
            faults::mixed(scale, opts)?;
            profile::run(scale, opts)?;
            exec_parallel::run(scale, opts)?;
            Ok(())
        }
        other => Err(format!(
            "unknown experiment '{other}'; known: table1 motivating fig4 fig5 fig6 fig7 fig8 fig9 updates figures claims crash heal faults profile exec serve soak adapt all"
        )),
    }
}
