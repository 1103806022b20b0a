//! The paper's experiments, one module per table/figure group.

pub mod ablations;
pub mod adapt;
pub mod chaos;
pub mod crash;
pub mod evaluation;
pub mod exec_parallel;
pub mod heal;
pub mod motivating;
pub mod profile;
pub mod serve;
pub mod soak;
pub mod table1;
pub mod updates;

use crate::harness::BenchScale;
use xmlshred_core::{Deadline, FaultConfig, SearchOptions};
use xmlshred_rel::ExecOptions;

/// CLI-level knobs for one `reproduce` invocation: the base search options
/// plus the robustness sweep parameters (`--fault-p`, `--deadline-ms`) and
/// the three knobs every seeded experiment shares (`--seed`, `--points`,
/// `--ops`), each `None` for the running experiment's own default.
///
/// The deadline is intentionally stored as a duration, not a
/// [`Deadline`]: a `Deadline` pins a wall-clock instant, so each strategy
/// run must construct a fresh one (via [`RunOptions::search_for_run`]) to
/// get the full budget.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Threads / plan-cache knobs; its `deadline` and `fault` fields stay
    /// inert here and are filled in per run.
    pub search: SearchOptions,
    /// Fault-injection probability for what-if planner calls.
    pub fault_p: Option<f64>,
    /// Anytime budget per strategy run, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// The running experiment's seed (`--seed`). Defaults: fault plane of
    /// `chaos` and the evaluation runs 42; `crash` positions 7; `heal`
    /// corruption sites 9; `soak` wire-fault scripts and backoff schedules
    /// 13 (the `soak hash` does *not* depend on it — chaos must cancel
    /// out); `adapt` statement schedule and drift jitter 5.
    pub seed: Option<u64>,
    /// Seeds per (fixture, kind) cell in the `crash` / `heal` matrices
    /// (`--points`; defaults 4 / 3; 0 is treated as 1).
    pub points: Option<usize>,
    /// Operations per client in `soak`, statements in `adapt` (`--ops`;
    /// default derived from the scale). The `adapt` workload shifts at the
    /// midpoint.
    pub ops: Option<usize>,
    /// Executor knobs (`--exec-threads`): morsel worker threads for query
    /// execution. Results and measured costs are identical for any value;
    /// only wall-clock time changes.
    pub exec: ExecOptions,
    /// Where the `profile` experiment writes its JSON metrics report
    /// (`--metrics-out`); `None` prints the summary table only.
    pub metrics_out: Option<String>,
    /// Directory for the `crash`/`heal` matrices' durable databases and
    /// their `recovery-reports.json`/`heal-reports.json` artifacts
    /// (`--data-dir`); `None` uses a temporary directory and cleans up
    /// afterwards.
    pub data_dir: Option<String>,
    /// Print the deterministic cell matrix of the `crash`/`heal`
    /// experiments without running any cell (`--list-cells`).
    pub list_cells: bool,
    /// Extra client count for the `serve` sweep (`--serve-clients`):
    /// appended to the built-in 1/4/8 sweep when not already covered.
    pub serve_clients: Option<usize>,
    /// Statements per drift-check window for the `adapt` scenario
    /// (`--adapt-window`); 0 is treated as the default 64. The printed
    /// `adapt hash` is a pure function of `(scale, seed, ops, window)`.
    pub adapt_window: usize,
}

impl RunOptions {
    /// Seed of the what-if fault plane (`chaos` and the evaluation runs).
    pub fn fault_seed(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// The base seed and the per-cell seeds of a seeded matrix (`crash`,
    /// `heal`): `--seed` / `--points` over the matrix's own defaults.
    pub(crate) fn matrix_seeds(&self, seed: u64, points: usize) -> (u64, Vec<u64>) {
        let base = self.seed.unwrap_or(seed);
        let points = self.points.unwrap_or(points).max(1) as u64;
        (base, (0..points).map(|i| base.wrapping_add(i)).collect())
    }

    /// Search options for one strategy run, with a freshly started deadline
    /// and the fault plane armed from the CLI parameters.
    pub fn search_for_run(&self) -> SearchOptions {
        let mut search = self.search.clone();
        if let Some(ms) = self.deadline_ms {
            search.deadline = Deadline::from_millis(ms);
        }
        if let Some(p) = self.fault_p {
            search.fault = Some(FaultConfig {
                seed: self.fault_seed(),
                p_plan: p,
                ..FaultConfig::default()
            });
        }
        search
    }
}

/// Print the deterministic cell matrix for a seeded sweep experiment
/// without running it: one row per `(fixture, kind, seed)` cell, with a
/// per-cell `site` label supplied by the caller. Shared by the `crash` and
/// `heal` matrices for `--list-cells`.
pub(crate) fn list_cells(
    experiment: &str,
    kinds: &[String],
    seeds: &[u64],
    site: &dyn Fn(&str, usize, u64) -> String,
) {
    let mut rows = Vec::new();
    for fixture in ["dblp", "movie"] {
        for kind in kinds {
            for (idx, &seed) in seeds.iter().enumerate() {
                rows.push(vec![
                    fixture.to_string(),
                    kind.clone(),
                    seed.to_string(),
                    site(kind, idx, seed),
                ]);
            }
        }
    }
    println!(
        "{}",
        crate::harness::render_table(&["fixture", "kind", "seed", "site"], &rows)
    );
    println!("{experiment}: {} cells", rows.len());
}

/// Run an experiment by id. Known ids: `table1`, `motivating`, `fig4`,
/// `fig5`, `fig6` (the three share one evaluation run, so each prints all
/// three), `fig7`, `fig8`, `fig9`, `updates`, `chaos`, `crash`, `heal`,
/// `profile`, `exec`, `serve`, `soak`, `adapt`, `all`.
pub fn run(id: &str, scale: BenchScale, opts: &RunOptions) -> Result<(), String> {
    match id {
        "table1" => table1::run(scale),
        "motivating" => motivating::run(scale),
        "fig4" | "fig5" | "fig6" | "eval" => {
            evaluation::run(scale, &opts.search_for_run(), opts.exec)
        }
        "fig7" => ablations::fig7(scale),
        "updates" => updates::run(scale),
        "fig8" => ablations::fig8(scale),
        "fig9" => ablations::fig9(scale),
        "chaos" => chaos::run(scale, opts),
        "crash" => crash::run(scale, opts),
        "heal" => heal::run(scale, opts),
        "profile" => profile::run(scale, opts),
        "exec" => exec_parallel::run(scale, opts),
        "serve" => serve::run(scale, opts),
        "soak" => soak::run(scale, opts),
        "adapt" => adapt::run(scale, opts),
        "all" => {
            table1::run(scale)?;
            motivating::run(scale)?;
            evaluation::run(scale, &opts.search_for_run(), opts.exec)?;
            ablations::fig7(scale)?;
            ablations::fig8(scale)?;
            ablations::fig9(scale)?;
            updates::run(scale)?;
            chaos::run(scale, opts)?;
            crash::run(scale, opts)?;
            heal::run(scale, opts)?;
            profile::run(scale, opts)?;
            exec_parallel::run(scale, opts)?;
            Ok(())
        }
        other => Err(format!(
            "unknown experiment '{other}'; known: table1 motivating fig4 fig5 fig6 fig7 fig8 fig9 updates chaos crash heal profile exec serve soak adapt all"
        )),
    }
}
