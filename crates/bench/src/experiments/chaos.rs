//! Chaos harness: sweep what-if fault probabilities × anytime deadlines
//! over small DBLP and Movie fixtures and check the robustness contract on
//! every strategy — the physical tuner alone plus all three searches:
//!
//! * no panic at any fault probability,
//! * a well-formed best-so-far design even under a tight deadline,
//! * bit-identical results per fault seed (checked without a deadline;
//!   wall-clock truncation is inherently timing-dependent),
//! * storage-layer faults (page-read faults, checksum verification, page
//!   budgets) surface as typed errors during execution, never as panics.

use crate::experiments::RunOptions;
use crate::harness::{load_hybrid, render_table, space_budget, workload_spec, BenchScale};
use xmlshred_core::{
    greedy_search, naive_greedy_search_with, quality, tune_with, two_step_search_with, CostOracle,
    Deadline, EvalContext, FaultConfig, GreedyOptions, SearchOptions, TuneOptions,
};
use xmlshred_data::workload::{Projections, Selectivity};
use xmlshred_data::Dataset;
use xmlshred_rel::sql::SqlQuery;
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::source_stats::SourceStats;

/// One strategy's observable result, for validity and determinism checks.
#[derive(Debug, Clone, PartialEq)]
struct ChaosOutcome {
    cost_bits: u64,
    mapping: Mapping,
    degraded: bool,
    candidates_skipped: u64,
    whatif_failures: u64,
    whatif_retries: u64,
}

/// Run the chaos sweep on both fixtures.
pub fn run(scale: BenchScale, opts: &RunOptions) -> Result<(), String> {
    // The sweep runs every strategy (including Naive-Greedy) several times
    // per cell, so the fixtures are deliberately tiny.
    let chaos_scale = BenchScale(scale.0 * 0.02);
    let ps: Vec<f64> = match opts.fault_p {
        Some(p) => vec![p],
        None => vec![0.01, 0.1, 0.5],
    };
    let deadlines: Vec<Option<u64>> = match opts.deadline_ms {
        Some(ms) => vec![Some(ms)],
        None => vec![None, Some(250)],
    };
    let seed = opts.fault_seed();

    println!(
        "\n=== Chaos: fault/deadline sweep (p in {ps:?}, deadline in {deadlines:?}, seed {seed}) ===",
    );

    let spec = |seed| workload_spec(Projections::Low, Selectivity::Low, 4, seed);
    let dblp = chaos_scale.dblp()?;
    let dblp_workload = chaos_scale.workload("dblp", &spec(31))?;
    sweep_dataset(&dblp, &dblp_workload.queries, &ps, &deadlines, seed)?;

    let movie = chaos_scale.movie()?;
    let movie_workload = chaos_scale.workload("movie", &spec(32))?;
    sweep_dataset(&movie, &movie_workload.queries, &ps, &deadlines, seed)?;

    storage_fault_section(&movie, &movie_workload.queries, seed)?;
    Ok(())
}

fn sweep_dataset(
    dataset: &Dataset,
    workload: &[(xmlshred_xpath::ast::Path, f64)],
    ps: &[f64],
    deadlines: &[Option<u64>],
    seed: u64,
) -> Result<(), String> {
    println!("\n--- Chaos sweep on {} ---", dataset.name);
    let source = SourceStats::collect(&dataset.tree, &dataset.document);
    let budget = space_budget(dataset);
    let ctx = EvalContext {
        tree: &dataset.tree,
        source: &source,
        workload,
        space_budget: budget,
    };

    let mut rows = Vec::new();
    for &p in ps {
        let fault = FaultConfig {
            seed,
            p_plan: p,
            ..FaultConfig::default()
        };
        for &deadline_ms in deadlines {
            for strategy in ["Tune", "Greedy", "Naive-Greedy", "Two-Step"] {
                let outcome = run_strategy(&ctx, strategy, fault, deadline_ms)?;
                // Validity: the best-so-far design must always be usable.
                let cost = f64::from_bits(outcome.cost_bits);
                if cost.is_nan() {
                    return Err(format!(
                        "{strategy} at p={p} deadline={deadline_ms:?}: NaN cost"
                    ));
                }
                // Determinism per seed — only without a deadline, where the
                // result is a pure function of (inputs, seed).
                if deadline_ms.is_none() {
                    let again = run_strategy(&ctx, strategy, fault, None)?;
                    if again != outcome {
                        return Err(format!(
                            "{strategy} at p={p} (no deadline): non-deterministic result per seed"
                        ));
                    }
                }
                rows.push(vec![
                    format!("{p}"),
                    deadline_ms
                        .map(|ms| format!("{ms}ms"))
                        .unwrap_or_else(|| "none".into()),
                    strategy.into(),
                    if cost.is_finite() {
                        format!("{cost:.0}")
                    } else {
                        "inf (all candidates faulted)".into()
                    },
                    outcome.degraded.to_string(),
                    outcome.candidates_skipped.to_string(),
                    format!("{}/{}", outcome.whatif_failures, outcome.whatif_retries),
                ]);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "p",
                "deadline",
                "strategy",
                "best-so-far cost",
                "degraded",
                "skipped",
                "failures/retries",
            ],
            &rows,
        )
    );
    Ok(())
}

fn run_strategy(
    ctx: &EvalContext<'_>,
    strategy: &str,
    fault: FaultConfig,
    deadline_ms: Option<u64>,
) -> Result<ChaosOutcome, String> {
    // A fresh deadline per run: each strategy gets the full budget.
    let deadline = deadline_ms.map(Deadline::from_millis).unwrap_or_default();
    if strategy == "Tune" {
        // The physical design tool alone, on the hybrid mapping.
        let mapping = Mapping::hybrid(ctx.tree);
        let prepared = ctx.prepare(&mapping);
        let translated = prepared.translated(ctx.workload);
        let queries: Vec<(&xmlshred_rel::sql::SqlQuery, f64)> =
            translated.iter().map(|(_, q, w)| (*q, *w)).collect();
        let oracle = CostOracle::with_fault(true, Some(fault));
        let result = tune_with(
            &prepared.catalog,
            &prepared.stats,
            &queries,
            &[],
            ctx.space_budget,
            &oracle,
            &TuneOptions {
                threads: 1,
                deadline,
                ..TuneOptions::default()
            },
        );
        let cache = oracle.snapshot();
        return Ok(ChaosOutcome {
            cost_bits: result.total_cost.to_bits(),
            mapping,
            degraded: result.degraded,
            candidates_skipped: result.candidates_skipped,
            whatif_failures: cache.whatif_failures,
            whatif_retries: cache.whatif_retries,
        });
    }
    let search = SearchOptions {
        deadline: deadline.clone(),
        fault: Some(fault),
        ..SearchOptions::default()
    };
    let outcome = match strategy {
        "Greedy" => greedy_search(
            ctx,
            &GreedyOptions {
                deadline,
                fault: Some(fault),
                ..GreedyOptions::default()
            },
        ),
        "Naive-Greedy" => naive_greedy_search_with(ctx, 2, &search),
        "Two-Step" => two_step_search_with(ctx, 3, &search),
        other => return Err(format!("unknown chaos strategy '{other}'")),
    };
    Ok(ChaosOutcome {
        cost_bits: outcome.estimated_cost.to_bits(),
        mapping: outcome.mapping,
        degraded: outcome.degraded,
        candidates_skipped: outcome.stats.candidates_skipped,
        whatif_failures: outcome.stats.whatif_failures,
        whatif_retries: outcome.stats.whatif_retries,
    })
}

/// Storage-layer chaos: load a real database, arm page-read faults, page
/// budgets, and checksum verification, and show that execution degrades to
/// typed errors — never panics — and recovers once the plane is cleared.
fn storage_fault_section(
    dataset: &Dataset,
    workload: &[(xmlshred_xpath::ast::Path, f64)],
    seed: u64,
) -> Result<(), String> {
    println!("\n--- Storage-fault execution on {} ---", dataset.name);
    let (mut db, queries) = load_hybrid(dataset, workload)?;
    let queries: Vec<SqlQuery> = queries.into_iter().map(|(sql, _)| sql).collect();

    let mut rows = Vec::new();
    for p in [0.0, 0.01, 0.1, 0.5] {
        db.set_fault_config(FaultConfig {
            seed,
            p_storage: p,
            ..FaultConfig::default()
        });
        let mut ok = 0usize;
        let mut transient = 0usize;
        for query in &queries {
            match db.execute(query) {
                Ok(_) => ok += 1,
                Err(e) if e.is_transient() => transient += 1,
                Err(e) => return Err(format!("storage chaos at p={p}: unexpected error {e}")),
            }
        }
        let stats = db
            .fault_plane()
            .map(|plane| plane.snapshot())
            .unwrap_or_default();
        rows.push(vec![
            format!("{p}"),
            format!("{ok}/{}", queries.len()),
            transient.to_string(),
            stats.storage_faults.to_string(),
            stats.pages_charged.to_string(),
        ]);
        if p == 0.0 && ok != queries.len() {
            return Err("storage chaos: p=0 must execute everything".into());
        }
    }
    // A tiny page budget: execution must degrade to ResourceExhausted.
    db.set_fault_config(FaultConfig {
        seed,
        budget_pages: Some(1),
        ..FaultConfig::default()
    });
    let denied = queries
        .iter()
        .filter(|q| matches!(db.execute(q), Err(ref e) if !e.is_transient()))
        .count();
    db.clear_fault_config();
    let recovered = queries.iter().all(|q| db.execute(q).is_ok());
    if !recovered {
        return Err("storage chaos: execution must recover after clearing the fault plane".into());
    }
    println!(
        "{}",
        render_table(
            &["p_storage", "ok", "transient errors", "injected", "pages"],
            &rows,
        )
    );
    println!(
        "page budget of 1: {denied}/{} queries denied with ResourceExhausted; all recovered after clearing the plane.",
        queries.len()
    );
    // Quality measurement still works with the plane cleared.
    let report = quality::measure_quality(
        &dataset.tree,
        &dataset.document,
        workload,
        &Mapping::hybrid(&dataset.tree),
        &xmlshred_rel::optimizer::PhysicalConfig::none(),
    );
    println!(
        "fault-free quality check: measured cost {:.0}, {} skipped.",
        report.measured_cost, report.skipped
    );
    Ok(())
}
