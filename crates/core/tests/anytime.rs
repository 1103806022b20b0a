//! The advisor's anytime contract, as a property over seeded workloads:
//! the physical design tool alone and the three searches (Greedy,
//! Naive-Greedy, Two-Step), each under an expired deadline, a small one
//! and none.
//!
//! * Every run returns a well-formed design: a cost that is not NaN, a
//!   mapping the schema derivation accepts, and a configuration whose
//!   structures name real tables and columns and fit the space budget.
//! * `degraded` is set exactly when the deadline hit: always under an
//!   expired deadline, never without one, and only once the deadline has
//!   passed.
//! * Without a deadline the design is a pure function of the inputs: runs
//!   at 1 and 4 threads are bit-identical.

use proptest::prelude::*;
use xmlshred_core::{
    greedy_search, naive_greedy_search_with, tune_with, two_step_search_with, CostOracle, Deadline,
    EvalContext, GreedyOptions, SearchOptions, TuneOptions,
};
use xmlshred_data::movie::{generate_movie, MovieConfig};
use xmlshred_data::workload::{movie_workload, Projections, Selectivity, WorkloadSpec};
use xmlshred_rel::optimizer::{config_bytes, PhysicalConfig};
use xmlshred_rel::view::ViewSide;
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::source_stats::SourceStats;

const STRATEGIES: [&str; 4] = ["Tune", "Greedy", "Naive-Greedy", "Two-Step"];

/// What one strategy run recommends, and whether it says it was cut short.
struct Design {
    mapping: Mapping,
    config: PhysicalConfig,
    cost: f64,
    degraded: bool,
    deadline_hit: bool,
}

fn run(ctx: &EvalContext<'_>, strategy: &str, deadline: &Deadline, threads: usize) -> Design {
    let search = SearchOptions {
        threads,
        deadline: deadline.clone(),
        ..SearchOptions::default()
    };
    let outcome = match strategy {
        "Tune" => {
            // The physical design tool alone, on the hybrid mapping. Its
            // `degraded` flag is its deadline-hit flag.
            let mapping = Mapping::hybrid(ctx.tree);
            let prepared = ctx.prepare(&mapping);
            let translated = prepared.translated(ctx.workload);
            let queries: Vec<_> = translated.iter().map(|(_, q, w)| (*q, *w)).collect();
            let options = TuneOptions {
                threads,
                deadline: deadline.clone(),
                ..TuneOptions::default()
            };
            let oracle = CostOracle::new(true);
            let budget = ctx.space_budget;
            let result = tune_with(
                &prepared.catalog,
                &prepared.stats,
                &queries,
                &[],
                budget,
                &oracle,
                &options,
            );
            return Design {
                mapping,
                config: result.config,
                cost: result.total_cost,
                degraded: result.degraded,
                deadline_hit: result.degraded,
            };
        }
        "Greedy" => greedy_search(
            ctx,
            &GreedyOptions {
                search: search.clone(),
                ..GreedyOptions::default()
            },
        ),
        "Naive-Greedy" => naive_greedy_search_with(ctx, 2, &search),
        _ => two_step_search_with(ctx, 3, &search),
    };
    Design {
        mapping: outcome.mapping,
        config: outcome.config,
        cost: outcome.estimated_cost,
        degraded: outcome.degraded,
        deadline_hit: outcome.stats.deadline_hit,
    }
}

/// Why `design` is not a usable recommendation, if it is not.
fn malformed(ctx: &EvalContext<'_>, design: &Design) -> Option<String> {
    if design.cost.is_nan() {
        return Some("NaN cost".into());
    }
    let prepared = ctx.prepare(&design.mapping);
    let columns = |table| {
        prepared
            .catalog
            .try_table(table)
            .map(|def| def.columns.len())
    };
    for index in &design.config.indexes {
        let Ok(width) = columns(index.table) else {
            return Some(format!("index {} on a missing table", index.name));
        };
        let mut used = index.key_columns.iter().chain(&index.include_columns);
        if used.any(|&c| c >= width) {
            return Some(format!("index {} names a missing column", index.name));
        }
    }
    for view in &design.config.views {
        let (Ok(left), Ok(right)) = (columns(view.left), columns(view.right)) else {
            return Some(format!("view {} joins a missing table", view.name));
        };
        let width = |side| if side == ViewSide::Left { left } else { right };
        let outputs = view.outputs.iter().any(|&(side, c)| c >= width(side));
        if view.left_col >= left || view.right_col >= right || outputs {
            return Some(format!("view {} names a missing column", view.name));
        }
    }
    let bytes = config_bytes(&prepared.catalog, &prepared.stats, &design.config);
    (bytes > ctx.space_budget).then(|| format!("{bytes} bytes over the budget"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn every_strategy_returns_a_well_formed_best_so_far_design(
        seed in 0u64..1_000,
        small_ms in 1u64..40,
        high_projections in proptest::bool::ANY,
        high_selectivity in proptest::bool::ANY,
    ) {
        let config = MovieConfig { n_movies: 300, ..MovieConfig::default() };
        let dataset = generate_movie(&config).expect("dataset generates");
        let source = SourceStats::collect(&dataset.tree, &dataset.document);
        let spec = WorkloadSpec {
            projections: if high_projections { Projections::High } else { Projections::Low },
            selectivity: if high_selectivity { Selectivity::High } else { Selectivity::Low },
            n_queries: 4,
            seed,
        };
        let workload = movie_workload(&spec, config.years, config.n_genres)
            .expect("workload generates")
            .queries;
        let ctx = EvalContext {
            tree: &dataset.tree,
            source: &source,
            workload: &workload,
            space_budget: 3.0 * dataset.approx_bytes() as f64,
        };
        for strategy in STRATEGIES {
            for (label, deadline) in [
                ("expired", Deadline::from_millis(0)),
                ("small", Deadline::from_millis(small_ms)),
                ("none", Deadline::none()),
            ] {
                let design = run(&ctx, strategy, &deadline, 0);
                let at = format!("{strategy} under the {label} deadline (seed {seed})");
                let problem = malformed(&ctx, &design);
                prop_assert!(problem.is_none(), "{at}: {problem:?}");
                prop_assert_eq!(design.degraded, design.deadline_hit, "{}: degraded", at);
                let early = design.degraded && !deadline.expired();
                prop_assert!(!early, "{at}: degraded before expiry");
                match label {
                    "expired" => prop_assert!(design.degraded, "{at}: not degraded"),
                    "none" => prop_assert!(!design.degraded, "{at}: degraded"),
                    _ => {}
                }
            }
            let one = run(&ctx, strategy, &Deadline::none(), 1);
            let four = run(&ctx, strategy, &Deadline::none(), 4);
            let at = format!("{strategy} at 1 vs 4 threads (seed {seed})");
            prop_assert!(one.mapping == four.mapping, "{at}: mapping differs");
            prop_assert_eq!(&one.config, &four.config, "{}: configuration differs", at);
            prop_assert_eq!(one.cost.to_bits(), four.cost.to_bits(), "{}: cost differs", at);
        }
    }
}
