//! `advise`: the advisor itself. One pass is, for Movie and for DBLP,
//! `SourceStats::collect` and then `greedy_search` and `two_step_search`
//! (default options) on each of the four 20-query pools. One operation is
//! one of those calls. No row is executed in the timed phase.
//!
//! Set-up measures, once, what the recommendations are worth: Greedy's
//! design against the tuned hybrid mapping on two pools per dataset
//! (`core.quality.design_cost_ratio`), and records every search's estimated
//! cost; a timed search that returns anything else has failed — an advisor
//! must not get faster by recommending something different.

use super::{traced_result, Run};
use crate::fixture::{pool, source, space_budget, DatasetKind, Pool, Source};
use crate::report::{LayerMetrics, RunResult};
use crate::stats::{Recorder, Timed};
use crate::trace::{call, Scope, Tracer, OP};
use std::time::Instant;
use xmlshred_core::quality::measure_quality_with_tuning;
use xmlshred_core::{
    greedy_search, measure_quality, two_step_search, AdvisorOutcome, EvalContext, GreedyOptions,
    SearchStats,
};
use xmlshred_rel::optimizer::config_fingerprint;
use xmlshred_shred::{Mapping, SourceStats};
use xmlshred_xpath::ast::Path;

/// Rounds Two-Step's logical phase may take (the evaluation harness's).
const TWO_STEP_ROUNDS: usize = 6;
/// The pools Greedy's design is measured on against tuned hybrid.
const QUALITY_POOLS: [Pool; 2] = [Pool::HpLs, Pool::LpHs];

struct Dataset {
    source: Source,
    pools: Vec<Vec<(Path, f64)>>,
    /// Per pool: what Greedy and Two-Step returned in set-up.
    reference: Vec<[Recommendation; 2]>,
}

/// What identifies a recommendation: its estimated cost (bit for bit) and
/// its physical configuration.
#[derive(PartialEq, Clone, Copy)]
struct Recommendation {
    cost_bits: u64,
    config: u64,
    degraded: bool,
}

impl Recommendation {
    fn of(outcome: &AdvisorOutcome) -> Recommendation {
        Recommendation {
            cost_bits: outcome.estimated_cost.to_bits(),
            config: config_fingerprint(&outcome.config),
            degraded: outcome.degraded,
        }
    }
}

struct Fixture {
    datasets: Vec<Dataset>,
    design_cost_ratio: f64,
    stored_bytes_per_xml_byte: f64,
}

fn context<'a>(
    source: &'a Source,
    stats: &'a SourceStats,
    workload: &'a [(Path, f64)],
) -> EvalContext<'a> {
    EvalContext {
        tree: &source.tree,
        source: stats,
        workload,
        space_budget: space_budget(source),
    }
}

fn setup(seed: u64) -> Result<Fixture, String> {
    let mut datasets = Vec::new();
    let mut log_ratio_sum = 0.0;
    let mut cells = 0u32;
    let (mut stored, mut xml_bytes) = (0usize, 0usize);
    for kind in [DatasetKind::Movie, DatasetKind::Dblp] {
        let source = source(kind, seed)?;
        let pools = Pool::ALL
            .iter()
            .map(|p| pool(kind, *p))
            .collect::<Result<Vec<_>, _>>()?;
        let stats = SourceStats::collect(&source.tree, &source.document);
        let mut reference = Vec::new();
        for (which, workload) in Pool::ALL.iter().zip(&pools) {
            let ctx = context(&source, &stats, workload);
            let greedy = greedy_search(&ctx, &GreedyOptions::default());
            let two_step = two_step_search(&ctx, TWO_STEP_ROUNDS);
            reference.push([Recommendation::of(&greedy), Recommendation::of(&two_step)]);
            if QUALITY_POOLS.contains(which) {
                let advised = measure_quality(
                    &source.tree,
                    &source.document,
                    workload,
                    &greedy.mapping,
                    &greedy.config,
                );
                let hybrid = measure_quality_with_tuning(
                    &source.tree,
                    &source.document,
                    workload,
                    &Mapping::hybrid(&source.tree),
                    ctx.space_budget,
                );
                let ratio = advised.measured_cost / hybrid.measured_cost;
                if advised.skipped + hybrid.skipped > 0 || !(ratio.is_finite() && ratio > 0.0) {
                    return Err(format!(
                        "{} {}: quality cell unusable (ratio {ratio}, skipped {} + {})",
                        kind.name(),
                        which.name(),
                        advised.skipped,
                        hybrid.skipped
                    ));
                }
                log_ratio_sum += ratio.ln();
                cells += 1;
                stored += advised.data_bytes + advised.physical_bytes;
                xml_bytes += source.xml.len();
            }
        }
        datasets.push(Dataset {
            source,
            pools,
            reference,
        });
    }
    Ok(Fixture {
        datasets,
        design_cost_ratio: (log_ratio_sum / f64::from(cells)).exp(),
        stored_bytes_per_xml_byte: stored as f64 / xml_bytes as f64,
    })
}

/// Sums of `SearchStats` over the searches of the traced passes.
#[derive(Default)]
struct Searched {
    optimizer_calls: u64,
    transformations: u64,
    costs_derived: u64,
    tool_calls: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

impl Searched {
    fn add(&mut self, stats: &SearchStats) {
        self.optimizer_calls += stats.optimizer_calls;
        self.transformations += stats.transformations_searched;
        self.costs_derived += stats.costs_derived;
        self.tool_calls += stats.physical_tool_calls;
        self.cache_hits += stats.cache_hits;
        self.cache_lookups += stats.cache_hits + stats.cache_misses;
    }
}

/// One pass. `each` sees every operation's start and end and whether it
/// returned the reference recommendation; it returns false to stop early.
fn pass(
    fixture: &Fixture,
    tracer: &mut Option<&mut Tracer>,
    next_op: &mut u32,
    searched: &mut Searched,
    each: &mut dyn FnMut(Instant, Instant, bool) -> bool,
) {
    // One operation: a root span when tracing, timed either way.
    fn op<T>(
        tracer: &mut Option<&mut Tracer>,
        next_op: &mut u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Instant, Instant) {
        let t0 = Instant::now();
        let root = tracer.as_deref_mut().map(|t| t.begin(OP, None, *next_op));
        *next_op += 1;
        let mut scope: Scope<'_> = match (tracer.as_deref_mut(), root) {
            (Some(t), Some(root)) => Some((t, root)),
            _ => None,
        };
        let out = call(&mut scope, name, f);
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.end(root);
        }
        (out, t0, Instant::now())
    }

    for dataset in &fixture.datasets {
        let source = &dataset.source;
        let (stats, t0, t1) = op(tracer, next_op, "core.source_stats.collect", || {
            SourceStats::collect(&source.tree, &source.document)
        });
        if !each(t0, t1, true) {
            return;
        }
        for (workload, reference) in dataset.pools.iter().zip(&dataset.reference) {
            let ctx = context(source, &stats, workload);
            let (greedy, t0, t1) = op(tracer, next_op, "core.search.greedy", || {
                greedy_search(&ctx, &GreedyOptions::default())
            });
            searched.add(&greedy.stats);
            if !each(t0, t1, Recommendation::of(&greedy) == reference[0]) {
                return;
            }
            let (two_step, t0, t1) = op(tracer, next_op, "core.search.twostep", || {
                two_step_search(&ctx, TWO_STEP_ROUNDS)
            });
            searched.add(&two_step.stats);
            if !each(t0, t1, Recommendation::of(&two_step) == reference[1]) {
                return;
            }
        }
    }
}

pub fn run(run: &Run) -> Result<RunResult, String> {
    let (fixture, setup_s) = run.setup(|| setup(run.seed))?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut searched = Searched::default();
    let mut next_op = 0u32;

    // Warm-up: at least one whole pass.
    let warm_until = Instant::now() + std::time::Duration::from_secs_f64(run.warmup_seconds());
    loop {
        pass(
            &fixture,
            &mut None,
            &mut next_op,
            &mut searched,
            &mut |_, _, ok| {
                attempted += 1;
                failed += u64::from(!ok);
                true
            },
        );
        if Instant::now() >= warm_until {
            break;
        }
    }

    if run.traced {
        return traced(run, &fixture, attempted, failed);
    }

    let mut rec = Recorder::new(Instant::now(), run.seconds);
    while !rec.done() {
        pass(
            &fixture,
            &mut None,
            &mut next_op,
            &mut searched,
            &mut |t0, t1, ok| {
                rec.record(t0, t1);
                attempted += 1;
                failed += u64::from(!ok);
                !rec.done()
            },
        );
    }
    let timed = Timed::merge(vec![rec.finish()]);
    let notes = vec![format!(
        "design_cost_ratio {:.6} (Greedy's design / tuned hybrid, measured cost, geometric mean of {} cells)",
        fixture.design_cost_ratio,
        2 * QUALITY_POOLS.len()
    )];
    Ok(run.end_to_end(
        timed.ops_per_s(),
        &timed,
        fixture.stored_bytes_per_xml_byte,
        setup_s,
        attempted,
        failed,
        notes,
    ))
}

fn traced(
    run: &Run,
    fixture: &Fixture,
    mut attempted: u64,
    mut failed: u64,
) -> Result<RunResult, String> {
    let mut tracer = Tracer::new();
    let mut searched = Searched::default();
    let mut next_op = 0u32;
    let mut passes = 0u32;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(run.seconds);
    while passes == 0 || Instant::now() < deadline {
        pass(
            fixture,
            &mut Some(&mut tracer),
            &mut next_op,
            &mut searched,
            &mut |_, _, ok| {
                attempted += 1;
                failed += u64::from(!ok);
                true
            },
        );
        passes += 1;
    }
    let n = f64::from(passes);
    let mut layers = LayerMetrics::default();
    layers.set(
        "core.source_stats.collect_ms",
        tracer.mean_ns("core.source_stats.collect") / 1e6,
    );
    layers.set(
        "core.search.greedy_ms",
        tracer.mean_ns("core.search.greedy") / 1e6,
    );
    layers.set(
        "core.search.twostep_ms",
        tracer.mean_ns("core.search.twostep") / 1e6,
    );
    layers.set(
        "core.search.optimizer_calls",
        searched.optimizer_calls as f64 / n,
    );
    layers.set(
        "core.search.transformations_searched",
        searched.transformations as f64 / n,
    );
    layers.set(
        "core.search.derived_share",
        searched.costs_derived as f64
            / (searched.costs_derived + searched.tool_calls).max(1) as f64,
    );
    layers.set(
        "core.oracle.hit_ratio",
        searched.cache_hits as f64 / searched.cache_lookups.max(1) as f64,
    );
    layers.set("core.quality.design_cost_ratio", fixture.design_cost_ratio);
    let notes = vec![format!("{passes} whole passes traced")];
    traced_result(run, &tracer, layers, attempted, failed, notes)
}
