//! The five workloads. Each builds its inputs from the seed, warms up
//! untimed, measures for the given seconds, checks every answer, and
//! returns either every end-to-end metric (tracing off) or every per-layer
//! metric (tracing on).

pub mod advise;
pub mod ingest;
pub mod mixed_rw;
pub mod xpath;

use crate::report::{peak_rss_mb, LayerMetrics, RunResult};
use crate::spec::Workload;
use crate::stats::{percentile, Spread, Timed};
use crate::trace::{Tracer, OP};
use std::path::PathBuf;
use std::time::Instant;

/// Operations whose spans go into the trace file (metrics use them all).
const TRACE_FILE_OPS: u32 = 200;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Where a run may write: trace files and `mixed_rw`'s data directories.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perf/out")
}

/// Run one workload.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let run = Run {
        workload,
        seed,
        seconds,
        traced,
    };
    match workload {
        Workload::Ingest => ingest::run(&run),
        Workload::XpathPoint | Workload::XpathScan => xpath::run(&run),
        Workload::MixedRw => mixed_rw::run(&run),
        Workload::Advise => advise::run(&run),
    }
}

/// The arguments of one run.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Run {
    /// The untimed warm-up that fills caches and finishes lazy set-up.
    pub fn warmup_seconds(&self) -> f64 {
        self.seconds / 10.0
    }

    /// Build the fixture [`SETUP_REPEATS`] times, keep the last, and report
    /// the median build time. The previous fixture is dropped before the
    /// next is built so peak memory is one fixture's.
    pub fn setup<T>(
        &self,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<(T, Spread), String> {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut fixture = None;
        for _ in 0..SETUP_REPEATS {
            drop(fixture.take());
            let start = Instant::now();
            fixture = Some(build()?);
            times.push(start.elapsed().as_secs_f64());
        }
        Ok((fixture.expect("SETUP_REPEATS > 0"), Spread::of(&times)))
    }

    /// Assemble the untraced result.
    #[allow(clippy::too_many_arguments)]
    pub fn end_to_end(
        &self,
        ops_s: Spread,
        latency: &Timed,
        stored_bytes_per_xml_byte: f64,
        setup: Spread,
        attempted: u64,
        failed: u64,
        notes: Vec<String>,
    ) -> RunResult {
        let tail = self.workload.tail_percentile();
        let mut notes = notes;
        notes.push(format!(
            "op_tail_us is p{:.0}; {} timed operations",
            tail * 100.0,
            latency.ops()
        ));
        RunResult {
            workload: self.workload,
            seed: self.seed,
            seconds: self.seconds,
            traced: false,
            attempted,
            failed,
            // In `spec::END_TO_END` order (the smoke test checks it).
            metrics: vec![
                ("ops_s", ops_s),
                ("op_p50_us", latency.percentile_us(0.50)),
                ("op_tail_us", latency.percentile_us(tail)),
                (
                    "stored_bytes_per_xml_byte",
                    Spread::exact(stored_bytes_per_xml_byte),
                ),
                ("peak_rss_mb", Spread::exact(peak_rss_mb())),
                ("setup_s", setup),
            ],
            notes,
        }
    }
}

/// Assemble the traced result: the workload's own per-layer metrics plus
/// the self-time shares and the replay's own speed, and write the trace
/// file `perf/out/trace-<workload>.json`.
pub fn traced_result(
    run: &Run,
    tracer: &Tracer,
    mut layers: LayerMetrics,
    attempted: u64,
    failed: u64,
    mut notes: Vec<String>,
) -> Result<RunResult, String> {
    let shares = tracer.self_shares();
    for metric in crate::spec::PER_LAYER {
        if let Some(layer) = metric.name.strip_prefix("self_share.") {
            layers.set(metric.name, shares.of(layer));
        }
    }
    let ops = tracer.sorted_nanos(OP);
    let op_seconds = ops.iter().sum::<u64>() as f64 / 1e9;
    layers.set("traced.ops_s", ops.len() as f64 / op_seconds.max(1e-9));
    layers.set("traced.op_p50_us", percentile(&ops, 0.5) as f64 / 1e3);

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", run.workload.name()));
    std::fs::write(&path, tracer.to_json(TRACE_FILE_OPS).compact())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    notes.push(format!(
        "{} traced operations, {} spans; first {} operations written to {}",
        ops.len(),
        tracer.spans().len(),
        TRACE_FILE_OPS,
        path.display()
    ));
    Ok(RunResult {
        workload: run.workload,
        seed: run.seed,
        seconds: run.seconds,
        traced: true,
        attempted,
        failed,
        metrics: layers.into_metrics(),
        notes,
    })
}
