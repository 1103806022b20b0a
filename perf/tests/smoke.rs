//! Every workload at 1/50 of a run's length, traced and untraced: the
//! metric set matches `BENCHMARK.json`, exact-class metrics repeat for a
//! seed, and another seed changes the inputs but fails no operation.

use std::collections::BTreeSet;
use xmlshred_perf::json::Json;
use xmlshred_perf::report::RunResult;
use xmlshred_perf::spec::{benchmark_json, Workload, RUN_SECONDS};
use xmlshred_perf::workloads;

/// 1/50 of a run — a test-only constant, not a CLI knob.
const SMOKE_SECONDS: f64 = RUN_SECONDS as f64 / 50.0;

/// Per-layer metrics that are exact for a seed on every workload that
/// reports them: counts and ratios taken over whole passes or pool cycles.
const EXACT_PER_LAYER: &[&str] = &[
    "xml.dom_elements",
    "shred.rows_per_element",
    "rel.index.built_bytes",
    "translate.union_branches",
    "rel.exec.tuples_per_row_out",
    "rel.exec.measured_cost",
    "rel.session.commit_aborts",
    "rel.server.statements_rejected",
    "rel.server.statement_timeouts",
    "rel.server.protocol_errors",
    "client.retries",
    "core.search.transformations_searched",
    "core.search.derived_share",
    "core.quality.design_cost_ratio",
];

/// The workloads write under `perf/out` relative to the repo root, which is
/// where the benchmark command runs.
fn at_repo_root() {
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
}

fn run(workload: Workload, seed: u64, traced: bool) -> RunResult {
    workloads::run(workload, seed, SMOKE_SECONDS, traced)
        .unwrap_or_else(|e| panic!("{} failed to run: {e}", workload.name()))
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn value(result: &RunResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .1
        .median
}

fn check(workload: Workload) {
    at_repo_root();
    let benchmark = Json::parse(&std::fs::read_to_string("BENCHMARK.json").unwrap()).unwrap();

    for traced in [false, true] {
        let listed = names(
            benchmark
                .get(if traced { "per_layer" } else { "end_to_end" })
                .unwrap(),
        );
        let first = run(workload, 1, traced);
        let again = run(workload, 1, traced);
        for result in [&first, &again] {
            assert_eq!(result.failed, 0, "{} failed operations", workload.name());
            assert!(result.correct() && result.attempted > 0);
            let reported: Vec<&str> = result.metrics.iter().map(|(n, _)| *n).collect();
            assert_eq!(
                reported.iter().collect::<BTreeSet<_>>().len(),
                reported.len(),
                "a metric is reported twice"
            );
            assert_eq!(
                reported,
                listed.iter().map(String::as_str).collect::<Vec<_>>(),
                "{} (traced {traced}) reports exactly what BENCHMARK.json lists",
                workload.name()
            );
            assert!(reported.iter().all(|n| valid_name(n)));
            assert!(result.metrics.iter().all(|(_, s)| s.median.is_finite()));
            // The final line parses and carries exactly the four keys.
            let line = Json::parse(&result.final_line()).unwrap();
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
        if traced {
            for name in EXACT_PER_LAYER {
                // `mixed_rw` reads heaps that grow under it, by a count of
                // commits that depends on the clock.
                if workload == Workload::MixedRw && name.starts_with("rel.exec.") {
                    continue;
                }
                assert_eq!(
                    value(&first, name).to_bits(),
                    value(&again, name).to_bits(),
                    "{name} must repeat exactly for a seed on {}",
                    workload.name()
                );
            }
        } else {
            assert!(
                first.metrics.iter().all(|(_, s)| s.median > 0.0),
                "end-to-end metrics are never 0"
            );
            assert_eq!(
                value(&first, "stored_bytes_per_xml_byte").to_bits(),
                value(&again, "stored_bytes_per_xml_byte").to_bits()
            );
            // Another seed: other inputs (the stored size moves with the
            // generated data), still no failed operation.
            let other = run(workload, 2, false);
            assert_eq!(other.failed, 0);
            assert_ne!(
                value(&first, "stored_bytes_per_xml_byte").to_bits(),
                value(&other, "stored_bytes_per_xml_byte").to_bits(),
                "seed 2 must generate different inputs"
            );
        }
    }
}

#[test]
fn benchmark_json_is_the_spec() {
    at_repo_root();
    // `assert!`, not `assert_eq!`: a mismatch should not print both files.
    assert!(
        std::fs::read_to_string("BENCHMARK.json").unwrap() == benchmark_json().pretty(),
        "BENCHMARK.json is stale; regenerate it with: cargo run --release --offline \
         --manifest-path perf/Cargo.toml -- spec > BENCHMARK.json"
    );
}

#[test]
fn ingest() {
    check(Workload::Ingest);
}

#[test]
fn xpath_point() {
    check(Workload::XpathPoint);
}

#[test]
fn xpath_scan() {
    check(Workload::XpathScan);
}

#[test]
fn mixed_rw() {
    check(Workload::MixedRw);
}

#[test]
fn advise() {
    check(Workload::Advise);
}
