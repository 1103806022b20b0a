//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root is
//! `xmlshred-perf spec` written to a file; the smoke test fails when the
//! two drift apart.

use crate::json::Json;

/// Timed seconds of one run (the driver passes this back as `--seconds`).
pub const RUN_SECONDS: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    XpathPoint,
    XpathScan,
    MixedRw,
    Advise,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Ingest,
        Workload::XpathPoint,
        Workload::XpathScan,
        Workload::MixedRw,
        Workload::Advise,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::XpathPoint => "xpath_point",
            Workload::XpathScan => "xpath_scan",
            Workload::MixedRw => "mixed_rw",
            Workload::Advise => "advise",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Ingest => "XML text to first answered XPath (parse, shred, analyze, build indexes): document load is the first cost a user pays; xml, shred, rel.stats and rel.index do the work",
            Workload::XpathPoint => "selective XPath (LP-LS pool) over the wire under Greedy's design: per-statement overhead (parse, translate, plan, lock, round trip) weighs most, per-row work least",
            Workload::XpathScan => "wide unselective XPath (HP-HS pool, thousands of rows per answer) over the wire: per-row executor and codec work dominate, per-statement overhead is under 5 %",
            Workload::MixedRw => "one paced durable writer (inserts, own-write reads, WAL, checkpoints) beside one XPath reader, then 5 restarts: lock waits, overlay reads, checkpoint stalls and recovery show only here",
            Workload::Advise => "the advisor itself (source statistics, Greedy and Two-Step over 4 pools x 2 datasets): core, what-if optimizer and statistics derivation; no row is executed",
        }
    }

    /// What one operation is — the unit of `ops_s` and of `op_*_us`.
    pub fn op(self) -> &'static str {
        match self {
            Workload::Ingest => "one pass: the Movie and the DBLP document each parsed, shredded, indexed and queried once",
            Workload::XpathPoint | Workload::XpathScan => "one XPath text parsed, translated, answered over the wire and verified",
            Workload::MixedRw => "ops_s: write transactions committed per second of writer busy time (the writer is paced at 250 txn/s); op_p50_us/op_tail_us: the concurrent reader's XPath latency",
            Workload::Advise => "one advisor call: SourceStats::collect, greedy_search or two_step_search",
        }
    }

    /// The percentile `op_tail_us` reports: the highest with about ten
    /// samples beyond it in one round at the reference box's speed.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Ingest | Workload::Advise => 0.90,
            Workload::XpathScan => 0.95,
            Workload::XpathPoint | Workload::MixedRw => 0.99,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// Every workload reports every one of these (tracing off).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        what: "operations completed per second, all clients (mixed_rw: per second of writer busy time); median over 5 rounds",
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
        what: "median operation latency (median over rounds of the per-round p50)",
    },
    EndToEnd {
        name: "op_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "tail operation latency: p99 on xpath_point/mixed_rw, p95 on xpath_scan, p90 on ingest/advise (median over rounds)",
    },
    EndToEnd {
        name: "stored_bytes_per_xml_byte",
        unit: "B/B",
        better: Better::Lower,
        bound: 0.10,
        what: "heap + index/view bytes (mixed_rw: + snapshot and WAL files) per byte of XML text loaded; exact for a seed",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        what: "VmHWM of the benchmark process at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "everything before the timed phase (generate, advise, load, apply, oracle answers, server spawn): median of 5 set-ups",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// How it is measured (from outside, around public functions).
    pub measured_as: &'static str,
    /// The end-to-end metric it is predicted to move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    measured_as: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        measured_as,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these (tracing on); a layer a
/// workload's timed phase never calls reports 0.
pub const PER_LAYER: &[PerLayer] = &[
    layer("xml.parse_ns_per_byte", "ns/B", Lower, "parse_element span / input bytes", "ops_s on ingest"),
    layer("xml.dom_elements", "count", Lower, "elements in the parsed documents of one pass (exact)", "ops_s on ingest"),
    layer("shred.load_ns_per_row", "ns", Lower, "(load_database span - repeated analyze span) / rows loaded", "ops_s on ingest"),
    layer("shred.rows_per_element", "ratio", Lower, "rows loaded / DOM elements (exact)", "stored_bytes_per_xml_byte, ops_s on ingest"),
    layer("rel.stats.analyze_ns_per_row", "ns", Lower, "Database::analyze span / rows", "ops_s on ingest"),
    layer("rel.index.build_ns_per_row", "ns", Lower, "apply_config span / rows of the loaded tables", "ops_s on ingest; setup_s everywhere"),
    layer("rel.index.built_bytes", "B", Lower, "Database::built_bytes() after apply_config (exact)", "stored_bytes_per_xml_byte"),
    layer("xpath.parse_ns", "ns", Lower, "parse_path span, mean per query", "op_p50_us on xpath_point"),
    layer("translate.translate_ns", "ns", Lower, "translate span, mean per query", "op_p50_us on xpath_point"),
    layer("translate.union_branches", "count", Lower, "UNION ALL arms per translated query, mean (exact)", "op_p50_us on xpath_point"),
    layer("rel.optimizer.plan_ns", "ns", Lower, "Database::plan span, mean per query", "op_p50_us on xpath_point; ops_s on advise via what-if calls"),
    layer("rel.exec.execute_ns", "ns", Lower, "Database::execute_plan span, mean per query", "ops_s and op_p50_us on xpath_scan"),
    layer("rel.exec.tuples_per_row_out", "ratio", Lower, "ExecStats tuples_processed / rows_out over the pool (exact)", "ops_s on xpath_scan"),
    layer("rel.exec.measured_cost", "cost", Lower, "ExecStats::measured_cost, mean per query (exact)", "ops_s on xpath_scan"),
    layer("rel.session.snapshot_overhead_ns", "ns", Lower, "SessionDb::execute span - (plan + execute_plan) spans, same query", "op_p50_us on xpath_point, mixed_rw"),
    layer("rel.session.commit_ns", "ns", Lower, "Transaction::commit span (library path), mean", "ops_s on mixed_rw"),
    layer("rel.session.commit_p50_us", "us", Lower, "Client::commit latency beside the reader, median", "ops_s on mixed_rw"),
    layer("rel.session.commit_p99_us", "us", Lower, "Client::commit latency beside the reader, p99", "ops_s, op_tail_us on mixed_rw"),
    layer("rel.session.overlay_penalty_ratio", "ratio", Lower, "in-transaction query span with pending writes / same query with none (base: the latter)", "ops_s on mixed_rw"),
    layer("rel.session.commit_aborts", "count", Lower, "WriteConflict errors seen by the writer", "ops_s on mixed_rw"),
    layer("rel.session.reader_wait_ratio", "ratio", Lower, "reader p50 beside the writer / reader p50 alone, same server (base: alone)", "op_p50_us, op_tail_us on mixed_rw"),
    layer("rel.server.wire_overhead_ns", "ns", Lower, "Client::query span - SessionDb::execute span, one client on loopback, same query", "op_p50_us on xpath_point"),
    layer("rel.server.wire_ns_per_row", "ns", Lower, "the same / rows returned", "ops_s on xpath_scan"),
    layer("rel.server.statements_rejected", "count", Lower, "Server::stats()", "failed operations"),
    layer("rel.server.statement_timeouts", "count", Lower, "Server::stats()", "failed operations"),
    layer("rel.server.protocol_errors", "count", Lower, "Server::stats()", "failed operations"),
    layer("client.retries", "count", Lower, "Client::retry_stats()", "failed operations"),
    layer("rel.wal.bytes_per_user_byte", "B/B", Lower, "WalStats bytes delta / data_bytes delta over the write transactions", "ops_s on mixed_rw; rel.recovery.restart_ms"),
    layer("rel.wal.frames_per_commit", "count", Lower, "WalStats frames delta / commits (exact)", "ops_s on mixed_rw"),
    layer("rel.db.checkpoint_ms", "ms", Lower, "SessionDb::checkpoint span, median", "op_tail_us on mixed_rw (foreground stall)"),
    layer("rel.db.checkpoints", "count", Lower, "checkpoints taken in the traced phase", "op_tail_us on mixed_rw"),
    layer("rel.recovery.restart_ms", "ms", Lower, "open_durable to first pool query answered, median of 5 copies of the data dir", "what a user waits for after a crash (mixed_rw)"),
    layer("rel.recovery.open_ms_per_mb", "ms/MB", Lower, "open_durable span / MB of snapshot + WAL read, median", "rel.recovery.restart_ms"),
    layer("rel.recovery.frames_replayed", "count", Lower, "RecoveryReport", "rel.recovery.restart_ms"),
    layer("core.source_stats.collect_ms", "ms", Lower, "SourceStats::collect span, mean", "ops_s on advise; setup_s everywhere"),
    layer("core.search.greedy_ms", "ms", Lower, "greedy_search span, mean over pools", "ops_s, op_tail_us on advise"),
    layer("core.search.twostep_ms", "ms", Lower, "two_step_search span, mean over pools", "ops_s, op_tail_us on advise"),
    layer("core.search.optimizer_calls", "count", Lower, "SearchStats, per pass (schedule-class: varies with thread interleaving)", "ops_s on advise"),
    layer("core.search.transformations_searched", "count", Lower, "SearchStats, per pass (exact)", "ops_s on advise"),
    layer("core.search.derived_share", "ratio", Higher, "costs_derived / (costs_derived + physical_tool_calls)", "ops_s on advise"),
    layer("core.oracle.hit_ratio", "ratio", Higher, "cache_hits / lookups (schedule-class)", "ops_s on advise"),
    layer("core.quality.design_cost_ratio", "ratio", Lower, "geometric mean over 4 cells of measured cost under Greedy's design / under tuned hybrid (exact)", "guards ops_s on advise: an advisor must not get faster by recommending worse"),
    layer("self_share.xml", "%", Lower, "self time of the xml spans (parse_element, dropping the DOM) / traced operation time", "ops_s on ingest (with shred, rel.stats, rel.index: expected >= 80 together)"),
    layer("self_share.shred", "%", Lower, "self time of load_database minus the attributed analyze", "ops_s on ingest"),
    layer("self_share.rel.stats", "%", Lower, "self time of Database::analyze", "ops_s on ingest"),
    layer("self_share.rel.index", "%", Lower, "self time of apply_config", "ops_s on ingest"),
    layer("self_share.xpath", "%", Lower, "self time of parse_path", "op_p50_us on xpath_point"),
    layer("self_share.translate", "%", Lower, "self time of translate", "op_p50_us on xpath_point"),
    layer("self_share.rel.optimizer", "%", Lower, "self time of Database::plan", "op_p50_us on xpath_point"),
    layer("self_share.rel.exec", "%", Lower, "self time of Database::execute_plan", "ops_s on xpath_scan; expected <= 40 on xpath_point"),
    layer("self_share.rel.session", "%", Lower, "SessionDb/Transaction spans minus their attributed plan and execute children", "op_p50_us on xpath_point, ops_s on mixed_rw"),
    layer("self_share.rel.server", "%", Lower, "Client::query span minus the attributed SessionDb::execute: codec, socket, thread hand-off", "op_p50_us on xpath_point; ops_s on xpath_scan (per-row codec)"),
    layer("self_share.rel.db", "%", Lower, "self time of SessionDb::checkpoint", "op_tail_us on mixed_rw"),
    layer("self_share.rel.recovery", "%", Lower, "self time of Database::open_durable", "rel.recovery.restart_ms"),
    layer("self_share.core", "%", Lower, "self time of SourceStats::collect, greedy_search, two_step_search", "ops_s on advise (expected >= 80)"),
    layer("self_share.harness", "%", Lower, "traced operation time not inside any layer span (checks, bookkeeping)", "none: the benchmark's own cost"),
    layer("traced.ops_s", "1/s", Higher, "operations per second of the traced, single-threaded replay", "vs ops_s: the tracing overhead"),
    layer("traced.op_p50_us", "us", Lower, "median traced operation span", "vs op_p50_us: the tracing overhead"),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            Json::obj(vec![
                ("name", Json::str(w.name())),
                ("why", Json::str(w.why())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("perf")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

/// The workload and metric tables of `perf/README.md`, so the README's
/// copy is pasted from here rather than kept by hand.
pub fn markdown() -> String {
    let mut out = String::from("| workload | one operation | why it exists |\n|---|---|---|\n");
    for w in Workload::ALL {
        out.push_str(&format!("| `{}` | {} | {} |\n", w.name(), w.op(), w.why()));
    }
    out.push_str("\n| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        ));
    }
    out.push_str("\n| per-layer metric | unit | measured as | should move |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.measured_as, m.moves
        ));
    }
    out
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = end_to_end("setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().pretty().len() < 64 * 1024);
    }
}
