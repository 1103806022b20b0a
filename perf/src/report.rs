//! What one run reports: the metric values with their spread over rounds,
//! the correctness tally, and the machine stamp every result file carries.

use crate::fixture::SCALE;
use crate::json::Json;
use crate::spec::{self, Workload, PER_LAYER};
use crate::stats::Spread;
use std::collections::BTreeMap;

/// The WAL flush policy as the engine has it today; stated in every result
/// file because durability numbers mean nothing without it.
pub const FLUSH_POLICY: &str =
    "WAL append without fsync; fsync at checkpoint (process-kill durability only)";

pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Operations attempted in the timed phase plus verification checks.
    pub attempted: u64,
    /// Of those: errored, timed out, shed past the retry budget, or wrong.
    pub failed: u64,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in `spec` order.
    pub metrics: Vec<(&'static str, Spread)>,
    /// Free-form lines for the human reader (derived numbers, caveats).
    pub notes: Vec<String>,
}

/// Per-layer metrics of one traced run; unset metrics report 0 — the layer
/// was not called in this workload's timed phase.
#[derive(Default)]
pub struct LayerMetrics(BTreeMap<&'static str, Spread>);

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_spread(name, Spread::exact(value));
    }

    pub fn set_spread(&mut self, name: &'static str, value: Spread) {
        assert!(
            spec::per_layer(name).is_some(),
            "per-layer metric {name} is not in spec::PER_LAYER"
        );
        self.0.insert(name, value);
    }

    pub fn into_metrics(self) -> Vec<(&'static str, Spread)> {
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    self.0.get(m.name).copied().unwrap_or(Spread::exact(0.0)),
                )
            })
            .collect()
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| spec::per_layer(name).map(|m| m.unit))
        .unwrap_or("")
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn metrics_json(&self, with_spread: bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, s)| {
                    let mut fields = vec![
                        ("value", Json::Num(s.median)),
                        ("unit", Json::str(unit_of(name))),
                    ];
                    if with_spread {
                        fields.push(("min", Json::Num(s.min)));
                        fields.push(("max", Json::Num(s.max)));
                    }
                    (name.to_string(), Json::obj(fields))
                })
                .collect(),
        )
    }

    /// The last line of standard output: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn final_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ])
        .compact()
    }

    /// The entry of a result file: the final line plus round spreads.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(true)),
        ])
    }

    /// Every metric by name with its unit and min–max over rounds.
    pub fn human(&self) -> String {
        let mut out = format!(
            "workload {} seed {} seconds {} trace {}\n  op: {}\n",
            self.workload.name(),
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.workload.op()
        );
        for (name, s) in &self.metrics {
            let spread = if s.min == s.max {
                String::new()
            } else {
                format!("  [rounds {:.4} .. {:.4}]", s.min, s.max)
            };
            out.push_str(&format!(
                "  {name:<36} {:>16.4} {}{spread}\n",
                s.median,
                unit_of(name)
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out.push_str(&format!(
            "  attempted {} failed {} correct {}\n",
            self.attempted,
            self.failed,
            self.correct()
        ));
        out
    }
}

/// The machine stamp of a result file.
pub fn stamp(seed: u64, seconds: f64, traced: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj(vec![
        ("schema", Json::str("xmlshred-perf-v1")),
        ("nproc", Json::Num(nproc as f64)),
        ("git_revision", Json::str(git_revision())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("scale", Json::Num(SCALE)),
        ("flush_policy", Json::str(FLUSH_POLICY)),
    ])
}

/// HEAD's commit id read from `.git` without spawning a process; the
/// driver's checkout is not a git repository, hence "unknown" there.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head,
        Err(_) => return "unknown".into(),
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

/// Peak resident set size (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
