//! `xmlshred-perf compare A.json B.json`: apply each end-to-end metric's
//! bound to two result files (A the reference, B the candidate) and print
//! one row per (workload, metric):
//!
//! * `better` / `worse` — B's median is beyond the bound from A's,
//! * `within` — it is not,
//! * `unresolved` — the rounds of either file scatter by more than ±bound
//!   (half their min–max range, as a share of the median), so that file's
//!   median is not known to within the bound and the two cannot tell.
//!
//! Only untraced results are gated; per-layer metrics of traced files are
//! listed with their change and no verdict.

use crate::json::Json;
use crate::spec::{self, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's median over rounds with the rounds' min and max.
pub struct Value {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

fn value(entry: &Json) -> Option<Value> {
    let median = entry.get("value")?.as_f64()?;
    Some(Value {
        median,
        min: entry.get("min").and_then(Json::as_f64).unwrap_or(median),
        max: entry.get("max").and_then(Json::as_f64).unwrap_or(median),
    })
}

impl Value {
    /// How far the rounds scatter around the median: half their range, as
    /// a share of the median.
    fn scatter(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / 2.0 / self.median.abs()
        }
    }
}

/// Judge candidate `b` against reference `a`.
pub fn judge(better: Better, bound: f64, a: &Value, b: &Value) -> Verdict {
    if a.median == 0.0 {
        return if b.median == 0.0 {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    // Positive when B is worse.
    let change = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    if a.scatter() > bound || b.scatter() > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Compare two result files; returns the report and whether B is
/// acceptable (no `worse`, no more failed operations).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads_a = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("reference file has no workloads")?;
    let workloads_b = b
        .get("workloads")
        .ok_or("candidate file has no workloads")?;
    let mut out = format!(
        "{:<12} {:<34} {:>14} {:>14} {:>8}  verdict\n",
        "workload", "metric", "reference", "candidate", "change"
    );
    let mut acceptable = true;
    for (workload, result_a) in workloads_a {
        let Some(result_b) = workloads_b.get(workload) else {
            out.push_str(&format!("{workload:<12} missing from the candidate\n"));
            acceptable = false;
            continue;
        };
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let attempted = |r: &Json| r.get("attempted").and_then(Json::as_f64).unwrap_or(1.0);
        let (share_a, share_b) = (
            failed(result_a) / attempted(result_a).max(1.0),
            failed(result_b) / attempted(result_b).max(1.0),
        );
        if share_b > share_a {
            out.push_str(&format!(
                "{workload:<12} failed_ops_share rose from {share_a} to {share_b}: worse\n"
            ));
            acceptable = false;
        }
        let metrics_a = result_a
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{workload}: no metrics in the reference"))?;
        for (name, entry_a) in metrics_a {
            let Some(va) = value(entry_a) else { continue };
            let Some(vb) = result_b
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(value)
            else {
                out.push_str(&format!(
                    "{workload:<12} {name:<34} missing from the candidate\n"
                ));
                acceptable = false;
                continue;
            };
            let change = if va.median == 0.0 {
                0.0
            } else {
                100.0 * (vb.median - va.median) / va.median.abs()
            };
            let verdict = spec::end_to_end(name).map(|m| judge(m.better, m.bound, &va, &vb));
            if verdict == Some(Verdict::Worse) {
                acceptable = false;
            }
            out.push_str(&format!(
                "{workload:<12} {name:<34} {:>14.4} {:>14.4} {change:>+7.1}%  {}\n",
                va.median,
                vb.median,
                verdict.map_or("(per-layer, not gated)", Verdict::as_str)
            ));
        }
    }
    Ok((out, acceptable))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = |v: f64| Value {
            median: v,
            min: v * 0.99,
            max: v * 1.01,
        };
        let verdict = |better, b: Value| judge(better, 0.1, &steady(100.0), &b);
        assert_eq!(verdict(Better::Lower, steady(105.0)), Verdict::Within);
        assert_eq!(verdict(Better::Lower, steady(115.0)), Verdict::Worse);
        assert_eq!(verdict(Better::Lower, steady(85.0)), Verdict::Better);
        assert_eq!(verdict(Better::Higher, steady(85.0)), Verdict::Worse);
        assert_eq!(verdict(Better::Higher, steady(115.0)), Verdict::Better);
        let noisy = Value {
            median: 115.0,
            min: 90.0,
            max: 130.0,
        };
        assert_eq!(verdict(Better::Lower, noisy), Verdict::Unresolved);
    }
}
