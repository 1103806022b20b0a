//! Self-healing reports: what the healing executor and the scrubber found
//! and did.
//!
//! Both reports are pure functions of `(database state, corruption sites,
//! fault seed)` — nothing in them reads clocks, thread counts, or hash-map
//! iteration order — so the heal matrix can diff them bit-for-bit across
//! executor thread counts, exactly like the crash matrix diffs
//! [`crate::recovery::RecoveryReport`].

use crate::error::{CorruptionEvent, RelResult, StructureKind};
use crate::json::report_json;

/// What one healing execution ([`crate::db::Database::execute_healing`])
/// observed and repaired. Registered into metrics as deterministic `heal.*`
/// counters via [`HealReport::metric_counters`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealReport {
    /// Derived structures quarantined after a checksum failure.
    pub quarantined: u64,
    /// Quarantined structures rebuilt from their backing row heaps after
    /// the statement completed.
    pub rebuilt: u64,
    /// Plan attempts made against a reduced (quarantine-filtered)
    /// configuration.
    pub degraded_plans: u64,
    /// Row-heap repairs from snapshot + committed WAL suffix.
    pub heap_repairs: u64,
    /// Execution attempts beyond the first (each preceded by a recorded
    /// backoff delay).
    pub retries: u64,
    /// Total simulated backoff, from the deterministic schedule
    /// [`crate::fault::backoff_nanos`]. Recorded, never slept.
    pub backoff_nanos: u64,
    /// Rebuilds that failed (structure stays quarantined; the statement
    /// itself still succeeded).
    pub rebuild_failures: u64,
    /// Every corruption detected, in detection order.
    pub events: Vec<CorruptionEvent>,
}

impl HealReport {
    /// True when nothing was detected or repaired.
    pub fn is_clean(&self) -> bool {
        self.events.is_empty() && *self == HealReport::default()
    }

    /// The report as `(metric name, value)` pairs under the `heal.` prefix,
    /// all deterministic per `(seed, corruption schedule)`.
    pub fn metric_counters(&self) -> [(&'static str, u64); 7] {
        [
            ("heal.quarantined", self.quarantined),
            ("heal.rebuilt", self.rebuilt),
            ("heal.degraded_plans", self.degraded_plans),
            ("heal.heap_repairs", self.heap_repairs),
            ("heal.retries", self.retries),
            ("heal.backoff_nanos", self.backoff_nanos),
            ("heal.rebuild_failures", self.rebuild_failures),
        ]
    }

    /// Fold another report into this one (the heal matrix accumulates one
    /// report per healed statement).
    pub fn absorb(&mut self, other: &HealReport) {
        self.quarantined += other.quarantined;
        self.rebuilt += other.rebuilt;
        self.degraded_plans += other.degraded_plans;
        self.heap_repairs += other.heap_repairs;
        self.retries += other.retries;
        self.backoff_nanos += other.backoff_nanos;
        self.rebuild_failures += other.rebuild_failures;
        self.events.extend(other.events.iter().cloned());
    }

    /// Render as a stable JSON object: the counters in
    /// [`HealReport::metric_counters`] order plus the event list.
    pub fn to_json(&self) -> String {
        report_json(&self.metric_counters(), Some(("heal.events", &self.events)))
    }
}

/// What an on-demand [`crate::db::Database::scrub`] walk found: every
/// stored checksum verified, every mismatch reported (never raised).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Row heaps verified.
    pub heaps_checked: u64,
    /// Built indexes verified.
    pub indexes_checked: u64,
    /// Materialized views verified.
    pub views_checked: u64,
    /// Checksum mismatches, in catalog/configuration order.
    pub corruptions: Vec<CorruptionEvent>,
}

impl ScrubReport {
    /// Record one verified structure: count it under its kind and keep the
    /// corruption event if its checksums mismatched.
    pub(crate) fn note(&mut self, kind: StructureKind, result: RelResult<()>) {
        *match kind {
            StructureKind::Heap => &mut self.heaps_checked,
            StructureKind::Index => &mut self.indexes_checked,
            StructureKind::View => &mut self.views_checked,
        } += 1;
        if let Some(event) = result.err().as_ref().and_then(CorruptionEvent::from_error) {
            self.corruptions.push(event);
        }
    }

    /// True when every checksum matched.
    pub fn is_clean(&self) -> bool {
        self.corruptions.is_empty()
    }

    /// The report as `(metric name, value)` pairs under the `scrub.` prefix.
    pub fn metric_counters(&self) -> [(&'static str, u64); 4] {
        [
            ("scrub.heaps_checked", self.heaps_checked),
            ("scrub.indexes_checked", self.indexes_checked),
            ("scrub.views_checked", self.views_checked),
            ("scrub.corruptions", self.corruptions.len() as u64),
        ]
    }

    /// Render as a stable JSON object (counter order plus the corruption
    /// list), for CI artifacts.
    pub fn to_json(&self) -> String {
        report_json(
            &self.metric_counters(),
            Some(("scrub.sites", &self.corruptions)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heal_report_json_is_stable_and_complete() {
        let report = HealReport {
            quarantined: 2,
            rebuilt: 2,
            degraded_plans: 3,
            heap_repairs: 1,
            retries: 3,
            backoff_nanos: 4_500_000,
            rebuild_failures: 0,
            events: vec![CorruptionEvent {
                kind: StructureKind::Index,
                table: "t".into(),
                structure: "ix".into(),
                page: 4,
            }],
        };
        let json = report.to_json();
        for (name, value) in report.metric_counters() {
            assert!(
                json.contains(&format!("\"{name}\": {value}")),
                "missing {name} in {json}"
            );
        }
        assert!(json.contains("\"index:t:ix:4\""), "{json}");
        assert_eq!(json, report.to_json());
        assert!(!report.is_clean());
        assert!(HealReport::default().is_clean());
    }

    #[test]
    fn absorb_accumulates_counters_and_events() {
        let mut a = HealReport {
            quarantined: 1,
            events: vec![CorruptionEvent {
                kind: StructureKind::View,
                table: "t".into(),
                structure: "v".into(),
                page: 0,
            }],
            ..HealReport::default()
        };
        let b = HealReport {
            quarantined: 2,
            rebuilt: 1,
            backoff_nanos: 7,
            ..HealReport::default()
        };
        a.absorb(&b);
        assert_eq!(a.quarantined, 3);
        assert_eq!(a.rebuilt, 1);
        assert_eq!(a.backoff_nanos, 7);
        assert_eq!(a.events.len(), 1);
    }

    #[test]
    fn scrub_report_json_lists_sites() {
        let report = ScrubReport {
            heaps_checked: 2,
            indexes_checked: 1,
            views_checked: 1,
            corruptions: vec![CorruptionEvent {
                kind: StructureKind::View,
                table: "w".into(),
                structure: "v_w".into(),
                page: 3,
            }],
        };
        assert!(!report.is_clean());
        let json = report.to_json();
        assert!(json.contains("\"scrub.corruptions\": 1"), "{json}");
        assert!(json.contains("\"view:w:v_w:3\""), "{json}");
        assert!(ScrubReport::default().is_clean());
    }

    /// Structure names are unrestricted, so a site must be escaped like
    /// any other JSON string.
    #[test]
    fn report_json_escapes_structure_names() {
        let event = CorruptionEvent {
            kind: StructureKind::Index,
            table: "t".into(),
            structure: "ix\"q\\".into(),
            page: 4,
        };
        let heal = HealReport {
            events: vec![event.clone()],
            ..HealReport::default()
        };
        let scrub = ScrubReport {
            corruptions: vec![event],
            ..ScrubReport::default()
        };
        let escaped = r#"["index:t:ix\"q\\:4"]"#;
        assert!(heal
            .to_json()
            .ends_with(&format!("\"heal.events\": {escaped}}}")));
        assert!(scrub
            .to_json()
            .ends_with(&format!("\"scrub.sites\": {escaped}}}")));
    }
}
