//! The workspace's hand-rolled JSON writers, side by side: the one string
//! escaper and the two metric-counter object shapes the report types emit.
//! Each shape is pinned byte-for-byte by its report's JSON test, which is
//! why there are two rather than one.

use crate::error::CorruptionEvent;

/// Append `s` to `out` as a JSON string literal. The one escaper of the
/// workspace's hand-rolled JSON writers.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The one-line report object shared by [`crate::heal::HealReport`],
/// [`crate::heal::ScrubReport`] and [`crate::recovery::RecoveryReport`]:
/// the counters in order, then — when given — a named list of corruption
/// sites as `"kind:table:structure:page"` strings, all `", "`-separated.
pub(crate) fn report_json(
    counters: &[(&str, u64)],
    sites: Option<(&str, &[CorruptionEvent])>,
) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_string(&mut out, name);
        out.push_str(&format!(": {value}"));
    }
    if let Some((name, events)) = sites {
        out.push_str(", ");
        push_json_string(&mut out, name);
        out.push_str(": [");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let site = format!("{}:{}:{}:{}", e.kind, e.table, e.structure, e.page);
            push_json_string(&mut out, &site);
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// One compact JSON object of metric counters, keyed by their names with
/// `prefix` stripped, in counter order — the server's stats and drain
/// reports.
pub(crate) fn counters_json(counters: &[(&str, u64)], prefix: &str) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name.trim_start_matches(prefix));
        out.push_str(&format!(":{value}"));
    }
    out.push('}');
    out
}
