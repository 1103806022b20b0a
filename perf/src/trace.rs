//! In-memory span recorder for the traced run. Spans are taken from the
//! benchmark's own files, around calls into each layer's public functions
//! (spans inside the engine are ROADMAP item 4). A layer's self time is its
//! spans' duration minus their child spans' duration.
//!
//! A child is *attributed*, not necessarily nested in time: where a layer
//! can only be reached through its caller (`Database::analyze` inside
//! `load_database`, `SessionDb::execute` inside `Client::query`) the traced
//! run repeats the inner call on the same input right after the outer one
//! and records it as the outer span's child, so subtraction-defined
//! metrics are paired on the same operation.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<function>`; the layer is everything before the last dot.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one benchmark operation share this.
    pub op_id: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.rsplit_once('.').map_or(self.name, |(l, _)| l)
    }
}

/// Name of the per-operation root span; its self time is the harness's.
pub const OP: &str = "harness.op";

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u32) -> SpanId {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.nanos()
    }

    /// Run `f` inside a span that is a child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let op_id = self.spans[parent as usize].op_id;
        let id = self.begin(name, Some(parent), op_id);
        let out = f();
        self.end(id);
        (out, id)
    }

    pub fn nanos(&self, id: SpanId) -> u64 {
        self.spans[id as usize].nanos()
    }

    /// The most recent span with this name.
    pub fn last(&self, name: &str) -> Option<SpanId> {
        self.spans
            .iter()
            .rposition(|s| s.name == name)
            .map(|i| i as SpanId)
    }

    /// Durations of every span with this name, ascending.
    pub fn sorted_nanos(&self, name: &str) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .collect();
        out.sort_unstable();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and count of every span with this name.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.nanos(), n + 1))
    }

    /// Mean duration of the spans with this name (0 when there are none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (ns, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    /// Self time per layer: each span's duration minus its children's,
    /// clamped at zero (an attributed child measured slower than its parent
    /// is timer noise, not negative work).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize] += span.nanos();
            }
        }
        let mut out = BTreeMap::new();
        for (span, child_ns) in self.spans.iter().zip(children) {
            *out.entry(span.layer()).or_insert(0) += span.nanos().saturating_sub(child_ns);
        }
        out
    }

    /// Self time per layer beside the total root-span time it is a share of.
    pub fn self_shares(&self) -> SelfShares {
        SelfShares {
            by_layer: self.self_ns_by_layer(),
            total_ns: self
                .spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(Span::nanos)
                .sum(),
        }
    }

    /// The spans of the first `max_ops` operations, as the trace file.
    pub fn to_json(&self, max_ops: u32) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op_id < max_ops)
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("op_id", Json::Num(f64::from(s.op_id))),
                ])
            })
            .collect();
        let self_ns = self
            .self_ns_by_layer()
            .into_iter()
            .map(|(layer, ns)| (layer.to_string(), Json::Num(ns as f64)))
            .collect();
        Json::obj(vec![
            ("self_ns_by_layer", Json::Obj(self_ns)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

pub struct SelfShares {
    by_layer: BTreeMap<&'static str, u64>,
    total_ns: u64,
}

impl SelfShares {
    /// Share (in percent) of all root-span time that is self time of
    /// `layer` or of its sub-layers (`core` covers `core.search`).
    pub fn of(&self, layer: &str) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        let part: u64 = self
            .by_layer
            .iter()
            .filter(|(l, _)| {
                **l == layer || l.strip_prefix(layer).is_some_and(|r| r.starts_with('.'))
            })
            .map(|(_, ns)| *ns)
            .sum();
        100.0 * part as f64 / self.total_ns as f64
    }
}

/// Where a layer call is recorded when tracing; `None` runs it bare, so the
/// untraced and the traced run share one code path per operation.
pub type Scope<'a> = Option<(&'a mut Tracer, SpanId)>;

pub fn call<T>(scope: &mut Scope<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match scope {
        Some((tracer, parent)) => tracer.span(name, *parent, f).0,
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let op = t.begin(OP, None, 0);
        let (_, a) = t.span("rel.server.query", op, || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        t.end(op);
        // An attributed child of `a`, measured after the operation.
        let b = t.begin("rel.session.execute", Some(a), 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end(b);
        let by_layer = t.self_ns_by_layer();
        assert_eq!(
            by_layer["rel.server"],
            t.nanos(a) - t.nanos(b),
            "server self time excludes the session child"
        );
        assert_eq!(by_layer["rel.session"], t.nanos(b));
        let shares = t.self_shares();
        let all = shares.of("rel") + shares.of("harness");
        assert!((all - 100.0).abs() < 1e-9, "shares add up: {all}");
        assert!(shares.of("rel.server") > shares.of("rel.session"));
    }
}
