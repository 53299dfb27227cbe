//! The traced run's spans. The harness opens one span around each call
//! it makes into the program (`serve.query`, `serve.apply`, `core.*`),
//! grafts the program's own public span tree underneath where there is
//! one (`query` → `s<i>/execute` legs → `index.query` → `store/*`),
//! keeps everything in memory, and writes it out once at the end in the
//! Chrome trace-event format. Counts ride on the same spans.

use mobidx_obs::{OpenSpan, Span};
use std::collections::BTreeMap;
use std::time::Instant;

/// In-memory span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_op: u64,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A recorder whose time base is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_op: 0,
            spans: Vec::new(),
        }
    }

    /// The time base every span of the run measures from.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens the root span of one client call; spans of one call share
    /// its `op` attribute.
    pub fn begin_call(&mut self, name: &str) -> OpenSpan {
        let mut span = OpenSpan::begin(name, self.epoch);
        span.set_attr("op", self.next_op);
        span.set_attr("lane", 0u64);
        span.set_attr("lane_name", "client");
        self.next_op += 1;
        span
    }

    /// Opens a span on a lane of its own (the peeled per-shard replay).
    pub fn begin_on_lane(&mut self, name: &str, lane: u64, lane_name: &str) -> OpenSpan {
        let mut span = self.begin_call(name);
        span.set_attr("lane", lane);
        span.set_attr("lane_name", lane_name);
        span
    }

    /// Closes a call's root span, grafting the program's span tree (if
    /// the call produced one) underneath, and keeps it.
    pub fn end_call(&mut self, mut root: OpenSpan, program: Option<Span>) {
        if let Some(program) = program {
            root.push(program);
        }
        self.spans.push(root.finish());
    }

    /// Every recorded root span, in call order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The run as a Perfetto-loadable Chrome trace.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        mobidx_obs::json::chrome_trace(&self.spans).render()
    }
}

/// Nanoseconds of `[start, start + duration)` of `span` covered by at
/// least one child (children may overlap: legs run in parallel).
#[must_use]
pub fn covered_by_children(span: &Span) -> u64 {
    let end = span.start_nanos + span.duration_nanos;
    let mut intervals: Vec<(u64, u64)> = span
        .children
        .iter()
        .map(|c| {
            (
                c.start_nanos.clamp(span.start_nanos, end),
                (c.start_nanos + c.duration_nanos).clamp(span.start_nanos, end),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_nanos;
    for (a, b) in intervals {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    covered
}

/// A span's self time: its duration minus what its children cover.
#[must_use]
pub fn self_nanos(span: &Span) -> u64 {
    span.duration_nanos - covered_by_children(span)
}

/// The layer a span name belongs to: shard prefixes (`s3/`) and store
/// labels (`store/obs2`) collapse, so that all legs share one row.
#[must_use]
pub fn layer_name(name: &str) -> &str {
    if name.starts_with("store/") {
        return "store/*";
    }
    match name.split_once('/') {
        Some((shard, rest))
            if shard.len() > 1
                && shard.starts_with('s')
                && shard[1..].bytes().all(|b| b.is_ascii_digit()) =>
        {
            rest
        }
        _ => name,
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerRow {
    /// Spans with this name.
    pub count: u64,
    /// Their durations, summed.
    pub total_nanos: u64,
    /// Their self times, summed.
    pub self_nanos: u64,
    /// Page reads attributed to them.
    pub reads: u64,
}

/// Self time per layer name over every span of every tree.
#[must_use]
pub fn layer_table(roots: &[Span]) -> BTreeMap<String, LayerRow> {
    let mut table: BTreeMap<String, LayerRow> = BTreeMap::new();
    for root in roots {
        root.visit(&mut |s: &Span| {
            let row = table.entry(layer_name(&s.name).to_owned()).or_default();
            row.count += 1;
            row.total_nanos += s.duration_nanos;
            row.self_nanos += self_nanos(s);
            row.reads += s.io.reads;
        });
    }
    table
}

/// Renders the per-layer table, one line per span name.
#[must_use]
pub fn render_table(table: &BTreeMap<String, LayerRow>) -> String {
    use std::fmt::Write as _;
    let mut out =
        String::from("# span                      count   mean_us   self_us  reads/span\n");
    for (name, row) in table {
        let per = |v: u64| crate::measure::ratio(v, row.count);
        let _ = writeln!(
            out,
            "# {name:<24} {:>7} {:>9.2} {:>9.2} {:>11.2}",
            row.count,
            per(row.total_nanos) / 1e3,
            per(row.self_nanos) / 1e3,
            per(row.reads),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidx_obs::SpanIo;

    fn span(name: &str, start: u64, dur: u64, children: Vec<Span>) -> Span {
        let mut s = Span::leaf(name, start, SpanIo::default());
        s.duration_nanos = dur;
        s.children = children;
        s
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two legs in parallel, overlapping on [30, 60).
        let root = span(
            "query",
            0,
            100,
            vec![
                span("s0/execute", 10, 50, vec![]),
                span("s1/execute", 30, 50, vec![]),
            ],
        );
        assert_eq!(covered_by_children(&root), 70);
        assert_eq!(self_nanos(&root), 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_leaves_cover_nothing() {
        let root = span(
            "index.query",
            100,
            50,
            vec![
                span("store/obs0", 100, 0, vec![]),
                span("late", 140, 40, vec![]),
            ],
        );
        assert_eq!(covered_by_children(&root), 10);
        assert_eq!(self_nanos(&root), 40);
    }

    #[test]
    fn layer_names_collapse_shards_and_stores() {
        assert_eq!(layer_name("s0/execute"), "execute");
        assert_eq!(layer_name("s12/execute"), "execute");
        assert_eq!(layer_name("store/obs3"), "store/*");
        assert_eq!(layer_name("serve.query"), "serve.query");
        assert_eq!(layer_name("sx/execute"), "sx/execute");
    }

    #[test]
    fn table_sums_self_time_per_layer() {
        let tree = span(
            "serve.query",
            0,
            100,
            vec![span(
                "query",
                5,
                90,
                vec![
                    span("s0/execute", 10, 40, vec![]),
                    span("s1/execute", 10, 80, vec![]),
                ],
            )],
        );
        let table = layer_table(&[tree]);
        assert_eq!(table["serve.query"].self_nanos, 10);
        assert_eq!(table["query"].self_nanos, 10);
        assert_eq!(table["execute"].count, 2);
        assert_eq!(table["execute"].self_nanos, 120);
    }

    #[test]
    fn tracer_numbers_calls_and_exports_chrome_events() {
        let mut t = Tracer::new();
        let a = t.begin_call("serve.apply");
        t.end_call(a, None);
        let b = t.begin_call("serve.query");
        t.end_call(b, Some(span("query", 0, 1, vec![])));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].attr_u64("op"), Some(1));
        assert_eq!(t.spans()[1].children[0].name, "query");
        let json = mobidx_obs::json::Value::parse(&t.chrome_trace()).unwrap();
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("query")));
    }
}
