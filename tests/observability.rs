//! Cross-crate observability tests: a query's span tree and candidate
//! count must reconcile exactly with the pager's `IoTotals` deltas for
//! every paper method, histograms must survive edge inputs, and the
//! machine-readable benchmark report must round-trip through the JSON
//! parser with every method present.

use mobidx_bench::{paper_methods, ptree_method, run_scenario, Method, QueryMix, Scale};
use mobidx_core::method::dual2d::{Decomposition2D, Dual4KdIndex};
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::{Index2D, MorQuery1D, Motion1D, QueryRequest, SpeedBand};
use mobidx_kdtree::KdConfig;
use mobidx_obs::json::{chrome_trace, Value};
use mobidx_obs::{Histogram, Span, SpanIo};
use mobidx_pager::{FaultPlan, FaultStore};
use mobidx_workload::{Simulator2D, WorkloadConfig2D};
use proptest::prelude::*;
use std::time::Instant;

const TERRAIN: f64 = 1000.0;

fn motion_strategy() -> impl Strategy<Value = Motion1D> {
    (
        0u64..5000,
        0.0f64..TERRAIN,
        0.16f64..1.66,
        prop::bool::ANY,
        0.0f64..300.0,
    )
        .prop_map(|(id, y0, speed, neg, t0)| Motion1D {
            id,
            t0,
            y0,
            v: if neg { -speed } else { speed },
        })
}

fn query_strategy() -> impl Strategy<Value = MorQuery1D> {
    (0.0f64..950.0, 0.0f64..150.0, 300.0f64..400.0, 0.0f64..60.0).prop_map(|(y1, len, t1, dt)| {
        MorQuery1D {
            y1,
            y2: (y1 + len).min(TERRAIN),
            t1,
            t2: t1 + dt,
        }
    })
}

fn dedup_by_id(mut motions: Vec<Motion1D>) -> Vec<Motion1D> {
    motions.sort_by_key(|m| m.id);
    motions.dedup_by_key(|m| m.id);
    motions
}

/// Every 1-D method: the paper's, the partition tree, and a dual-B+
/// whose subterrain interval indices answer wide queries (case ii).
fn every_1d_method() -> Vec<Method> {
    let mut methods = paper_methods();
    methods.push(ptree_method());
    methods.push(Method {
        name: "dual-B+ (c=8+iv)".to_owned(),
        make: Box::new(|| {
            Box::new(DualBPlusIndex::new(DualBPlusConfig {
                c: 8,
                maintain_subterrain: true,
                ..DualBPlusConfig::default()
            }))
        }),
    });
    methods
}

/// The I/O of the per-store leaves of a span tree: every span carrying
/// a `store` attribute.
fn store_io(span: &Span) -> SpanIo {
    let mut io = if span.attr_str("store").is_some() {
        span.io
    } else {
        SpanIo::default()
    };
    for child in &span.children {
        let c = store_io(child);
        io.reads += c.reads;
        io.writes += c.writes;
        io.hits += c.hits;
    }
    io
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every paper method (through the `Box<dyn Index1D>` the bench
    /// harness uses), the span tree's I/O equals the `IoTotals` delta
    /// across the query, the per-store leaves sum to the totals, the
    /// root names the method and its results and candidates, and
    /// candidates dominate results.
    #[test]
    fn traces_reconcile_with_io_totals(
        motions in prop::collection::vec(motion_strategy(), 1..80),
        queries in prop::collection::vec(query_strategy(), 1..4),
    ) {
        let motions = dedup_by_id(motions);
        for method in paper_methods() {
            let mut idx = (method.make)();
            for m in &motions {
                idx.insert(m);
            }
            let epoch = Instant::now();
            for q in &queries {
                idx.clear_buffers();
                idx.reset_io();
                let before = idx.io_totals();
                let out = idx.query(&QueryRequest::new(q).spanned(epoch));
                let span = out.span.expect("spanned request yields a span");
                let results = out.ids.len() as u64;
                let delta = idx.io_totals().delta_since(before);
                let total = span.total_io();
                prop_assert_eq!(span.attr_str("method"), Some(method.name.as_str()));
                prop_assert_eq!(total.reads, delta.reads, "{} reads", method.name);
                prop_assert_eq!(total.writes, delta.writes, "{} writes", method.name);
                prop_assert_eq!(total.hits, delta.hits, "{} hits", method.name);
                prop_assert_eq!(span.attr_u64("results"), Some(results), "{}", method.name);
                prop_assert_eq!(
                    span.attr_u64("candidates"), Some(out.candidates), "{}", method.name
                );
                prop_assert!(
                    out.candidates >= results,
                    "{}: candidates {} < results {}",
                    method.name, out.candidates, results
                );
                let stores = store_io(&span);
                prop_assert_eq!(stores.reads, delta.reads, "{} store reads", method.name);
                prop_assert_eq!(stores.writes, delta.writes, "{} store writes", method.name);
                #[allow(clippy::cast_precision_loss)]
                let false_hit_rate =
                    (out.candidates - results) as f64 / out.candidates.max(1) as f64;
                prop_assert!((0.0..=1.0).contains(&false_hit_rate));
                prop_assert!((0.0..=1.0).contains(&delta.hit_rate()));
            }
        }
    }

    /// The hierarchical span tree obeys the same accounting contract:
    /// for every paper method, under both the plain memory backend and
    /// a transient-fault backend (whose faults the default retry policy
    /// absorbs), the recursive sum of the tree's leaf I/O equals the
    /// `IoTotals` delta across the query, interior spans carry no I/O
    /// of their own, and the per-store leaves carry all of it.
    #[test]
    fn span_trees_reconcile_with_io_totals(
        motions in prop::collection::vec(motion_strategy(), 1..60),
        queries in prop::collection::vec(query_strategy(), 1..3),
    ) {
        let motions = dedup_by_id(motions);
        for faulty in [false, true] {
            for method in paper_methods() {
                let mut idx = (method.make)();
                for m in &motions {
                    idx.insert(m);
                }
                if faulty {
                    // One deterministic transient-fault stream per
                    // store; reads keep failing briefly and the store's
                    // retries absorb every fault, so the query still
                    // succeeds while the I/O counters take the detour.
                    let mut store = 0u64;
                    idx.set_backends(&mut || {
                        store += 1;
                        Box::new(FaultStore::new(FaultPlan::transient(store)))
                    });
                }
                let epoch = Instant::now();
                for q in &queries {
                    idx.clear_buffers();
                    idx.reset_io();
                    let before = idx.io_totals();
                    let out = idx.query(&QueryRequest::new(q).spanned(epoch));
                    let span = out.span.expect("spanned request yields a span");
                    let ids = out.ids;
                    let delta = idx.io_totals().delta_since(before);
                    let total = span.total_io();
                    let label = format!(
                        "{}{}",
                        method.name,
                        if faulty { " (faulty)" } else { "" }
                    );
                    prop_assert_eq!(total.reads, delta.reads, "{} reads", &label);
                    prop_assert_eq!(total.writes, delta.writes, "{} writes", &label);
                    prop_assert_eq!(total.hits, delta.hits, "{} hits", &label);
                    prop_assert_eq!(
                        span.io.ios() + span.io.hits, 0,
                        "{}: I/O belongs to the leaves, not the root", &label
                    );
                    prop_assert_eq!(
                        span.attr_u64("results"),
                        Some(ids.len() as u64),
                        "{} results attr", &label
                    );
                    prop_assert!(!span.children.is_empty(), "{}: no store leaves", &label);
                    // The store leaves carry all of the query's I/O.
                    let stores = store_io(&span);
                    prop_assert_eq!(stores.reads, delta.reads, "{} store reads", &label);
                    prop_assert_eq!(stores.writes, delta.writes, "{} store writes", &label);
                }
            }
        }
    }

    /// A method reports its candidates once, as `search`'s return: for
    /// every 1-D method a plain query and a spanned query of the same
    /// index give identical ids and candidates, the span root's
    /// `candidates` / `results` attributes equal them, and for a
    /// velocity-partitioned index the candidates are the sum of the
    /// per-band candidate deltas (`band_io`).
    #[test]
    fn plain_and_spanned_queries_report_the_same_candidates(
        motions in prop::collection::vec(motion_strategy(), 1..80),
        queries in prop::collection::vec(query_strategy(), 1..4),
    ) {
        let motions = dedup_by_id(motions);
        let epoch = Instant::now();
        for method in every_1d_method() {
            let mut idx = (method.make)();
            for m in &motions {
                idx.insert(m);
            }
            for q in &queries {
                let bands_before = idx.band_io();
                let plain = idx.query(&QueryRequest::new(q));
                let bands_after = idx.band_io();
                let spanned = idx.query(&QueryRequest::new(q).spanned(epoch));
                let span = spanned.span.as_ref().expect("spanned request yields a span");
                prop_assert_eq!(&plain.ids, &spanned.ids, "{} ids", &method.name);
                prop_assert_eq!(plain.candidates, spanned.candidates, "{}", &method.name);
                prop_assert_eq!(span.attr_u64("candidates"), Some(spanned.candidates));
                prop_assert_eq!(span.attr_u64("results"), Some(spanned.ids.len() as u64));
                if let (Some(before), Some(after)) = (bands_before, bands_after) {
                    let band_candidates: u64 = after
                        .iter()
                        .zip(&before)
                        .map(|(a, b)| a.candidates - b.candidates)
                        .sum();
                    prop_assert_eq!(band_candidates, plain.candidates, "{}", &method.name);
                }
            }
        }
    }
}

/// The exact methods (rotating duals with polygon queries) report a
/// zero false-hit rate; the dual-B+ approximation reports a positive
/// one on a real workload — the §3.5.2 trade-off, observable per query.
#[test]
fn false_hit_rates_separate_exact_from_approximate() {
    let mut sim = mobidx_workload::Simulator1D::new(mobidx_workload::WorkloadConfig {
        n: 1500,
        seed: 11,
        ..mobidx_workload::WorkloadConfig::default()
    });
    for _ in 0..5 {
        let _ = sim.step();
    }
    let mut kd_fh = 0.0f64;
    let mut bp_fh = 0.0f64;
    for method in paper_methods() {
        let mut idx = (method.make)();
        for m in sim.objects() {
            idx.insert(m);
        }
        let mut candidates = 0u64;
        let mut results = 0u64;
        for _ in 0..20 {
            let q = sim.gen_query(150.0, 60.0);
            idx.clear_buffers();
            idx.reset_io();
            let out = idx.query(&QueryRequest::new(&q));
            candidates += out.candidates;
            results += out.ids.len() as u64;
        }
        #[allow(clippy::cast_precision_loss)]
        let fh = candidates.saturating_sub(results) as f64 / candidates.max(1) as f64;
        match method.name.as_str() {
            "dual-kd" => kd_fh = fh,
            "dual-B+ (c=4)" => bp_fh = fh,
            _ => {}
        }
    }
    assert!(kd_fh.abs() < 1e-12, "exact method false-hit rate {kd_fh}");
    assert!(
        bp_fh > 0.1,
        "dual-B+ false-hit rate {bp_fh} implausibly low"
    );
}

/// 2-D methods reconcile the same way through
/// `Index2D::query(&QueryRequest::new(&q).spanned(epoch))`.
#[test]
fn traces_reconcile_in_2d() {
    let mut sim = Simulator2D::new(WorkloadConfig2D {
        n: 600,
        seed: 23,
        ..WorkloadConfig2D::default()
    });
    for _ in 0..3 {
        let _ = sim.step();
    }
    let mut indexes: Vec<Box<dyn Index2D>> = vec![
        Box::new(Dual4KdIndex::new(KdConfig::default(), SpeedBand::paper())),
        Box::new(Decomposition2D::new(DualBPlusConfig {
            c: 4,
            ..DualBPlusConfig::default()
        })),
    ];
    let epoch = Instant::now();
    for idx in &mut indexes {
        for m in sim.objects() {
            idx.insert(m);
        }
        let name = idx.name();
        for _ in 0..10 {
            let q = sim.gen_query(150.0, 60.0);
            idx.clear_buffers();
            idx.reset_io();
            let before = idx.io_totals();
            let out = idx.query(&QueryRequest::new(&q).spanned(epoch));
            let span = out.span.expect("spanned request yields a span");
            let results = out.ids.len() as u64;
            let delta = idx.io_totals().delta_since(before);
            assert_eq!(span.attr_str("method"), Some(name.as_str()));
            assert_eq!(span.total_io().reads, delta.reads, "{name}");
            assert_eq!(span.total_io().writes, delta.writes, "{name}");
            assert_eq!(span.attr_u64("results"), Some(results), "{name}");
            assert_eq!(span.attr_u64("candidates"), Some(out.candidates), "{name}");
            assert!(out.candidates >= results, "{name}");
            assert_eq!(store_io(&span).reads, delta.reads, "{name}");
        }
    }
}

/// Histogram edge inputs: zero, `u64::MAX`, and percentile
/// interpolation within the documented ≤6.25 % quantization error.
#[test]
fn histogram_edge_cases() {
    let h = Histogram::new();
    assert_eq!(h.count(), 0);
    assert_eq!(h.percentile(0.5), 0, "empty histogram percentile");
    let snap = h.snapshot();
    assert_eq!(snap.count, 0);
    assert_eq!(snap.min, 0);
    assert_eq!(snap.max, 0);

    h.record(0);
    h.record(u64::MAX);
    assert_eq!(h.count(), 2);
    assert_eq!(h.min(), 0);
    assert_eq!(h.max(), u64::MAX);

    let h = Histogram::new();
    for v in 1..=1000u64 {
        h.record(v);
    }
    for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
        #[allow(clippy::cast_precision_loss)]
        let got = h.percentile(q) as f64;
        assert!(
            (got - exact).abs() / exact < 0.0725,
            "p{q}: got {got}, want ~{exact}"
        );
    }
    assert_eq!(h.percentile(1.0), 1000, "p100 is the exact max");
    assert_eq!(h.percentile(0.0), 1, "p0 is the exact min");
}

/// The full benchmark report at a tiny scale parses back and contains
/// every paper method with sane per-method statistics.
#[test]
fn json_report_contains_every_method() {
    let scale = Scale {
        n_factor: 0.004,
        instants: 6,
        query_instants: 2,
        queries_per_instant: 4,
    };
    let n = scale.n_values()[0];
    let methods = paper_methods();
    let cells: Vec<_> = methods
        .iter()
        .map(|m| run_scenario(m, n, QueryMix::Large, &scale, 9))
        .collect();
    let text = mobidx_bench::json_report::render_report("tiny", &scale, 9, &[("large", &cells)]);
    let doc = Value::parse(&text).expect("report must be valid JSON");
    let large = doc
        .get("mixes")
        .and_then(|m| m.get("large"))
        .and_then(Value::as_array)
        .expect("large mix present");
    assert_eq!(large.len(), methods.len());
    for method in &methods {
        let cell = large
            .iter()
            .find(|c| c.get("method").and_then(Value::as_str) == Some(method.name.as_str()))
            .unwrap_or_else(|| panic!("method {} missing from report", method.name));
        let fh = cell
            .get("false_hit_rate")
            .and_then(Value::as_f64)
            .expect("false_hit_rate");
        assert!((0.0..=1.0).contains(&fh), "{}: rate {fh}", method.name);
        let lat = cell.get("latency_nanos").expect("latency object");
        let count = lat.get("count").and_then(Value::as_u64).expect("count");
        let queries = cell
            .get("queries")
            .and_then(Value::as_u64)
            .expect("queries");
        assert_eq!(count, queries, "{}", method.name);
    }
}

/// The Chrome trace-event export of real query span trees round-trips
/// through the JSON parser and keeps the loadability invariants: every
/// `"X"` event carries numeric `ts`/`dur` and a `tid` lane, and every
/// span of every tree appears exactly once.
#[test]
fn chrome_trace_round_trips_through_parser() {
    let mut sim = mobidx_workload::Simulator1D::new(mobidx_workload::WorkloadConfig {
        n: 800,
        seed: 17,
        ..mobidx_workload::WorkloadConfig::default()
    });
    let epoch = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let mut total_spans = 0usize;
    for method in paper_methods() {
        let mut idx = (method.make)();
        for m in sim.objects() {
            idx.insert(m);
        }
        let q = sim.gen_query(150.0, 60.0);
        idx.clear_buffers();
        idx.reset_io();
        let span = idx
            .query(&QueryRequest::new(&q).spanned(epoch))
            .span
            .expect("spanned request yields a span");
        total_spans += span.span_count();
        spans.push(span);
    }

    let doc = Value::parse(&chrome_trace(spans.iter()).render_pretty()).expect("export parses");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .collect();
    assert_eq!(
        complete.len(),
        total_spans,
        "one complete event per span of every tree"
    );
    for e in &complete {
        assert!(e.get("name").and_then(Value::as_str).is_some());
        assert!(e.get("ts").and_then(Value::as_f64).is_some(), "ts missing");
        assert!(
            e.get("dur").and_then(Value::as_f64).is_some(),
            "dur missing"
        );
        assert!(
            e.get("tid").and_then(Value::as_u64).is_some(),
            "tid missing"
        );
        assert_eq!(e.get("pid").and_then(Value::as_u64), Some(0));
    }
}

/// The Chrome trace exporter stays loadable on degenerate inputs: an
/// empty span set, zero-duration spans, and a child span overrunning
/// its parent's interval (possible when a worker's clock read races the
/// facade's close). Each export must parse, every `"X"` event must
/// carry finite numeric `ts`/`dur`, and a DFS emission order implies
/// each child's `ts` is no earlier than its parent's.
#[test]
fn chrome_trace_handles_degenerate_trees() {
    use mobidx_obs::SpanIo;

    // Empty input: a valid document with an empty traceEvents array.
    let doc =
        Value::parse(&chrome_trace(std::iter::empty::<&Span>()).render()).expect("empty export");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(events.is_empty(), "no spans, no events");

    // Zero-duration root with a zero-duration child, plus a child that
    // starts inside its parent but ends after it (overrun).
    let mut instant = Span::leaf("instant", 5_000, SpanIo::default());
    instant.duration_nanos = 0;
    let mut zero_child = Span::leaf("instant/child", 5_000, SpanIo::default());
    zero_child.duration_nanos = 0;
    instant.children.push(zero_child);

    let mut parent = Span::leaf("parent", 10_000, SpanIo::default());
    parent.duration_nanos = 1_000;
    let mut overrun = Span::leaf("parent/overrun", 10_500, SpanIo::default());
    overrun.duration_nanos = 5_000; // ends at 15_500, far past the parent
    parent.children.push(overrun);

    let trees = [instant, parent];
    let doc = Value::parse(&chrome_trace(trees.iter()).render_pretty()).expect("export parses");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .collect();
    assert_eq!(complete.len(), 4, "one event per span");
    for e in &complete {
        let ts = e.get("ts").and_then(Value::as_f64).expect("numeric ts");
        let dur = e.get("dur").and_then(Value::as_f64).expect("numeric dur");
        assert!(ts.is_finite() && ts >= 0.0, "ts well-formed: {ts}");
        assert!(dur.is_finite() && dur >= 0.0, "dur well-formed: {dur}");
    }
    // DFS emission: a child is emitted right after its parent and never
    // starts earlier, so ts is monotone within each tree's event run.
    let ts_of = |name: &str| {
        complete
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|e| e.get("ts").and_then(Value::as_f64))
            .expect(name)
    };
    assert_eq!(ts_of("instant"), ts_of("instant/child"));
    assert!(ts_of("parent/overrun") >= ts_of("parent"));
    let dur_of = |name: &str| {
        complete
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|e| e.get("dur").and_then(Value::as_f64))
            .expect(name)
    };
    assert_eq!(dur_of("instant"), 0.0, "zero-duration span exports dur 0");
    // The overrun is preserved, not clamped: Perfetto renders it as
    // drawn, and clamping would hide the clock skew being diagnosed.
    assert!(ts_of("parent/overrun") + dur_of("parent/overrun") > ts_of("parent") + 1.0);
}

/// A span tree survives its own JSON encoding: `Span::from_json ∘
/// Span::to_json` is the identity on everything the accounting contract
/// depends on (I/O sums, attributes, tree shape).
#[test]
fn span_json_round_trips_a_real_tree() {
    let mut sim = mobidx_workload::Simulator1D::new(mobidx_workload::WorkloadConfig {
        n: 600,
        seed: 29,
        ..mobidx_workload::WorkloadConfig::default()
    });
    let method = &paper_methods()[2]; // dual-B+ (c=4): several stores
    let mut idx = (method.make)();
    for m in sim.objects() {
        idx.insert(m);
    }
    let q = sim.gen_query(150.0, 60.0);
    idx.clear_buffers();
    idx.reset_io();
    let span = idx
        .query(&QueryRequest::new(&q).spanned(Instant::now()))
        .span
        .expect("spanned request yields a span");
    let parsed = Value::parse(&span.to_json().render()).expect("span JSON parses");
    let back = Span::from_json(&parsed).expect("span JSON decodes");
    assert_eq!(back.name, span.name);
    assert_eq!(back.span_count(), span.span_count());
    assert_eq!(back.total_io().reads, span.total_io().reads);
    assert_eq!(back.total_io().writes, span.total_io().writes);
    assert_eq!(back.attr_u64("candidates"), span.attr_u64("candidates"));
    assert_eq!(back.duration_nanos, span.duration_nanos);
}
