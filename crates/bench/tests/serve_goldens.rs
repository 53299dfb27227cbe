//! The serving tier's deterministic counts, pinned to the committed
//! baselines exactly.
//!
//! CI gates `BENCH_serve_baseline_{batch,read}_smoke.json` with
//! `bench-diff --threshold 10`; this test holds the same seven numbers
//! to f64 equality in tier-1: per batch cell `update_ops` and
//! `ios_per_op`, per read cell `reads_per_query`. Sizing and seed come
//! from the baseline documents themselves.

use mobidx_bench::throughput::{run_batch_sweep, run_read_heavy, ThroughputConfig};
use mobidx_bench::Scale;
use mobidx_obs::json::Value;

fn baseline(name: &str) -> Value {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Value::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn cells<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key).and_then(Value::as_array).expect(key)
}

fn num(cell: &Value, key: &str) -> f64 {
    cell.get(key).and_then(Value::as_f64).expect(key)
}

fn int(cell: &Value, key: &str) -> usize {
    let v = cell.get(key).and_then(Value::as_u64).expect(key);
    usize::try_from(v).expect("fits usize")
}

/// The smoke-scale config the baselines were measured with.
fn smoke_cfg(doc: &Value) -> ThroughputConfig {
    let seed = doc.get("seed").and_then(Value::as_u64).expect("seed");
    let cfg = ThroughputConfig::from_scale(&Scale::smoke(), seed);
    assert_eq!(
        cfg.n,
        int(doc, "n"),
        "baseline N is the smoke sweep's largest"
    );
    cfg
}

#[test]
fn batch_sweep_counts_equal_the_committed_baseline() {
    let doc = baseline("BENCH_serve_baseline_batch_smoke.json");
    let want = cells(&doc, "batch_cells");
    let sizes: Vec<usize> = want.iter().map(|c| int(c, "batch")).collect();
    assert_eq!(sizes, [1, 8, 32, 128]);
    let got = run_batch_sweep(&smoke_cfg(&doc), &sizes);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.batch, int(w, "batch"));
        assert_eq!(g.update_ops, int(w, "update_ops"), "batch={}", g.batch);
        assert!(
            g.ios_per_op == num(w, "ios_per_op"),
            "batch={}: ios_per_op {} != baseline {}",
            g.batch,
            g.ios_per_op,
            num(w, "ios_per_op")
        );
    }
}

#[test]
fn read_heavy_probe_equals_the_committed_baseline() {
    let doc = baseline("BENCH_serve_baseline_read_smoke.json");
    let want = cells(&doc, "read_cells");
    let ratios: Vec<(usize, usize)> = want
        .iter()
        .map(|c| (int(c, "readers"), int(c, "writers")))
        .collect();
    let got = run_read_heavy(&smoke_cfg(&doc), 4, &ratios);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            (g.readers, g.writers),
            (int(w, "readers"), int(w, "writers"))
        );
        assert!(
            g.reads_per_query == num(w, "reads_per_query"),
            "readers={}/writers={}: reads_per_query {} != baseline {}",
            g.readers,
            g.writers,
            g.reads_per_query,
            num(w, "reads_per_query")
        );
    }
}
