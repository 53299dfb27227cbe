//! Microbenchmark of the leaf-run range scan, live tree against its
//! frozen snapshot, at the paper's leaf capacity (B = 341) and N = 100k.
//!
//! Each iteration scans the middle `SPAN` keys — about 59 chained leaves
//! at the bulk-load fill — through `range_runs` and through the per-entry
//! wrapper `range_for_each` that the ledger's `bptree.*_ns_per_entry`
//! rows time. Divide a reported time by `SPAN` for ns/entry. The live
//! tree's pool holds the whole scan, so its numbers are the pager's hit
//! path plus the walk; the frozen tree's are the walk alone.

use criterion::{criterion_group, criterion_main, Criterion};
use mobidx_bptree::{BPlusTree, TreeConfig};
use std::hint::black_box;

const N: u64 = 100_000;
const SPAN: u64 = 20_000;

fn tree() -> BPlusTree<f64, u64> {
    #[allow(clippy::cast_precision_loss)]
    let entries: Vec<(f64, u64)> = (0..N).map(|i| (i as f64, i)).collect();
    let cfg = TreeConfig {
        buffer_pages: 512,
        ..TreeConfig::default()
    };
    BPlusTree::bulk_load(cfg, &entries, 1.0)
}

fn bench_range_scan(c: &mut Criterion) {
    let mut live = tree();
    let frozen = live.freeze();
    #[allow(clippy::cast_precision_loss)]
    let (lo, hi) = ((N / 2) as f64, (N / 2 + SPAN - 1) as f64);
    let mut group = c.benchmark_group(format!("range_scan/{SPAN}_of_{N}"));
    group.sample_size(200);
    group.bench_function("live/runs", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            live.range_runs(lo, hi, |run| sum += run.iter().map(|e| e.1).sum::<u64>())
                .expect("memory backend");
            sum
        });
    });
    group.bench_function("live/for_each", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            live.range_for_each(lo, hi, |k, v| sum += black_box(v) + u64::from(k < 0.0));
            sum
        });
    });
    group.bench_function("frozen/runs", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            let pages = frozen.range_runs(lo, hi, |run| {
                sum += run.iter().map(|e| e.1).sum::<u64>();
            });
            sum + pages
        });
    });
    group.bench_function("frozen/for_each", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            let pages =
                frozen.range_for_each(lo, hi, |k, v| sum += black_box(v) + u64::from(k < 0.0));
            sum + pages
        });
    });
    group.finish();
}

criterion_group!(benches, bench_range_scan);
criterion_main!(benches);
