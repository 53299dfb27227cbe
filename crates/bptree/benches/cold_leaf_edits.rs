//! Microbenchmark of the write path's in-page search on cold leaves:
//! the shape of one `update_stream` batch on one shard of the perf
//! ledger (c = 6 observation trees, two halves each, so twelve trees).
//!
//! Twelve trees of 50k `(f64, (u64, u64))` entries — uniform dual
//! `b`-coordinates, the ledger's value type — bulk-loaded at the
//! paper's B = 341 and 66 % fill, each behind a 4-page pool (≈ 1.2 MB of
//! leaves a tree, 14 MB in all). One iteration applies 16 sorted
//! removals and 16 sorted insertions (`apply_batch`, the batch order of
//! `batch_update`) to each tree in turn, so every tree is touched 32
//! times and then left to go cold while the other eleven run: 192
//! remove + insert pairs. Divide a reported time by 192 for the cost of
//! one pair. Each removed entry is re-inserted under a fresh key, so
//! the trees keep their size and fill from iteration to iteration.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mobidx_bptree::{BPlusTree, TreeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const TREES: usize = 12;
const ENTRIES: u64 = 50_000;
const PAIRS: usize = 16;
const FILL: f64 = 0.66;

type Entry = (f64, (u64, u64));

/// One iteration's edits: per tree, sorted removals and insertions.
type Plan = Vec<(Vec<Entry>, Vec<Entry>)>;

fn bench_cold_leaf_edits(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(34);
    let cfg = TreeConfig {
        buffer_pages: 4,
        ..TreeConfig::default()
    };
    // `live[t][id]` is the entry object `id` holds in tree `t`.
    let mut live: Vec<Vec<Entry>> = (0..TREES)
        .map(|t| {
            (0..ENTRIES)
                .map(|id| (rng.gen_range(0.0..1e6), (id, t as u64)))
                .collect()
        })
        .collect();
    let mut trees: Vec<BPlusTree<f64, (u64, u64)>> = live
        .iter()
        .map(|entries| {
            let mut sorted = entries.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
            BPlusTree::bulk_load(cfg, &sorted, FILL)
        })
        .collect();
    let mut plan = move || -> Plan {
        live.iter_mut()
            .map(|entries| {
                let mut removes = Vec::with_capacity(PAIRS);
                let mut inserts = Vec::with_capacity(PAIRS);
                while removes.len() < PAIRS {
                    let slot = &mut entries[rng.gen_range(0..ENTRIES) as usize];
                    if inserts.iter().any(|e: &Entry| e.1 == slot.1) {
                        continue;
                    }
                    removes.push(*slot);
                    slot.0 = rng.gen_range(0.0..1e6);
                    inserts.push(*slot);
                }
                removes.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
                inserts.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
                (removes, inserts)
            })
            .collect()
    };
    let mut group = c.benchmark_group(format!(
        "cold_leaf_edits/{TREES}x{ENTRIES}_B341_{PAIRS}_pairs_each"
    ));
    group.sample_size(300);
    group.bench_function("apply_batch", |b| {
        b.iter_batched(
            &mut plan,
            |plan| {
                let mut removed = 0;
                for (tree, (removes, inserts)) in trees.iter_mut().zip(&plan) {
                    removed += tree.apply_batch(removes, inserts);
                }
                assert_eq!(removed, plan.iter().map(|p| p.0.len()).sum::<usize>());
                removed
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_cold_leaf_edits);
criterion_main!(benches);
