//! Microbenchmarks of the id-assembly kernel (`mobidx_core::ids`):
//! `finish_ids` on 1k / 10k / 100k shuffled dense ids, then on lists
//! shaped like the perf ledger's answers — 20k ids from 0..200k (a
//! `paper_cold` answer), 10k (a `read_large` leg), 1.4k (a `mixed_rw`
//! leg) and 200 (below the radix cutoff) from the same span, and 10k
//! ids hashed over all of `u64` — so each of the kernel's three forms
//! (bitmap, radix, comparison sort) has a number; and
//! `merge_sorted_ids` over k = 2 and k = 8 disjoint sorted lists
//! totalling 20k ids (the facade's merge at S = 2 and S = 8); and
//! `assemble` building a `paper_cold` answer into a fresh `Vec` — 82.5k
//! candidates from 0..200k, one in 3.9 surviving, collected the way the
//! speed filter collects a leaf run — next to the form it replaced,
//! collecting into `Vec::new()` and finishing in place.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mobidx_core::ids::{assemble, finish_ids};
use mobidx_core::merge_sorted_ids;

/// `n` distinct ids below `4 n`, in a deterministic shuffled order.
fn shuffled_ids(n: u64) -> Vec<u64> {
    // An odd multiplier is a bijection modulo a power of two.
    let modulus = (4 * n).next_power_of_two();
    (0..n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % modulus)
        .collect()
}

/// `n` distinct ids from `0..200_000` (the ledger's N), spread over the
/// whole span in a deterministic shuffled order.
fn ledger_ids(n: u64) -> Vec<u64> {
    // A multiplier coprime to 200 000 is a bijection modulo it.
    (0..n).map(|i| i * 104_729 % 200_000).collect()
}

/// `n` distinct ids hashed over all of `u64`.
fn hashed_ids(n: u64) -> Vec<u64> {
    (1..=n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

fn bench_finish_ids(c: &mut Criterion) {
    let mut group = c.benchmark_group("id_kernel/finish_ids");
    group.sample_size(200);
    let rows = [1_000u64, 10_000, 100_000]
        .map(|n| (format!("n={n}"), shuffled_ids(n)))
        .into_iter()
        .chain([
            ("paper_cold/n=20000/of=200k".into(), ledger_ids(20_000)),
            ("read_large_leg/n=10000/of=200k".into(), ledger_ids(10_000)),
            ("mixed_rw_leg/n=1400/of=200k".into(), ledger_ids(1_400)),
            ("short/n=200/of=200k".into(), ledger_ids(200)),
            ("hashed/n=10000/of=u64".into(), hashed_ids(10_000)),
        ]);
    for (name, ids) in rows {
        group.bench_function(name, |b| {
            b.iter_batched(
                || ids.clone(),
                |mut ids| {
                    finish_ids(&mut ids);
                    ids
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("id_kernel/merge_sorted_ids");
    group.sample_size(200);
    let mut all = shuffled_ids(20_000);
    finish_ids(&mut all);
    for k in [2usize, 8] {
        // Deal the sorted ids out by hash, as an id-hash shard function
        // does: k sorted, disjoint, interleaved lists.
        let mut lists = vec![Vec::new(); k];
        for &id in &all {
            lists[(id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % k].push(id);
        }
        let mut out = Vec::new();
        group.bench_function(format!("k={k}/total=20000"), |b| {
            b.iter(|| {
                merge_sorted_ids(&lists, &mut out);
                out.len()
            });
        });
    }
    group.finish();
}

/// Entries in a leaf run of a `paper_cold` observation tree: 341 slots
/// at the ledger's 64 % fill.
const LEAF_RUN: usize = 218;

/// The speed filter's collect loop over `(id, survives)` candidates: per
/// leaf run, every id is written and the cursor advances by the bit;
/// `out` grows only past its high-water mark.
fn collect(candidates: &[(u64, bool)], out: &mut Vec<u64>) {
    let mut end = out.len();
    for run in candidates.chunks(LEAF_RUN) {
        if out.len() < end + run.len() {
            out.resize(end + run.len(), 0);
        }
        let slots = &mut out[end..];
        let mut kept = 0;
        for &(id, survives) in run {
            slots[kept] = id;
            kept += usize::from(survives);
        }
        end += kept;
    }
    out.truncate(end);
}

fn bench_assemble(c: &mut Criterion) {
    let mut group = c.benchmark_group("id_kernel/assemble");
    group.sample_size(200);
    // 10 of every 39 candidates survive: 3.9 candidates per answer id.
    let candidates: Vec<(u64, bool)> = ledger_ids(82_500)
        .into_iter()
        .map(|id| (id, (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 39 < 10))
        .collect();
    group.bench_function("paper_cold/n=82500/of=200k", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            assemble(&mut out, |ids| collect(&candidates, ids));
            out
        });
    });
    group.bench_function("paper_cold_finish_in_place/n=82500/of=200k", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            collect(&candidates, &mut out);
            finish_ids(&mut out);
            out
        });
    });
    group.finish();
}

criterion_group!(benches, bench_finish_ids, bench_merge, bench_assemble);
criterion_main!(benches);
