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
//!
//! The snapshot fan-in, on ids picked at random by hash from 0..200k:
//! `union` over k = 2 dense 10k-id legs (a `read_large` query; the legs
//! arrive as bitmaps), k = 8
//! listed 2.5k-id legs whose union is dense, and k = 2 legs of 700 ids
//! (a `mixed_rw` query; the merge path), each next to
//! `merge_sorted_ids` over the same legs as lists (the fan-in it
//! replaced); a `read_large` leg finished by `assemble` (written out)
//! and by `assemble_set` (left packed); the unpack of one bitmap answer
//! at 2 to 6.4 ids a word (a lone part's `union`); and a frozen
//! velocity-partitioned view's `search` at the ledger's N, large and
//! small queries — the one reader that fans in through `union_set`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mobidx_core::ids::{assemble, assemble_set, finish_ids, union, IdSet};
use mobidx_core::method::vp_dual::{VpDualConfig, VpDualIndex};
use mobidx_core::{merge_sorted_ids, Index1D};
use mobidx_workload::{Simulator1D, WorkloadConfig};

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

/// About `per_mille` ids in a thousand of `0..200_000`, picked by hash
/// (an answer's ids sit at random in the span), in ascending order.
fn sampled_ids(per_mille: u64) -> Vec<u64> {
    (0..200_000u64)
        .filter(|&id| (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 1000 < per_mille)
        .collect()
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

/// Deals `ids` out by hash into `k` sorted lists, as an id-hash shard
/// function does.
fn deal(ids: &[u64], k: usize) -> Vec<Vec<u64>> {
    let mut lists = vec![Vec::new(); k];
    for &id in ids {
        lists[(id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % k].push(id);
    }
    for list in &mut lists {
        finish_ids(list);
    }
    lists
}

/// `ids` finished into a set, as a snapshot leg finishes its answer.
fn set_of(ids: &[u64]) -> IdSet {
    let mut set = IdSet::new();
    assemble_set(&mut set, |c| c.extend_from_slice(ids));
    set
}

fn bench_union(c: &mut Criterion) {
    let mut group = c.benchmark_group("id_kernel/union");
    group.sample_size(200);
    for (name, per_mille, k) in [
        ("read_large/k=2/leg=10000/of=200k", 100, 2),
        ("listed_legs/k=8/leg=2500/of=200k", 100, 8),
        ("mixed_rw/k=2/leg=700/of=200k", 7, 2),
    ] {
        let lists = deal(&sampled_ids(per_mille), k);
        let sets: Vec<IdSet> = lists.iter().map(|list| set_of(list)).collect();
        // The facade writes each answer into a fresh `Vec`.
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut out = Vec::new();
                union(&sets, &mut out);
                out
            });
        });
        group.bench_function(format!("{name}/merge_lists"), |b| {
            b.iter(|| {
                let mut out = Vec::new();
                merge_sorted_ids(&lists, &mut out);
                out
            });
        });
    }
    // One `read_large` leg, in the order a leaf scan finds it.
    let mut leg = deal(&sampled_ids(100), 2).swap_remove(0);
    leg.sort_unstable_by_key(|&id| id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut set = IdSet::new();
    group.bench_function("read_large_leg/assemble_set/n=10000/of=200k", |b| {
        b.iter(|| {
            assemble_set(&mut set, |c| c.extend_from_slice(&leg));
            set.len()
        });
    });
    let mut list = Vec::new();
    group.bench_function("read_large_leg/assemble/n=10000/of=200k", |b| {
        b.iter(|| {
            assemble(&mut list, |c| c.extend_from_slice(&leg));
            list.len()
        });
    });
    group.finish();
}

fn bench_unpack(c: &mut Criterion) {
    let mut group = c.benchmark_group("id_kernel/unpack");
    group.sample_size(200);
    // 20k down to 6.6k ids over 0..200k: 3125 words at 6.4 down to 2.1
    // ids a word (a bitmap answer holds 2 at least).
    for (density, per_mille) in [
        ("6.4", 100),
        ("5.0", 78),
        ("4.0", 63),
        ("3.2", 50),
        ("2.1", 33),
    ] {
        let set = set_of(&sampled_ids(per_mille));
        let mut out = Vec::new();
        group.bench_function(format!("ids_per_word={density}"), |b| {
            b.iter(|| {
                union(std::slice::from_ref(&set), &mut out);
                out.len()
            });
        });
    }
    group.finish();
}

fn bench_vp_dual_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("id_kernel/vp_dual_search");
    group.sample_size(100);
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 200_000,
        seed: 21,
        ..WorkloadConfig::default()
    });
    let mut idx = VpDualIndex::new(VpDualConfig::default());
    for m in sim.objects() {
        idx.insert(m);
    }
    let view = idx.freeze().expect("no subterrain => freezable");
    for (name, yqmax, tw) in [("large/n=200k", 150.0, 60.0), ("small/n=200k", 10.0, 20.0)] {
        let queries: Vec<_> = (0..64).map(|_| sim.gen_query(yqmax, tw)).collect();
        let mut out = Vec::new();
        // The mean over the 64 queries, each answered into a reused `Vec`.
        group.bench_function(format!("{name}/64_queries"), |b| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|q| {
                        view.search(q, &mut out);
                        out.len()
                    })
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_finish_ids,
    bench_merge,
    bench_assemble,
    bench_union,
    bench_unpack,
    bench_vp_dual_search
);
criterion_main!(benches);
