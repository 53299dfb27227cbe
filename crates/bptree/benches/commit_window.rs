//! Microbenchmark of what a durable commit costs the CPU, on the
//! observation trees' entry type `(f64, (u64, u64))`, 24 bytes an entry.
//!
//! * `encode_delta/one_entry_of_218` — the delta of a leaf at the bulk
//!   load's 64 % fill (218 of B = 341 entries) against its previous
//!   version, one entry in the middle replaced: what the commit path
//!   pays per dirtied leaf of an update.
//! * `store_commit/8_leaves_fsync_never` — one commit window of a tree
//!   on a `FileBackend` with `FsyncPolicy::Never`: eight leaves, one
//!   entry changed in each, journaled as deltas, framed and written,
//!   plus the commit record. The fsync is left out, so this is the
//!   encoding, framing and `write` a window costs without the disk. The
//!   edits that dirty the leaves run outside the timed region.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mobidx_bptree::{BPlusTree, Node, TreeConfig};
use mobidx_pager::{FileBackend, FsyncPolicy, PageCodec, ScratchDir};
use std::cell::RefCell;
use std::hint::black_box;

type Entry = (f64, (u64, u64));

/// Entries a leaf holds at the bulk load's fill of B = 341.
const LEAF: u64 = 218;
/// Leaves one window dirties.
const WINDOW: u64 = 8;

/// Object `id`'s entry, with velocity bits `v`.
#[allow(clippy::cast_precision_loss)]
fn entry(id: u64, v: u64) -> Entry {
    (id as f64, (v, id))
}

fn bench_encode_delta(c: &mut Criterion) {
    let was = Node::Leaf {
        entries: (0..LEAF).map(|id| entry(id, 1)).collect(),
        next: None,
    };
    let mut now = was.clone();
    if let Node::Leaf { entries, .. } = &mut now {
        entries[109] = entry(109, 2);
    }
    let mut out = Vec::new();
    let mut group = c.benchmark_group("commit_window/encode_delta");
    group.sample_size(5_000);
    group.bench_function("one_entry_of_218", |b| {
        b.iter(|| {
            out.clear();
            assert!(now.encode_delta(black_box(&was), &mut out));
            out.len()
        });
    });
    group.finish();
}

fn bench_store_commit(c: &mut Criterion) {
    let dir = ScratchDir::new("bench-commit-window");
    let entries: Vec<Entry> = (0..LEAF * 64).map(|id| entry(id, 1)).collect();
    let mut tree = BPlusTree::bulk_load(TreeConfig::default(), &entries, 0.64);
    let (backend, _) = FileBackend::open(&dir, FsyncPolicy::Never).expect("open the log");
    drop(tree.set_backend(Box::new(backend)));
    tree.try_commit()
        .expect("the first window: every page whole");
    let tree = RefCell::new(tree);
    // Iteration `n` moves the middle entry of every eighth leaf between
    // two velocities: one entry changed in each of eight leaves.
    let mut n = 0u64;
    let mut edit = || {
        let (was, now) = if n % 2 == 0 { (1, 2) } else { (2, 1) };
        n += 1;
        let mut tree = tree.borrow_mut();
        for leaf in 0..WINDOW {
            let id = leaf * 8 * LEAF + LEAF / 2;
            let (gone, came) = ([entry(id, was)], [entry(id, now)]);
            assert_eq!(tree.apply_batch(&gone, &came), 1);
        }
    };
    let mut group = c.benchmark_group("commit_window/store_commit");
    group.sample_size(2_000);
    group.bench_function("8_leaves_fsync_never", |b| {
        b.iter_batched(
            &mut edit,
            |()| {
                tree.borrow_mut()
                    .try_commit()
                    .expect("FileBackend never faults")
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_encode_delta, bench_store_commit);
criterion_main!(benches);
