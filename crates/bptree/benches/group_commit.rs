//! Microbenchmark of a group commit's wait: twelve trees, each on its
//! own `FileBackend` with `FsyncPolicy::OnCommit` (a real fsync per
//! window), each with a one-leaf window — one entry changed — to commit.
//!
//! * `group_commit/seal_all_then_settle` — every tree sealed, then every
//!   tree settled, as `DualBPlusIndex::commit_group` commits a shard's
//!   twelve observation trees: the twelve fsyncs are in flight together.
//! * `group_commit/commit_one_by_one` — `try_commit` on each tree in
//!   turn: each fsync waits for the one before it.
//!
//! The edits that dirty the leaves run outside the timed region. What
//! the two rows measure is mostly the disk's fsync latency, so compare
//! them on one machine, one run after the other.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mobidx_bptree::{BPlusTree, TreeConfig};
use mobidx_pager::{FileBackend, FsyncPolicy, ScratchDir};
use std::cell::RefCell;

type Entry = (f64, (u64, u64));
type Tree = BPlusTree<f64, (u64, u64)>;

/// Trees one group commits: a shard's observation trees at c = 6.
const TREES: usize = 12;
/// Entries of each tree: one leaf.
const ENTRIES: u64 = 64;

/// Object `id`'s entry, with velocity bits `v`.
#[allow(clippy::cast_precision_loss)]
fn entry(id: u64, v: u64) -> Entry {
    (id as f64, (v, id))
}

/// Twelve one-leaf trees, each on a log of its own under `dir`, with
/// their first window committed.
fn trees(dir: &ScratchDir) -> Vec<Tree> {
    let entries: Vec<Entry> = (0..ENTRIES).map(|id| entry(id, 1)).collect();
    (0..TREES)
        .map(|t| {
            let mut tree = BPlusTree::bulk_load(TreeConfig::default(), &entries, 0.64);
            let (backend, _) =
                FileBackend::open(&dir.join(format!("tree{t}")), FsyncPolicy::OnCommit)
                    .expect("open the log");
            drop(tree.set_backend(Box::new(backend)));
            tree.try_commit().expect("the first window");
            tree
        })
        .collect()
}

fn bench_group_commit(c: &mut Criterion) {
    let dir = ScratchDir::new("bench-group-commit");
    let trees = RefCell::new(trees(&dir));
    // Iteration `n` moves the middle entry of every tree between two
    // velocities: a one-leaf window in each.
    let mut n = 0u64;
    let mut edit = || {
        let (was, now) = if n % 2 == 0 { (1, 2) } else { (2, 1) };
        n += 1;
        for tree in trees.borrow_mut().iter_mut() {
            let id = ENTRIES / 2;
            assert_eq!(tree.apply_batch(&[entry(id, was)], &[entry(id, now)]), 1);
        }
    };
    let mut group = c.benchmark_group("group_commit");
    group.sample_size(300);
    group.bench_function("seal_all_then_settle", |b| {
        b.iter_batched(
            &mut edit,
            |()| {
                let mut trees = trees.borrow_mut();
                for tree in trees.iter_mut() {
                    tree.try_seal().expect("FileBackend never faults");
                }
                for tree in trees.iter_mut() {
                    tree.try_settle().expect("the fsync");
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("commit_one_by_one", |b| {
        b.iter_batched(
            &mut edit,
            |()| {
                for tree in trees.borrow_mut().iter_mut() {
                    tree.try_commit().expect("the fsync");
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_group_commit);
criterion_main!(benches);
