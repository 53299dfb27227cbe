//! The two bottom layers on their own: one `BPlusTree` the size of an
//! observation tree of the workload, and one `PageStore` with the
//! workload's pool — public calls timed in a loop, nothing else running.
//! These are the numbers a B+-tree or pager change should move first.

use crate::measure::{median, nanos, ratio};
use crate::stack::FSYNC;
use mobidx_bptree::{BPlusTree, TreeConfig};
use mobidx_core::hough_y_b;
use mobidx_pager::{FileBackend, PageStore};
use mobidx_workload::Motion1D;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// An observation-tree entry: key `b`, value `(velocity bits, id)`.
pub type Entry = (f64, (u64, u64));

/// The entries one positive-velocity observation tree of the workload
/// holds: the Hough-Y `b`-coordinates, seen from the first observation
/// element, of the given objects that move up.
#[must_use]
pub fn observation_entries(objects: &[Motion1D], terrain: f64, c: usize) -> Vec<Entry> {
    let y_r = 0.5 * terrain / c as f64;
    objects
        .iter()
        .filter(|m| m.v > 0.0)
        .map(|m| (hough_y_b(m, y_r), (m.v.to_bits(), m.id)))
        .collect()
}

/// A named number.
pub type Number = (&'static str, f64);

/// Lexicographic entry order, the tree's own.
fn by_entry(a: &Entry, b: &Entry) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// The `g`-th of `groups` disjoint groups of 64 entries scattered over
/// the key space, sorted — what one client batch of 64 does to one tree.
fn scattered_group(entries: &[Entry], g: usize, groups: usize) -> Vec<Entry> {
    let mut group: Vec<Entry> = (0..64)
        .map(|j| entries[(g + j * groups) % entries.len()])
        .collect();
    group.sort_by(by_entry);
    group.dedup();
    group
}

/// `bptree.*`: inserts every entry in the given (id, hence random key)
/// order, then times range scans over the paged and the frozen tree,
/// single removes, and sorted groups of 64 through `apply_batch`.
#[must_use]
pub fn bptree_numbers(entries: &[Entry], cfg: TreeConfig) -> Vec<Number> {
    let n = entries.len();
    if n < 1024 {
        return Vec::new();
    }
    let mut tree: BPlusTree<f64, (u64, u64)> = BPlusTree::new(cfg);
    let started = Instant::now();
    for &(k, v) in entries {
        tree.insert(k, v);
    }
    let insert_ns = ratio(nanos(started.elapsed()), n as u64);

    let mut sorted = entries.to_vec();
    sorted.sort_by(by_entry);
    // 64 ranges of a twentieth of the entries each, evenly placed.
    let width = n / 20;
    let ranges: Vec<(f64, f64)> = (0..64)
        .map(|i| {
            let lo = i * (n - width - 1) / 63;
            (sorted[lo].0, sorted[lo + width].0)
        })
        .collect();
    let (mut paged_ns, mut paged_entries) = (0u64, 0u64);
    let (mut frozen_ns, mut frozen_entries) = (0u64, 0u64);
    let frozen = tree.freeze();
    for _ in 0..4 {
        for &(lo, hi) in &ranges {
            let mut seen = 0u64;
            let started = Instant::now();
            tree.range_for_each(lo, hi, |k, v| {
                black_box((k, v));
                seen += 1;
            });
            paged_ns += nanos(started.elapsed());
            paged_entries += seen;
            let mut seen = 0u64;
            let started = Instant::now();
            black_box(frozen.range_for_each(lo, hi, |k, v| {
                black_box((k, v));
                seen += 1;
            }));
            frozen_ns += nanos(started.elapsed());
            frozen_entries += seen;
        }
    }
    drop(frozen);

    // Every 16th entry out (timed) and back in.
    let picked: Vec<Entry> = entries.iter().copied().step_by(16).collect();
    let started = Instant::now();
    for &(k, v) in &picked {
        assert!(tree.remove(k, v), "entry just inserted");
    }
    let remove_ns = ratio(nanos(started.elapsed()), picked.len() as u64);
    for &(k, v) in &picked {
        tree.insert(k, v);
    }

    // Each group removed and re-inserted in one `apply_batch`.
    let groups = 200.min(n / 64);
    let mut batch_ns = 0u64;
    for g in 0..groups {
        let group = scattered_group(entries, g, groups);
        let started = Instant::now();
        let removed = tree.apply_batch(&group, &group);
        batch_ns += nanos(started.elapsed());
        assert_eq!(removed, group.len(), "group entries are in the tree");
    }
    assert_eq!(tree.len(), n, "the tree holds what it held");

    vec![
        ("bptree.insert_ns", insert_ns),
        ("bptree.remove_ns", remove_ns),
        ("bptree.range_ns_per_entry", ratio(paged_ns, paged_entries)),
        (
            "bptree.frozen_range_ns_per_entry",
            ratio(frozen_ns, frozen_entries),
        ),
        (
            "bptree.apply_batch_ns_per_key",
            ratio(batch_ns, (groups * 128) as u64),
        ),
        ("bptree.height", tree.height() as f64),
        (
            "bptree.fill_pct",
            100.0 * n as f64 / (tree.live_pages() as f64 * cfg.leaf_cap as f64),
        ),
    ]
}

/// A 4 KiB page of words.
type Page = Vec<u64>;

/// `pager.read_hit_ns`, `read_miss_ns`, `write_ns` on a store with the
/// workload's pool, and `freeze_ns_per_page` on a store of `tree_pages`
/// pages (freezing bumps one reference per live page).
#[must_use]
pub fn pager_numbers(pool_pages: usize, tree_pages: usize) -> Vec<Number> {
    const ROUNDS: u64 = 200_000;
    let mut store: PageStore<Page> = PageStore::new(pool_pages);
    // More pages than the pool holds, so that a sequential cycle through
    // them misses every time under LRU.
    let ids: Vec<_> = (0..pool_pages + 8)
        .map(|i| store.allocate(vec![i as u64; 512]))
        .collect();
    store.clear_buffer();

    let mut sink = 0u64;
    let hot = [ids[0], ids[1]];
    sink += store.read(hot[0])[0] + store.read(hot[1])[0];
    let started = Instant::now();
    for i in 0..ROUNDS {
        sink = sink.wrapping_add(store.read(hot[(i & 1) as usize])[1]);
    }
    let hit_ns = ratio(nanos(started.elapsed()), ROUNDS);

    let started = Instant::now();
    for i in 0..ROUNDS {
        store.write(hot[(i & 1) as usize], |p| p[2] = p[2].wrapping_add(i));
    }
    let write_ns = ratio(nanos(started.elapsed()), ROUNDS);
    store.clear_buffer();

    let misses_before = store.stats().reads();
    let started = Instant::now();
    for i in 0..ROUNDS {
        let id = ids[i as usize % ids.len()];
        sink = sink.wrapping_add(store.read(id)[3]);
    }
    let miss_ns = ratio(nanos(started.elapsed()), ROUNDS);
    assert_eq!(
        store.stats().reads() - misses_before,
        ROUNDS,
        "every read of the cycle must miss"
    );
    black_box(sink);

    let mut big: PageStore<Page> = PageStore::new(pool_pages);
    for i in 0..tree_pages.max(1) {
        big.allocate(vec![i as u64; 512]);
    }
    let freezes = 500u64;
    let started = Instant::now();
    for _ in 0..freezes {
        black_box(big.freeze());
    }
    let freeze_ns = ratio(nanos(started.elapsed()), freezes * tree_pages.max(1) as u64);

    vec![
        ("pager.read_hit_ns", hit_ns),
        ("pager.read_miss_ns", miss_ns),
        ("pager.write_ns", write_ns),
        ("pager.freeze_ns_per_page", freeze_ns),
    ]
}

/// `pager.commit_us_per_page` — `try_commit` of an observation tree on
/// `FileBackend` after each of a run of 64-key batches, per dirty page
/// journaled — and `pager.fsync_us`, a bare 4 KiB write + fsync in the
/// same directory (the sandbox's device; context, not a program cost).
///
/// # Errors
/// On a filesystem error under `dir`.
pub fn durable_numbers(
    entries: &[Entry],
    cfg: TreeConfig,
    dir: &Path,
) -> Result<Vec<Number>, String> {
    let n = entries.len();
    let (backend, _image) =
        FileBackend::open(&dir.join("tree"), FSYNC).map_err(|e| format!("open store: {e}"))?;
    let mut tree: BPlusTree<f64, (u64, u64)> = BPlusTree::new(cfg);
    drop(tree.set_backend(Box::new(backend)));
    for &(k, v) in entries {
        tree.insert(k, v);
    }
    tree.try_commit().map_err(|e| e.to_string())?;
    let groups = 50.min(n / 64);
    let (mut commit_ns, mut pages) = (0u64, 0u64);
    for g in 0..groups {
        let group = scattered_group(entries, g, groups);
        tree.apply_batch(&group, &group);
        pages += tree.pending_commit().0 as u64;
        let started = Instant::now();
        tree.try_commit().map_err(|e| e.to_string())?;
        commit_ns += nanos(started.elapsed());
    }

    let probe = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&probe).map_err(|e| format!("create probe: {e}"))?;
    let block = [0u8; 4096];
    let mut fsyncs = Vec::new();
    for _ in 0..30 {
        file.write_all(&block).map_err(|e| e.to_string())?;
        let started = Instant::now();
        file.sync_all().map_err(|e| e.to_string())?;
        fsyncs.push(nanos(started.elapsed()) as f64 / 1e3);
    }
    Ok(vec![
        ("pager.commit_us_per_page", ratio(commit_ns, pages) / 1e3),
        ("pager.fsync_us", median(&fsyncs)),
    ])
}
