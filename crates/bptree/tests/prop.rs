//! Property-based tests: the paged B+-tree must behave exactly like a
//! sorted multiset under arbitrary interleavings of inserts, deletes and
//! range queries, while maintaining its structural invariants.

use mobidx_bptree::{BPlusTree, FrozenTree, TreeConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u32),
    Remove(u32, u32),
    Range(u32, u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u32..64, 0u32..1000).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (0u32..64, 0u32..1000).prop_map(|(k, v)| Op::Remove(k, v)),
        1 => (0u32..64, 0u32..64).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

fn small_cfg() -> TreeConfig {
    TreeConfig {
        leaf_cap: 4,
        branch_cap: 4,
        buffer_pages: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_matches_sorted_vec_oracle(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut tree: BPlusTree<u32, u32> = BPlusTree::new(small_cfg());
        let mut oracle: Vec<(u32, u32)> = Vec::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    // The tree's contract: (key, value) pairs are unique
                    // (values are tie-breakers — an object id appears once).
                    if oracle.binary_search(&(k, v)).is_err() {
                        tree.insert(k, v);
                        let pos = oracle.partition_point(|e| *e <= (k, v));
                        oracle.insert(pos, (k, v));
                    }
                }
                Op::Remove(k, v) => {
                    let expected = oracle.iter().position(|&e| e == (k, v));
                    let removed = tree.remove(k, v);
                    prop_assert_eq!(removed, expected.is_some());
                    if let Some(pos) = expected {
                        oracle.remove(pos);
                    }
                }
                Op::Range(lo, hi) => {
                    let got = tree.range(lo, hi);
                    let want: Vec<(u32, u32)> = oracle
                        .iter()
                        .copied()
                        .filter(|&(k, _)| lo <= k && k <= hi)
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), oracle.len());
        }
        tree.check_invariants(true);
        prop_assert_eq!(tree.collect_all(), oracle);
    }

    #[test]
    fn bulk_load_equals_inserts(mut entries in prop::collection::vec((0u32..100, 0u32..10000), 0..400),
                                fill in 0.3f64..1.0) {
        entries.sort_unstable();
        entries.dedup();
        let bulk = BPlusTree::bulk_load(small_cfg(), &entries, fill);
        bulk.check_invariants(false);
        prop_assert_eq!(bulk.collect_all(), entries.clone());

        let mut incr: BPlusTree<u32, u32> = BPlusTree::new(small_cfg());
        for &(k, v) in &entries {
            incr.insert(k, v);
        }
        prop_assert_eq!(incr.collect_all(), entries);
    }

    /// Delete-heavy workloads over a tiny key domain: with only eight
    /// distinct keys and hundreds of entries, every key is a long run
    /// of duplicates, and the removal phase repeatedly drives leaves
    /// and branches through underflow, borrowing, and merges.
    #[test]
    fn delete_heavy_duplicates_match_oracle(
        inserts in prop::collection::vec((0u32..8, 0u32..10000), 50..250),
        removal_order in prop::collection::vec(0usize..1000, 300..400),
        checkpoints in prop::collection::vec(proptest::bool::ANY, 300..400),
    ) {
        let mut tree: BPlusTree<u32, u32> = BPlusTree::new(small_cfg());
        let mut oracle: Vec<(u32, u32)> = Vec::new();
        for (k, v) in inserts {
            if oracle.binary_search(&(k, v)).is_err() {
                tree.insert(k, v);
                let pos = oracle.partition_point(|e| *e <= (k, v));
                oracle.insert(pos, (k, v));
            }
        }
        tree.check_invariants(true);

        // Remove in an arbitrary order until the tree is empty; the
        // occupancy check after every removal catches any leaf or
        // branch that a merge/borrow left under-filled or mis-keyed.
        for (step, (&pick, &check)) in
            removal_order.iter().zip(checkpoints.iter()).enumerate()
        {
            if oracle.is_empty() {
                break;
            }
            let (k, v) = oracle.remove(pick % oracle.len());
            prop_assert!(tree.remove(k, v), "step {}: ({}, {}) vanished", step, k, v);
            prop_assert_eq!(tree.len(), oracle.len());
            if check {
                tree.check_invariants(true);
            }
        }
        tree.check_invariants(true);
        prop_assert_eq!(tree.collect_all(), oracle.clone());

        // Double-removal of anything already gone must report false.
        if let Some(&(k, v)) = oracle.first() {
            prop_assert!(tree.remove(k, v));
            prop_assert!(!tree.remove(k, v));
        }
    }

    /// Bulk-loaded trees must survive complete tear-down: every packed
    /// leaf (including maximally-filled ones) goes through the same
    /// underflow machinery as incrementally built trees.
    #[test]
    fn bulk_load_then_delete_all(
        mut entries in prop::collection::vec((0u32..16, 0u32..10000), 1..300),
        fill in 0.5f64..1.0,
        removal_order in prop::collection::vec(0usize..1000, 300..301),
    ) {
        entries.sort_unstable();
        entries.dedup();
        let mut tree = BPlusTree::bulk_load(small_cfg(), &entries, fill);
        tree.check_invariants(false);
        prop_assert_eq!(tree.len(), entries.len());

        let mut oracle = entries;
        for &pick in &removal_order {
            if oracle.is_empty() {
                break;
            }
            let (k, v) = oracle.remove(pick % oracle.len());
            prop_assert!(tree.remove(k, v));
            // Post-bulk-load occupancy can legitimately sit below the
            // strict floor right after packing, so check loosely during
            // tear-down and exactly at the end.
            tree.check_invariants(false);
            prop_assert_eq!(tree.collect_all(), oracle.clone());
        }
        prop_assert!(tree.is_empty());
        prop_assert_eq!(tree.range(0, u32::MAX), vec![]);

        // The emptied tree must remain fully usable.
        tree.insert(3, 7);
        prop_assert_eq!(tree.collect_all(), vec![(3u32, 7u32)]);
    }

    #[test]
    fn f64_keys_roundtrip(keys in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut tree: BPlusTree<f64, u64> = BPlusTree::new(small_cfg());
        for (i, &k) in keys.iter().enumerate() {
            tree.insert(k, i as u64);
        }
        tree.check_invariants(true);
        let mut expected: Vec<(f64, u64)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(tree.collect_all(), expected);
        // Every inserted entry must be removable.
        for (i, &k) in keys.iter().enumerate() {
            prop_assert!(tree.remove(k, i as u64));
        }
        prop_assert!(tree.is_empty());
    }
}

/// Keys and bounds of the leaf-run properties: a small integer domain
/// (long duplicate runs that straddle many 4-entry leaves), both zeros,
/// both infinities, and a few fractions between the integers.
fn run_key() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => (0u32..20).prop_map(f64::from),
        1 => Just(0.0f64),
        1 => Just(-0.0f64),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        2 => -2.0f64..22.0,
    ]
}

/// One `[lo, hi]` scan checked every way the tree offers it: the runs
/// of the live tree and of its snapshot concatenate to exactly the
/// entries a per-entry filter of the whole tree keeps, no run is empty,
/// the per-entry and collecting wrappers agree, and the pages the
/// snapshot reports are the reads the live tree pays from a cold pool.
/// Returns `(entries, pages)`.
fn check_scan(
    tree: &mut BPlusTree<f64, u32>,
    frozen: &FrozenTree<f64, u32>,
    lo: f64,
    hi: f64,
) -> Result<(usize, u64), TestCaseError> {
    let want: Vec<(f64, u32)> = tree
        .collect_all()
        .into_iter()
        .filter(|&(k, _)| lo <= k && k <= hi)
        .collect();

    tree.clear_buffer();
    let reads_before = tree.stats().reads();
    let mut live = Vec::new();
    let mut live_runs = 0usize;
    tree.range_runs(lo, hi, |run| {
        assert!(!run.is_empty(), "empty live run in [{lo}, {hi}]");
        live_runs += 1;
        live.extend_from_slice(run);
    })
    .expect("memory backend");
    let live_reads = tree.stats().reads() - reads_before;
    prop_assert_eq!(&live, &want, "live runs, [{}, {}]", lo, hi);

    let mut snap = Vec::new();
    let mut snap_runs = 0usize;
    let pages = frozen.range_runs(lo, hi, |run| {
        assert!(!run.is_empty(), "empty frozen run in [{lo}, {hi}]");
        snap_runs += 1;
        snap.extend_from_slice(run);
    });
    prop_assert_eq!(&snap, &want, "frozen runs, [{}, {}]", lo, hi);
    prop_assert_eq!(snap_runs, live_runs);
    prop_assert_eq!(pages, live_reads, "pages vs cold reads, [{}, {}]", lo, hi);

    // The wrappers are the same walk.
    let mut each = Vec::new();
    let each_pages = frozen.range_for_each(lo, hi, |k, v| each.push((k, v)));
    prop_assert_eq!(&each, &want);
    prop_assert_eq!(each_pages, pages);
    prop_assert_eq!(&frozen.range(lo, hi), &want);
    prop_assert_eq!(&tree.range(lo, hi), &want);

    if lo > hi {
        prop_assert_eq!(pages, 0, "an inverted range touches nothing");
    } else {
        // A descent plus at least the landing leaf, and never more
        // leaves than one per run plus the two boundary leaves.
        let height = tree.height() as u64;
        prop_assert!(pages >= height);
        prop_assert!(pages <= height + live_runs as u64 + 1);
    }
    Ok((want.len(), pages))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Leaf runs ≡ the per-entry scan, on random trees (duplicate keys,
    /// 4-entry leaves, after deletes and merges) and random bounds —
    /// including `lo == hi`, `lo > hi`, empty ranges, ±0.0, infinities,
    /// and bounds sitting exactly on leaf edges.
    #[test]
    fn leaf_runs_equal_the_per_entry_scan(
        inserts in prop::collection::vec((run_key(), 0u32..1000), 1..260),
        removals in prop::collection::vec(0usize..1000, 0..200),
        bounds in prop::collection::vec((run_key(), run_key()), 8..24),
        edges in prop::collection::vec((0usize..1000, 0usize..1000), 4..12),
    ) {
        let mut tree: BPlusTree<f64, u32> = BPlusTree::new(small_cfg());
        let mut oracle: Vec<(f64, u32)> = Vec::new();
        for (k, v) in inserts {
            if !oracle.contains(&(k, v)) {
                tree.insert(k, v);
                oracle.push((k, v));
            }
        }
        for pick in removals {
            if oracle.is_empty() {
                break;
            }
            let (k, v) = oracle.swap_remove(pick % oracle.len());
            prop_assert!(tree.remove(k, v));
        }
        tree.check_invariants(true);
        let frozen = tree.freeze();

        // The whole chain, one run per non-empty leaf: where the leaf
        // edges are.
        let mut leaves: Vec<Vec<(f64, u32)>> = Vec::new();
        frozen.range_runs(f64::NEG_INFINITY, f64::INFINITY, |run| leaves.push(run.to_vec()));
        prop_assert_eq!(leaves.concat(), tree.collect_all());

        for (a, b) in bounds {
            check_scan(&mut tree, &frozen, a, b)?;
            check_scan(&mut tree, &frozen, a, a)?;
            check_scan(&mut tree, &frozen, a.min(b), a.max(b))?;
        }
        if !leaves.is_empty() {
            for (i, j) in edges {
                let (from, to) = (&leaves[i % leaves.len()], &leaves[j % leaves.len()]);
                // `lo` on a leaf's last key, `hi` on a leaf's first key.
                let (lo, hi) = (from[from.len() - 1].0, to[0].0);
                check_scan(&mut tree, &frozen, lo, hi)?;
                check_scan(&mut tree, &frozen, lo, lo)?;
                check_scan(&mut tree, &frozen, hi, hi)?;
            }
        }
    }
}

/// Page counts of fixed scans over a fixed tree, as the per-entry loop
/// this walk replaced produced them (taken from the commit before it):
/// the I/O model — which pages a range scan touches — must not drift.
#[test]
fn leaf_run_page_counts_are_pinned() {
    let mut tree: BPlusTree<f64, u32> = BPlusTree::new(small_cfg());
    for i in 0..600u32 {
        tree.insert(f64::from(i * 7 % 41), i);
    }
    for i in (0..600u32).step_by(3) {
        assert!(tree.remove(f64::from(i * 7 % 41), i));
    }
    let frozen = tree.freeze();
    assert_eq!((tree.height(), tree.len()), (6, 400));
    let inf = f64::INFINITY;
    // (lo, hi, entries reported, pages visited)
    let pinned = [
        (0.0, 40.0, 400, 177),
        (5.0, 5.0, 9, 11),
        (10.5, 10.9, 0, 7),
        (40.0, 40.0, 10, 10),
        (-inf, 0.0, 10, 10),
        (17.0, 23.0, 70, 37),
        (39.5, inf, 10, 10),
        (20.0, 3.0, 0, 0),
    ];
    for (lo, hi, entries, pages) in pinned {
        let got = check_scan(&mut tree, &frozen, lo, hi).expect("scan");
        assert_eq!(got, (entries, pages), "[{lo}, {hi}]");
    }
}
