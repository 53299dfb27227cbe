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

    tree.store_mut().try_clear_buffer().unwrap();
    let reads_before = tree.store().stats().reads();
    let mut live = Vec::new();
    let mut live_runs = 0usize;
    tree.range_runs(lo, hi, |run| {
        assert!(!run.is_empty(), "empty live run in [{lo}, {hi}]");
        live_runs += 1;
        live.extend_from_slice(run);
    })
    .expect("memory backend");
    let live_reads = tree.store().stats().reads() - reads_before;
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

// ----------------------------------------------------------------------
// The batched insert: the entries of a sequential loop, the page accesses
// of the batch walk it replaced.
// ----------------------------------------------------------------------

/// Values of base entries are multiples of this, batch entries sit at
/// fixed offsets inside a stride, and every separator is an entry that
/// was once inserted — so `(k, v + 1 ..)` sorts directly behind a base
/// entry `(k, v)` and routes to the very leaf that holds it.
const STRIDE: u32 = 1000;

/// Keys of the batch properties: few distinct values (duplicate runs
/// across many tiny leaves) and both zeros, which tie with each other
/// but differ in bits — the one place where "existing entries win ties"
/// shows in the chain.
fn batch_key() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => (0u32..12).prop_map(f64::from),
        2 => Just(0.0f64),
        1 => Just(-0.0f64),
        2 => -2.0f64..14.0,
    ]
}

fn bits(entries: &[(f64, u32)]) -> Vec<(u64, u32)> {
    entries.iter().map(|&(k, v)| (k.to_bits(), v)).collect()
}

/// Builds the same churned tree twice (unique entries, then removals
/// that drive borrows and merges), so one copy can take a batch and the
/// other the same entries one by one.
fn churned_pair(
    cfg: TreeConfig,
    inserts: &[(f64, u32)],
    removals: &[usize],
) -> [BPlusTree<f64, u32>; 2] {
    [(); 2].map(|()| {
        let mut tree: BPlusTree<f64, u32> = BPlusTree::new(cfg);
        let mut live: Vec<(f64, u32)> = Vec::new();
        for &(k, v) in inserts {
            let e = (k, v * STRIDE);
            if !live.contains(&e) {
                tree.insert(e.0, e.1);
                live.push(e);
            }
        }
        for &pick in removals {
            if live.is_empty() {
                break;
            }
            let (k, v) = live.swap_remove(pick % live.len());
            assert!(tree.remove(k, v));
        }
        tree
    })
}

/// `insert_batch(batch)` on one tree ≡ `insert` of each entry on its
/// twin: the same chain (keys compared by bit pattern, so a `-0.0`
/// placed before the `0.0` it ties with is seen), the same length,
/// invariants and leaf links intact.
fn check_batch(
    pair: &mut [BPlusTree<f64, u32>; 2],
    batch: &[(f64, u32)],
) -> Result<(), TestCaseError> {
    let [batched, sequential] = pair;
    batched.insert_batch(batch);
    for &(k, v) in batch {
        sequential.insert(k, v);
    }
    prop_assert_eq!(batched.len(), sequential.len());
    prop_assert_eq!(
        bits(&batched.collect_all()),
        bits(&sequential.collect_all()),
        "batch {:?}",
        batch
    );
    batched.check_invariants(true);
    batched.check_leaf_links();
    Ok(())
}

/// The tree's leaves in chain order, read off a snapshot as one run per
/// (non-empty) leaf.
fn leaves_of(tree: &BPlusTree<f64, u32>) -> Vec<Vec<(f64, u32)>> {
    let mut leaves = Vec::new();
    tree.freeze()
        .range_runs(f64::NEG_INFINITY, f64::INFINITY, |run| {
            leaves.push(run.to_vec());
        });
    leaves
}

/// The `pick`-th base entry of the tree and the leaf that holds it.
fn anchor_and_leaf(tree: &BPlusTree<f64, u32>, pick: usize) -> ((f64, u32), Vec<(f64, u32)>) {
    let leaves = leaves_of(tree);
    let anchors: Vec<(f64, u32)> = leaves
        .iter()
        .flatten()
        .filter(|e| e.1 % STRIDE == 0)
        .copied()
        .collect();
    let anchor = anchors[pick % anchors.len()];
    let leaf = leaves
        .into_iter()
        .find(|leaf| bits(leaf).contains(&(anchor.0.to_bits(), anchor.1)))
        .expect("the anchor is in some leaf");
    (anchor, leaf)
}

/// `n` fresh entries directly behind `anchor`, all bound for its leaf.
fn behind(anchor: (f64, u32), offset: u32, n: usize) -> Vec<(f64, u32)> {
    (0..u32::try_from(n).unwrap())
        .map(|j| (anchor.0, anchor.1 + offset + j))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random churned trees with tiny nodes, then a batch of every shape
    /// the leaf merge and the multi-way split distinguish.
    #[test]
    fn insert_batch_equals_sequential_inserts(
        leaf_cap in 2usize..7,
        branch_cap in 3usize..6,
        inserts in prop::collection::vec((batch_key(), 0u32..400), 0..160),
        removals in prop::collection::vec(0usize..1000, 0..120),
        random in prop::collection::vec((batch_key(), 0u32..400), 0..40),
        picks in prop::collection::vec(0usize..1000, 3..4),
        levels in 1usize..4,
    ) {
        let cfg = TreeConfig { leaf_cap, branch_cap, buffer_pages: 4 };
        let mut pair = churned_pair(cfg, &inserts, &removals);

        // Empty; random and sorted; single.
        check_batch(&mut pair, &[])?;
        let mut batch: Vec<(f64, u32)> = Vec::new();
        for (k, v) in random {
            let e = (k, v * STRIDE + 900);
            if !batch.contains(&e) {
                batch.push(e);
            }
        }
        batch.sort_by(|a, b| a.partial_cmp(b).unwrap());
        check_batch(&mut pair, &batch)?;
        if let Some(&(k, v)) = batch.first() {
            check_batch(&mut pair, &[(k, v + 1)])?;
        }
        // Below every entry of the first leaf, above every entry of the
        // last.
        check_batch(&mut pair, &[(-9.0, 0), (-9.0, STRIDE), (-8.5, 0)])?;
        check_batch(&mut pair, &[(99.0, 0), (99.5, 0)])?;

        // A leaf filled to exactly `leaf_cap`, then overflowed by one.
        let (anchor, leaf) = anchor_and_leaf(&pair[0], picks[0]);
        check_batch(&mut pair, &behind(anchor, 1, leaf_cap - leaf.len()))?;
        let (_, full) = anchor_and_leaf(&pair[0], picks[0]);
        if leaf.len() < leaf_cap {
            prop_assert_eq!(full.len(), leaf_cap, "the batch was bound for one leaf");
        }
        check_batch(&mut pair, &behind(anchor, 100, 1))?;
        // One leaf, its ancestors and (on shallow trees) the root split
        // several ways at once.
        let (anchor, _) = anchor_and_leaf(&pair[0], picks[1]);
        let fanout = leaf_cap * branch_cap.pow(u32::try_from(levels).unwrap() - 1);
        check_batch(&mut pair, &behind(anchor, 300, fanout + 1))?;
        // All equal to an existing entry — spelled with the other zero
        // where the key is one — while its leaf has room: exact
        // duplicates are tolerated but may not straddle a split, so
        // this shape comes last.
        let (anchor, leaf) = anchor_and_leaf(&pair[0], picks[2]);
        let tie = if anchor.0 == 0.0 { -anchor.0 } else { anchor.0 };
        check_batch(&mut pair, &vec![(tie, anchor.1); (leaf_cap - leaf.len()).min(2)])?;
    }
}

/// A seeded churn through a 4-page pool: a bulk-loaded 10k-entry tree
/// takes `rounds` rounds of `apply_batch`, each `batch` removals and
/// `batch` insertions. A quarter of the insertions aim at one narrow
/// key band (leaves overflow and split, several ways when the batch is
/// large) and a quarter of the removals at one short stretch of the
/// chain (leaves drain, borrow and merge). Returns the pager's view of
/// it: `[reads, writes, hits, evictions, allocs, frees]`.
fn churn_io(batch: usize, rounds: usize, seed: u64) -> [u64; 6] {
    let mut state = seed;
    let mut next = move || {
        // splitmix64, spelled out here so that the pinned counters below
        // cannot move with the workspace's `rand` stand-in.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let cfg = TreeConfig {
        leaf_cap: 16,
        branch_cap: 16,
        buffer_pages: 4,
    };
    // Sorted throughout, so a position in it is a place in the chain.
    let mut live: Vec<(f64, u32)> = (0..10_000u32).map(|i| (f64::from(i / 4), i)).collect();
    let mut tree = BPlusTree::bulk_load(cfg, &live, 0.7);
    let mut fresh = 10_000u32;
    for _ in 0..rounds {
        let mut removes = Vec::with_capacity(batch);
        let mut inserts = Vec::with_capacity(batch);
        for _ in 0..batch {
            let pick = if next() % 4 == 0 {
                live.len() / 3 + usize::try_from(next() % 64).unwrap()
            } else {
                usize::try_from(next() % live.len() as u64).unwrap()
            };
            removes.push(live.remove(pick));
            #[allow(clippy::cast_precision_loss)]
            let key = if next() % 4 == 0 {
                1000.0 + (next() % 8) as f64
            } else {
                (next() % 2500) as f64
            };
            inserts.push((key, fresh));
            fresh += 1;
        }
        removes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        inserts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(tree.apply_batch(&removes, &inserts), batch);
        live.extend_from_slice(&inserts);
        live.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    tree.store_mut().try_clear_buffer().unwrap();
    // Loose occupancy: the bulk load may leave its last branch short.
    tree.check_invariants(false);
    assert_eq!(bits(&tree.collect_all()), bits(&live));
    let io = tree.store().stats();
    [
        io.reads(),
        io.writes(),
        io.hits(),
        io.evictions(),
        io.allocated(),
        io.freed(),
    ]
}

/// The contract of the batched write path is its page-access sequence:
/// which page is read, written or allocated, in which order. Through a
/// 4-page LRU pool every change to that sequence moves these counters,
/// which were taken from the batch walk as it stood before node edits
/// went in place (the commit before this test) and must never drift.
#[test]
fn batch_churn_io_is_pinned() {
    // (batch, rounds, seed) -> [reads, writes, hits, evictions, allocs, frees]
    assert_eq!(churn_io(1, 1500, 21), [9031, 4363, 7834, 10034, 1042, 36]);
    assert_eq!(churn_io(8, 400, 22), [17505, 8247, 13612, 18524, 1108, 86]);
    assert_eq!(
        churn_io(64, 120, 23),
        [28595, 16122, 37104, 29634, 1264, 222]
    );
}

/// Fault semantics of the one leaf write are `PageStore::try_write`'s:
/// a rejected write does not run the merge (the leaf, and every other
/// page, is exactly as before), a torn write runs it and then reports.
#[test]
fn batch_leaf_write_fault_semantics() {
    use mobidx_pager::{FaultPlan, FaultStore, PagerError};
    let cfg = TreeConfig {
        leaf_cap: 8,
        branch_cap: 4,
        buffer_pages: 4,
    };
    let base: Vec<(f64, u32)> = (0..200u32).map(|i| (f64::from(i), i)).collect();
    // Three entries for one half-full leaf, tying with nothing.
    let batch = [(50.25, 1), (50.5, 2), (50.75, 3)];
    let leaves = |tree: &BPlusTree<f64, u32>| -> Vec<Vec<(u64, u32)>> {
        leaves_of(tree).iter().map(|leaf| bits(leaf)).collect()
    };
    let faulty = |plan: FaultPlan| {
        let mut tree = BPlusTree::bulk_load(cfg, &base, 0.5);
        // Nothing dirty is left to write back, so the first write-class
        // access the plan can hit is the leaf mutation itself.
        tree.store_mut().try_clear_buffer().unwrap();
        let _ = tree.set_backend(Box::new(FaultStore::new(plan)));
        tree
    };

    let mut tree = faulty(FaultPlan {
        write_fault_per_mille: 1000,
        ..FaultPlan::none(7)
    });
    let before = leaves(&tree);
    let err = tree
        .try_insert_batch(&batch)
        .expect_err("every write fails");
    assert!(matches!(err, PagerError::WriteFailed { .. }), "{err:?}");
    assert_eq!(
        leaves(&tree),
        before,
        "a rejected write must not touch the leaf"
    );
    assert_eq!(tree.len(), base.len());

    let mut tree = faulty(FaultPlan {
        torn_per_mille: 1000,
        ..FaultPlan::none(7)
    });
    let err = tree
        .try_insert_batch(&batch)
        .expect_err("every write tears");
    assert!(matches!(err, PagerError::TornWrite { .. }), "{err:?}");
    let mut merged = base.clone();
    merged.extend_from_slice(&batch);
    merged.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(
        bits(&tree.collect_all()),
        bits(&merged),
        "a torn write lands"
    );
    let after = leaves(&tree);
    assert_eq!(after.len(), before.len(), "no split: the leaf had room");
    assert_eq!(
        after.iter().zip(&before).filter(|(a, b)| a != b).count(),
        1,
        "exactly one leaf changed"
    );
    // The failed insert is not counted (see `try_insert`).
    assert_eq!(tree.len(), base.len());
}

/// One step of the commit-window churn: `kind` picks insert (0–4),
/// remove (5–6) or "respell a zero key with the other zero" (7).
type ChurnOp = (u8, f64, u32, usize);

/// Applies one window of churn to `tree`, keeping `live` in step: the
/// window's removals (all of entries it found live), then its
/// insertions. On `batched` windows they go through `apply_batch`, as
/// on the serving tier; otherwise one `remove` / `insert` each.
fn churn_window(
    tree: &mut BPlusTree<f64, u32>,
    live: &mut Vec<(f64, u32)>,
    ops: &[ChurnOp],
    drain: bool,
    batched: bool,
) {
    let (mut removes, mut inserts) = (Vec::new(), Vec::new());
    for &(kind, key, val, pick) in ops {
        if kind == 7 {
            // Out as one zero, back in as the other: equal in the
            // tree's order, a different image.
            if let Some(at) = live.iter().position(|e| e.0 == 0.0) {
                let (k, v) = live.swap_remove(at);
                removes.push((k, v));
                if !inserts.contains(&(-k, v)) {
                    inserts.push((-k, v));
                }
            }
        } else if kind < 5 && !drain {
            let e = (key, val);
            if !live.contains(&e) && !inserts.contains(&e) {
                inserts.push(e);
            }
        } else if !live.is_empty() {
            removes.push(live.swap_remove(pick % live.len()));
        }
    }
    live.extend_from_slice(&inserts);
    let by_entry = |a: &(f64, u32), b: &(f64, u32)| a.partial_cmp(b).unwrap();
    removes.sort_by(by_entry);
    inserts.sort_by(by_entry);
    if batched {
        assert_eq!(tree.apply_batch(&removes, &inserts), removes.len());
    } else {
        for &(k, v) in &removes {
            assert!(tree.remove(k, v));
        }
        for &(k, v) in &inserts {
            tree.insert(k, v);
        }
    }
}

/// What reopening `dir` recovers: the image (trailing dead slots
/// trimmed — a log remembers slots that were live once, a lone image
/// commit never knew them) and the tree over it.
fn reopened(
    dir: &std::path::Path,
    cfg: TreeConfig,
) -> (mobidx_pager::RecoveredImage, BPlusTree<f64, u32>) {
    use mobidx_pager::{FileBackend, FsyncPolicy};
    let (backend, mut image) = FileBackend::open(dir, FsyncPolicy::Never).expect("reopen");
    let tree = BPlusTree::open_durable(cfg, Box::new(backend), &image).expect("image decodes");
    while image.pages.last().is_some_and(Option::is_none) {
        image.pages.pop();
    }
    (image, tree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two trees take the same churn — tiny nodes, duplicate keys, both
    /// zeros, windows that drain the tree so that leaves and branches
    /// split, borrow, merge and the root grows and collapses. One sits
    /// on a `FileBackend` and commits every window, so after the first
    /// its log is deltas wherever a node offers one. The other lives in
    /// memory and is committed once at the end: images only. Reopened,
    /// the two directories must hold the same page images byte for byte
    /// — every delta, replayed on top of its predecessors, rebuilt
    /// exactly the image — and equal trees. (In debug builds
    /// `try_commit` also checks each delta against its image as it
    /// journals it.)
    #[test]
    fn a_tree_committed_as_deltas_reopens_equal_to_one_committed_as_images(
        leaf_cap in 2usize..12,
        branch_cap in 3usize..8,
        windows in prop::collection::vec(
            (
                prop::collection::vec((0u8..8, batch_key(), 0u32..40, 0usize..1000), 1..12),
                0u8..6,
            ),
            1..40,
        ),
    ) {
        use mobidx_pager::{wal, FileBackend, FsyncPolicy, ScratchDir, WAL_FILE};
        let cfg = TreeConfig { leaf_cap, branch_cap, buffer_pages: 4 };
        let as_deltas = ScratchDir::new("bptree-prop-deltas");
        let as_images = ScratchDir::new("bptree-prop-images");

        let (backend, image) = FileBackend::open(&as_deltas, FsyncPolicy::Never).unwrap();
        let mut journaled: BPlusTree<f64, u32> =
            BPlusTree::open_durable(cfg, Box::new(backend), &image).unwrap();
        let mut in_memory: BPlusTree<f64, u32> = BPlusTree::new(cfg);
        let (mut live, mut live_twin) = (Vec::new(), Vec::new());
        for (w, (ops, shape)) in windows.iter().enumerate() {
            // One window in six only removes.
            churn_window(&mut journaled, &mut live, ops, *shape == 0, w % 2 == 1);
            churn_window(&mut in_memory, &mut live_twin, ops, *shape == 0, w % 2 == 1);
            journaled.try_commit().unwrap();
        }
        journaled.check_invariants(true);
        drop(journaled);
        let (backend, _) = FileBackend::open(&as_images, FsyncPolicy::Never).unwrap();
        drop(in_memory.set_backend(Box::new(backend)));
        in_memory.try_commit().unwrap();
        drop(in_memory);

        // The second log is images by construction.
        let log = std::fs::read(as_images.join(WAL_FILE)).unwrap();
        let deltas = wal::records(&log)
            .filter(|(rec, _)| matches!(rec, wal::WalRecord::PageDelta { .. }))
            .count();
        prop_assert_eq!(deltas, 0);

        let (image, tree) = reopened(&as_deltas, cfg);
        let (want_image, want_tree) = reopened(&as_images, cfg);
        prop_assert_eq!(image.pages, want_image.pages);
        prop_assert_eq!(image.meta, want_image.meta);
        tree.check_invariants(true);
        tree.check_leaf_links();
        prop_assert_eq!(bits(&tree.collect_all()), bits(&want_tree.collect_all()));
        // Unique under the tree's order, so sorting by it is total.
        live.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(bits(&tree.collect_all()), bits(&live));
    }
}
