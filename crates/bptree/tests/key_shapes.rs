//! The tree under the key shapes that make its interpolated in-page
//! search guess badly: all-equal keys, two tight clusters far apart,
//! signed zeros, infinities and subnormals, and `u64` keys around 2⁵³
//! and `u64::MAX`. `insert`, `insert_batch`, `remove` and `contains` on
//! churned trees must agree with a `BTreeSet` model, and the structural
//! invariants must hold throughout.

use mobidx_bptree::{BPlusTree, Key, TreeConfig};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt::Debug;

/// A key in the model's order: the tree's (`-0.0` equals `0.0`).
#[derive(Debug, Clone, Copy)]
struct Ordered<K>(K);

impl<K: PartialOrd> PartialEq for Ordered<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K: PartialOrd> Eq for Ordered<K> {}

impl<K: PartialOrd> PartialOrd for Ordered<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: PartialOrd> Ord for Ordered<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("NaN key")
    }
}

/// One operation on a key drawn from the case's pool by index, with a
/// value from a small range, so entries collide and keys repeat.
#[derive(Debug, Clone)]
enum Op {
    Insert(usize, u64),
    Remove(usize, u64),
    Batch(Vec<(usize, u64)>),
    Contains(usize, u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let pick = || (0usize..64, 0u64..12);
    let op = prop_oneof![
        4 => pick().prop_map(|(k, v)| Op::Insert(k, v)),
        3 => pick().prop_map(|(k, v)| Op::Remove(k, v)),
        1 => prop::collection::vec(pick(), 0..40).prop_map(Op::Batch),
        2 => pick().prop_map(|(k, v)| Op::Contains(k, v)),
    ];
    prop::collection::vec(op, 1..400)
}

fn cfg() -> TreeConfig {
    TreeConfig {
        leaf_cap: 6,
        branch_cap: 4,
        buffer_pages: 4,
    }
}

/// Runs `ops` over keys `pool[i % pool.len()]` against the model,
/// checking every answer, the invariants after every batch, and the
/// whole contents every 50 operations and at the end.
fn churn<K: Key, V: Copy + Ord + Debug>(
    pool: &[K],
    ops: &[Op],
    value: impl Fn(u64) -> V,
) -> Result<(), TestCaseError> {
    let mut tree: BPlusTree<K, V> = BPlusTree::new(cfg());
    let mut model: BTreeSet<(Ordered<K>, V)> = BTreeSet::new();
    let entry = |i: usize, v: u64| (pool[i % pool.len()], value(v));
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(i, v) => {
                let (k, v) = entry(*i, *v);
                // The tree's contract: an entry is inserted once.
                if model.insert((Ordered(k), v)) {
                    tree.insert(k, v);
                }
            }
            Op::Remove(i, v) => {
                let (k, v) = entry(*i, *v);
                prop_assert_eq!(
                    tree.remove(k, v),
                    model.remove(&(Ordered(k), v)),
                    "remove {:?}",
                    (k, v)
                );
            }
            Op::Batch(picks) => {
                let mut batch: Vec<(K, V)> = picks
                    .iter()
                    .map(|&(i, v)| entry(i, v))
                    .filter(|&(k, v)| model.insert((Ordered(k), v)))
                    .collect();
                batch.sort_by(|a, b| Ordered(a.0).cmp(&Ordered(b.0)).then(a.1.cmp(&b.1)));
                tree.try_insert_batch(&batch).unwrap();
                tree.check_invariants(false);
            }
            Op::Contains(i, v) => {
                let (k, v) = entry(*i, *v);
                prop_assert_eq!(
                    tree.try_contains(k, v).unwrap(),
                    model.contains(&(Ordered(k), v)),
                    "contains {:?}",
                    (k, v)
                );
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        if step % 50 == 49 || step + 1 == ops.len() {
            tree.check_invariants(false);
            let want: Vec<(K, V)> = model.iter().map(|&(k, v)| (k.0, v)).collect();
            prop_assert_eq!(tree.collect_all(), want);
        }
    }
    Ok(())
}

/// Signed zeros, infinities, subnormals and the finite extremes.
const F64_SPECIALS: [f64; 13] = [
    f64::NEG_INFINITY,
    f64::MIN,
    -1.0,
    -f64::MIN_POSITIVE,
    -5e-324,
    -0.0,
    0.0,
    5e-324,
    f64::MIN_POSITIVE / 2.0,
    f64::MIN_POSITIVE,
    1.0,
    f64::MAX,
    f64::INFINITY,
];

fn f64_pool() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        prop::collection::vec(-1e3f64..1e3, 1..64),
        (-1e3f64..1e3).prop_map(|k| vec![k]),
        prop::collection::vec((any::<bool>(), 0.0f64..1e-6), 1..64).prop_map(|v| {
            v.into_iter()
                .map(|(far, d)| if far { 1e12 + d * 1e6 } else { d })
                .collect()
        }),
        Just(F64_SPECIALS.to_vec()),
        prop::collection::vec((0..F64_SPECIALS.len() * 4, -1e3f64..1e3), 1..64).prop_map(|v| {
            v.into_iter()
                .map(|(i, k)| F64_SPECIALS.get(i).copied().unwrap_or(k))
                .collect()
        }),
    ]
}

fn u64_pool() -> impl Strategy<Value = Vec<u64>> {
    const TWO_53: u64 = 1 << 53;
    prop_oneof![
        prop::collection::vec(any::<u64>(), 1..64),
        prop::collection::vec(TWO_53 - 8..=TWO_53 + 8, 1..64),
        prop::collection::vec(u64::MAX - 16..=u64::MAX, 1..64),
        prop::collection::vec((any::<bool>(), 0u64..4), 1..64).prop_map(|v| {
            v.into_iter()
                .map(|(top, d)| if top { u64::MAX - d } else { d })
                .collect()
        }),
        any::<u64>().prop_map(|k| vec![k]),
    ]
}

fn u32_pool() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        prop::collection::vec(any::<u32>(), 1..64),
        prop::collection::vec((any::<bool>(), 0u32..4), 1..64).prop_map(|v| {
            v.into_iter()
                .map(|(top, d)| if top { u32::MAX - d } else { d })
                .collect()
        }),
        any::<u32>().prop_map(|k| vec![k]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn f64_keys_match_the_model(pool in f64_pool(), ops in ops()) {
        churn(&pool, &ops, |v| (v % 3, v / 3))?;
    }

    #[test]
    fn u64_keys_match_the_model(pool in u64_pool(), ops in ops()) {
        churn(&pool, &ops, |v| v)?;
    }

    #[test]
    fn u32_keys_match_the_model(pool in u32_pool(), ops in ops()) {
        churn(&pool, &ops, |v| v)?;
    }
}
