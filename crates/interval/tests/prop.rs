//! Property tests: the interval index against a naive interval list.

use mobidx_interval::{IntervalConfig, IntervalTree};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(f64, f64),
    RemoveNth(usize),
    Stab(f64),
    Window(f64, f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0.0f64..1000.0, 0.0f64..200.0).prop_map(|(s, len)| Op::Insert(s, s + len)),
        2 => (0usize..512).prop_map(Op::RemoveNth),
        1 => (0.0f64..1200.0).prop_map(Op::Stab),
        1 => (0.0f64..1100.0, 0.0f64..150.0).prop_map(|(a, len)| Op::Window(a, a + len)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_naive_list(ops in prop::collection::vec(op_strategy(), 1..250)) {
        let mut tree: IntervalTree<u64> = IntervalTree::new(IntervalConfig::small(4, 4));
        let mut naive: Vec<(f64, f64, u64)> = Vec::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Insert(s, e) => {
                    tree.try_insert(s, e, next_id).unwrap();
                    naive.push((s, e, next_id));
                    next_id += 1;
                }
                Op::RemoveNth(i) => {
                    if naive.is_empty() {
                        continue;
                    }
                    let (s, e, v) = naive.swap_remove(i % naive.len());
                    prop_assert!(tree.try_remove(s, e, v).unwrap());
                    prop_assert!(!tree.try_remove(s, e, v).unwrap(), "double remove succeeded");
                }
                Op::Stab(t) => {
                    let mut got = tree.try_stab(t).unwrap();
                    got.sort_unstable();
                    let mut want: Vec<u64> = naive
                        .iter()
                        .filter(|&&(s, e, _)| s <= t && t <= e)
                        .map(|&(_, _, v)| v)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
                Op::Window(a, b) => {
                    let mut got = tree.try_window(a, b).unwrap();
                    got.sort_unstable();
                    let mut want: Vec<u64> = naive
                        .iter()
                        .filter(|&&(s, e, _)| s <= b && e >= a)
                        .map(|&(_, _, v)| v)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), naive.len());
        }
        tree.check_invariants();
    }

    #[test]
    fn nested_and_identical_intervals(count in 1usize..60) {
        // Telescoping intervals all containing the center point.
        let mut tree: IntervalTree<u64> = IntervalTree::new(IntervalConfig::small(4, 4));
        for i in 0..count {
            let d = i as f64;
            tree.try_insert(500.0 - d, 500.0 + d, i as u64).unwrap();
        }
        tree.check_invariants();
        let mut got = tree.try_stab(500.0).unwrap();
        got.sort_unstable();
        let want: Vec<u64> = (0..count as u64).collect();
        prop_assert_eq!(got, want);
        // A stab outside the widest interval hits nothing.
        prop_assert!(tree.try_stab(500.0 + count as f64 + 1.0).unwrap().is_empty());
    }
}
