//! Property tests: the R\*-tree must behave exactly like a brute-force
//! rectangle set under arbitrary insert/remove/query interleavings,
//! while keeping its structural invariants.

use mobidx_geom::Rect2;
use mobidx_rstar::{RStarConfig, RStarTree};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(Rect2, u64),
    RemoveNth(usize),
    Window(Rect2),
}

fn rect_strategy() -> impl Strategy<Value = Rect2> {
    (0.0f64..1000.0, 0.0f64..1000.0, 0.0f64..120.0, 0.0f64..120.0)
        .prop_map(|(x, y, w, h)| Rect2::from_bounds(x, y, x + w, y + h))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (rect_strategy(), 0u64..100_000).prop_map(|(r, v)| Op::Insert(r, v)),
        2 => (0usize..512).prop_map(Op::RemoveNth),
        1 => rect_strategy().prop_map(Op::Window),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn matches_naive_set(ops in prop::collection::vec(op_strategy(), 1..250)) {
        let mut tree: RStarTree<u64> = RStarTree::new(RStarConfig::with_max(6));
        let mut naive: Vec<(Rect2, u64)> = Vec::new();
        let mut next_unique = 0u64;
        for op in ops {
            match op {
                Op::Insert(r, v) => {
                    // Ensure (mbr, item) uniqueness for exact removal.
                    let v = v * 1000 + next_unique % 1000;
                    next_unique += 1;
                    tree.try_insert(r, v).unwrap();
                    naive.push((r, v));
                }
                Op::RemoveNth(i) => {
                    if naive.is_empty() {
                        continue;
                    }
                    let (r, v) = naive.swap_remove(i % naive.len());
                    prop_assert!(tree.try_remove(r, v).unwrap(), "tree lost entry");
                }
                Op::Window(q) => {
                    let mut got: Vec<u64> =
                        tree.try_search(&q).unwrap().into_iter().map(|(_, v)| v).collect();
                    got.sort_unstable();
                    let mut want: Vec<u64> = naive
                        .iter()
                        .filter(|(r, _)| r.intersects(&q))
                        .map(|&(_, v)| v)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), naive.len());
        }
        tree.check_invariants();
        let mut all: Vec<u64> = tree.collect_all().into_iter().map(|(_, v)| v).collect();
        all.sort_unstable();
        let mut want: Vec<u64> = naive.iter().map(|&(_, v)| v).collect();
        want.sort_unstable();
        prop_assert_eq!(all, want);
    }

    #[test]
    fn degenerate_rects_behave(points in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..150)) {
        // Points as degenerate rectangles (the dual-plane use case).
        let mut tree: RStarTree<u64> = RStarTree::new(RStarConfig::with_max(5));
        for (i, &(x, y)) in points.iter().enumerate() {
            tree.try_insert(Rect2::from_bounds(x, y, x, y), i as u64).unwrap();
        }
        tree.check_invariants();
        let q = Rect2::from_bounds(25.0, 25.0, 75.0, 75.0);
        let mut got: Vec<u64> = tree.try_search(&q).unwrap().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = points
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| q.contains_point(mobidx_geom::Point2::new(x, y)))
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
