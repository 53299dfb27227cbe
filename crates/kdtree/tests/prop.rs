//! Property tests: the paged kd-tree against a naive point set, under
//! arbitrary operation interleavings, box and simplex queries.

use mobidx_geom::{Aabb, ConvexPolygon, HalfPlane, QueryRegion};
use mobidx_kdtree::{KdConfig, KdTree};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert([f64; 2], u64),
    RemoveNth(usize),
    Box(Aabb<2>),
    Wedge(f64, f64, f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let pt = (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(x, y)| [x, y]);
    prop_oneof![
        4 => (pt, 0u64..1_000_000).prop_map(|(p, v)| Op::Insert(p, v)),
        2 => (0usize..512).prop_map(Op::RemoveNth),
        1 => (0.0f64..900.0, 0.0f64..900.0, 10.0f64..300.0)
            .prop_map(|(x, y, w)| Op::Box(Aabb::new([x, y], [x + w, y + w]))),
        1 => (-1.0f64..1.0, -500.0f64..1500.0, 10.0f64..400.0)
            .prop_map(|(m, b, w)| Op::Wedge(m, b, w)),
    ]
}

fn wedge(m: f64, b: f64, w: f64) -> ConvexPolygon {
    // Slab around the line y = m·x + b of width w, clipped to the terrain.
    ConvexPolygon::new(vec![
        HalfPlane::new(-m, 1.0, b + w),  // y − m·x ≤ b + w
        HalfPlane::new(m, -1.0, -b + w), // m·x − y ≤ −b + w  (y ≥ m·x + b − w)
        HalfPlane::x_ge(0.0),
        HalfPlane::x_le(1000.0),
        HalfPlane::y_ge(0.0),
        HalfPlane::y_le(1000.0),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn matches_naive_set(ops in prop::collection::vec(op_strategy(), 1..250)) {
        let mut tree: KdTree<2, u64> = KdTree::new(KdConfig::small(4, 4));
        let mut naive: Vec<([f64; 2], u64)> = Vec::new();
        let mut uniq = 0u64;
        for op in ops {
            match op {
                Op::Insert(p, v) => {
                    let v = v * 1024 + uniq % 1024;
                    uniq += 1;
                    tree.try_insert(p, v).unwrap();
                    naive.push((p, v));
                }
                Op::RemoveNth(i) => {
                    if naive.is_empty() {
                        continue;
                    }
                    let (p, v) = naive.swap_remove(i % naive.len());
                    prop_assert!(tree.try_remove(p, v).unwrap(), "tree lost a point");
                }
                Op::Box(q) => {
                    let mut got: Vec<u64> =
                        tree.try_query_collect(&q).unwrap().into_iter().map(|(_, v)| v).collect();
                    got.sort_unstable();
                    let mut want: Vec<u64> = naive
                        .iter()
                        .filter(|(p, _)| q.contains(p))
                        .map(|&(_, v)| v)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
                Op::Wedge(m, b, w) => {
                    let poly = wedge(m, b, w);
                    let mut got: Vec<u64> =
                        tree.try_query_collect(&poly).unwrap().into_iter().map(|(_, v)| v).collect();
                    got.sort_unstable();
                    let mut want: Vec<u64> = naive
                        .iter()
                        .filter(|(p, _)| QueryRegion::<2>::contains_point(&poly, p))
                        .map(|&(_, v)| v)
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
    fn clustered_points_still_exact(cluster in (400.0f64..600.0, 400.0f64..600.0),
                                    jitters in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 10..100)) {
        // Heavy clustering stresses the split-at-median logic.
        let mut tree: KdTree<2, u64> = KdTree::new(KdConfig::small(4, 4));
        let pts: Vec<[f64; 2]> = jitters
            .iter()
            .map(|&(dx, dy)| [cluster.0 + dx, cluster.1 + dy])
            .collect();
        for (i, &p) in pts.iter().enumerate() {
            tree.try_insert(p, i as u64).unwrap();
        }
        tree.check_invariants();
        let q = Aabb::new([cluster.0 - 2.0, cluster.1 - 2.0], [cluster.0 + 2.0, cluster.1 + 2.0]);
        let mut got: Vec<u64> = tree.try_query_collect(&q).unwrap().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains(p))
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
