//! Best-first nearest-neighbor search over the paged kd-tree.
//!
//! The paper lists near-neighbor queries over mobile objects as future
//! work (§7). In the dual plane they reduce to *linear-score* nearest
//! search: the predicted distance of object `(v, a)` from location `y`
//! at time `t` is `|a + t·v − y|` — an affine function of the dual
//! point, whose minimum over an axis-aligned cell is exact and cheap
//! (sign change across corners ⇒ 0, else the smallest corner
//! magnitude). [`ScoreFn`] abstracts the score so the same traversal
//! serves other affine objectives.

use crate::page::{KdPage, Ref, Split};
use crate::tree::KdTree;
use mobidx_geom::Aabb;
use mobidx_pager::PagerError;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Debug;

/// A score over points that admits exact lower bounds over boxes.
/// Smaller is better.
pub trait ScoreFn<const D: usize> {
    /// The score of a concrete point.
    fn score(&self, p: &[f64; D]) -> f64;
    /// A lower bound of the score over every point of `cell`.
    fn lower_bound(&self, cell: &Aabb<D>) -> f64;
}

/// `|Σᵢ wᵢ·pᵢ + b|` — the absolute value of an affine form. For mobile
/// objects in the Hough-X plane, `w = (t_q, 1)`, `b = −y_q` scores the
/// predicted distance from `y_q` at time `t_q`.
#[derive(Debug, Clone, Copy)]
pub struct AffineDistance<const D: usize> {
    /// Coefficients.
    pub w: [f64; D],
    /// Offset.
    pub b: f64,
}

impl<const D: usize> ScoreFn<D> for AffineDistance<D> {
    fn score(&self, p: &[f64; D]) -> f64 {
        let mut acc = self.b;
        for (w, x) in self.w.iter().zip(p) {
            acc += w * x;
        }
        acc.abs()
    }

    fn lower_bound(&self, cell: &Aabb<D>) -> f64 {
        // Min and max of the affine form over the box are attained by
        // picking, per axis, the endpoint matching the sign of wᵢ.
        let mut lo = self.b;
        let mut hi = self.b;
        for i in 0..D {
            // Unbounded cells: the affine form spans everything.
            let (a, b) = (cell.lo[i], cell.hi[i]);
            let (wa, wb) = (self.w[i] * a, self.w[i] * b);
            if wa.is_nan() || wb.is_nan() {
                return 0.0; // 0 * ±inf: the form is constant on this axis
            }
            lo += wa.min(wb);
            hi += wa.max(wb);
        }
        if lo <= 0.0 && 0.0 <= hi {
            0.0
        } else {
            lo.abs().min(hi.abs())
        }
    }
}

/// Max-heap entry ordered by smallest score first (reverse ordering).
struct HeapEntry<T> {
    score: f64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.score.total_cmp(&self.score) // min-heap
    }
}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

enum Pending<const D: usize, T> {
    Page(mobidx_pager::PageId, Aabb<D>),
    Point([f64; D], T),
}

impl<const D: usize, T: Copy + PartialEq + Debug> KdTree<D, T> {
    /// Reports the `k` stored points with the smallest score, best
    /// first, as `(point, payload, score)`.
    ///
    /// Classic best-first search: a priority queue mixes unexplored
    /// pages (keyed by the cell lower bound) and concrete points (keyed
    /// by their score); when a point surfaces it is provably no worse
    /// than everything unexplored.
    ///
    /// # Errors
    /// Surfaces pager faults raised while paging in tree nodes.
    pub fn try_nearest<S: ScoreFn<D>>(
        &mut self,
        scorer: &S,
        k: usize,
    ) -> Result<Vec<([f64; D], T, f64)>, PagerError> {
        let mut out = Vec::with_capacity(k);
        if k == 0 || self.is_empty() {
            return Ok(out);
        }
        let mut heap: BinaryHeap<HeapEntry<Pending<D, T>>> = BinaryHeap::new();
        // Start from the data bounding box, not the infinite cell: the kd
        // subdivision leaves fringe cells unbounded (with skewed data,
        // *every* cell can be a half-unbounded slab), which would
        // degenerate every affine lower bound to 0 and defeat pruning.
        let root_cell = self.data_bbox();
        heap.push(HeapEntry {
            score: scorer.lower_bound(&root_cell),
            item: Pending::Page(self.root_page(), root_cell),
        });
        while let Some(HeapEntry { item, .. }) = heap.pop() {
            match item {
                Pending::Point(p, t) => {
                    out.push((p, t, scorer.score(&p)));
                    if out.len() == k {
                        return Ok(out);
                    }
                }
                Pending::Page(pid, cell) => match self.try_read_page(pid)? {
                    KdPage::Data { points } => {
                        for (p, t) in points.clone() {
                            heap.push(HeapEntry {
                                score: scorer.score(&p),
                                item: Pending::Point(p, t),
                            });
                        }
                    }
                    KdPage::Dir { splits, root, .. } => {
                        let splits = splits.clone();
                        let root = *root;
                        push_children(&splits, root, cell, scorer, &mut heap);
                    }
                },
            }
        }
        Ok(out)
    }
}

fn push_children<const D: usize, T, S: ScoreFn<D>>(
    splits: &[Option<Split>],
    r: Ref,
    cell: Aabb<D>,
    scorer: &S,
    heap: &mut BinaryHeap<HeapEntry<Pending<D, T>>>,
) {
    match r {
        Ref::Page(pid) => heap.push(HeapEntry {
            score: scorer.lower_bound(&cell),
            item: Pending::Page(pid, cell),
        }),
        Ref::Split(idx) => {
            let s = splits[idx as usize].expect("dangling split ref");
            let (l, rr) = cell.split(usize::from(s.axis), s.at);
            push_children(splits, s.left, l, scorer, heap);
            push_children(splits, s.right, rr, scorer, heap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KdConfig;

    fn build(points: &[[f64; 2]]) -> KdTree<2, u64> {
        let mut t = KdTree::new(KdConfig::small(4, 4));
        for (i, &p) in points.iter().enumerate() {
            t.try_insert(p, i as u64).unwrap();
        }
        t
    }

    fn pseudo_points(n: usize, seed: u64) -> Vec<[f64; 2]> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            #[allow(clippy::cast_precision_loss)]
            {
                (state % 10_000) as f64 / 10.0
            }
        };
        (0..n).map(|_| [next(), next()]).collect()
    }

    #[test]
    fn affine_lower_bound_is_tight_on_corners() {
        let f = AffineDistance {
            w: [2.0, -1.0],
            b: 3.0,
        };
        let cell = Aabb::new([0.0, 0.0], [1.0, 1.0]);
        // Corner values of 2x - y + 3: 3, 5, 2, 4 → min |.| = 2.
        assert!((f.lower_bound(&cell) - 2.0).abs() < 1e-12);
        // A cell straddling the zero line bounds to 0.
        let cell0 = Aabb::new([-10.0, 0.0], [10.0, 0.0]);
        assert_eq!(f.lower_bound(&cell0), 0.0);
    }

    #[test]
    fn nearest_matches_naive() {
        let pts = pseudo_points(500, 3);
        let mut t = build(&pts);
        let scorer = AffineDistance {
            w: [30.0, 1.0],
            b: -420.0,
        };
        for k in [1usize, 5, 20] {
            let got = t.try_nearest(&scorer, k).unwrap();
            assert_eq!(got.len(), k);
            // Best-first output is sorted by score.
            assert!(got.windows(2).all(|w| w[0].2 <= w[1].2));
            // Matches the naive k smallest.
            let mut scores: Vec<f64> = pts.iter().map(|p| scorer.score(p)).collect();
            scores.sort_by(f64::total_cmp);
            for (i, &(_, _, s)) in got.iter().enumerate() {
                assert!((s - scores[i]).abs() < 1e-9, "k={k} rank {i}");
            }
        }
    }

    #[test]
    fn nearest_k_larger_than_n() {
        let pts = pseudo_points(7, 5);
        let mut t = build(&pts);
        let scorer = AffineDistance {
            w: [1.0, 1.0],
            b: 0.0,
        };
        let got = t.try_nearest(&scorer, 100).unwrap();
        assert_eq!(got.len(), 7);
    }

    #[test]
    fn nearest_on_empty_tree() {
        let mut t: KdTree<2, u64> = KdTree::new(KdConfig::small(4, 4));
        let scorer = AffineDistance {
            w: [1.0, 0.0],
            b: 0.0,
        };
        assert!(t.try_nearest(&scorer, 3).unwrap().is_empty());
    }

    #[test]
    fn nearest_prunes_io() {
        let pts = pseudo_points(20_000, 11);
        let mut t: KdTree<2, u64> = KdTree::new(KdConfig::small(64, 16));
        for (i, &p) in pts.iter().enumerate() {
            t.try_insert(p, i as u64).unwrap();
        }
        t.store_mut().try_clear_buffer().unwrap();
        let reads = t.store().stats().reads();
        let scorer = AffineDistance {
            w: [1.0, 1.0],
            b: -900.0,
        };
        let got = t.try_nearest(&scorer, 5).unwrap();
        assert_eq!(got.len(), 5);
        let cost = t.store().stats().reads() - reads;
        assert!(
            cost < t.live_pages() / 3,
            "kNN read {cost} of {} pages",
            t.live_pages()
        );
    }
}
