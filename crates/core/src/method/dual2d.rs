//! The full 2-D problem (§4.2).
//!
//! A trajectory in the `(x, y, t)` space projects to lines in the
//! `(t, x)` and `(t, y)` planes; taking Hough-X duals of both gives the
//! 4-D point `(vx, ax, vy, ay)`. The 2-D MOR query becomes the product
//! of two planar wedges (one per projection), split by velocity signs
//! into four simplex queries. Three methods, as the paper sketches:
//!
//! * [`Dual4KdIndex`] — the 4-D points in a paged kd-tree ("a simple
//!   approach to solve the 4-dimensional problem is to use an index
//!   based on the kd-tree");
//! * [`Dual4PtreeIndex`] — a 4-D partition tree, `O(n^{3/4+ε} + k)`;
//! * [`Decomposition2D`] — two independent 1-D MOR queries (the §3.5.2
//!   method per axis) whose answers are intersected and then refined
//!   exactly (the intersection alone is a superset: the object must be
//!   in both ranges *simultaneously*).
//!
//! 4-D intercepts are kept at `t_base = 0` (no rotation): over any
//! realistic horizon the magnitudes stay far below `f64` precision
//! limits; the 1-D methods demonstrate the rotation machinery.

use crate::dual::{hough_x_query, SpeedBand};
use crate::ids::assemble;
use crate::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use crate::method::{Index1D, Index2D, IndexStats};
use mobidx_geom::ProductRegion;
use mobidx_kdtree::{KdConfig, KdTree};
use mobidx_pager::{Store, PAGER_FAULT};
use mobidx_ptree::{PartitionConfig, PartitionForest};
use mobidx_workload::{MorQuery2D, Motion1D, Motion2D};
use std::fmt;

/// The 4-D dual point of a 2-D motion (intercepts at absolute time 0).
#[must_use]
pub fn dual4_point(m: &Motion2D) -> [f64; 4] {
    [
        m.vx,
        m.x_motion().intercept(),
        m.vy,
        m.y_motion().intercept(),
    ]
}

/// Reconstructs the motion a 4-D dual point encodes (intercepts are at
/// absolute time 0, so `t0 = 0`).
fn motion_of_dual4(p: &[f64; 4], id: u64) -> Motion2D {
    Motion2D {
        id,
        t0: 0.0,
        x0: p[1],
        y0: p[3],
        vx: p[0],
        vy: p[2],
    }
}

/// The four sign-split product regions of a 2-D MOR query.
///
/// Note the semantics (as in the paper's §4.2): the 4-D simplex asserts
/// that *each projection* matches its 1-D query — a superset of the true
/// 2-D answer, since the object must be inside the rectangle on both
/// axes *simultaneously*. Reported points are therefore refined against
/// [`MorQuery2D::matches`] using the motion reconstructed from the dual
/// point.
fn dual4_regions(q: &MorQuery2D, band: &SpeedBand) -> [ProductRegion; 4] {
    let (pos_x, neg_x) = hough_x_query(&q.x_query(), band, 0.0);
    let (pos_y, neg_y) = hough_x_query(&q.y_query(), band, 0.0);
    [
        ProductRegion::new(pos_x.clone(), pos_y.clone()),
        ProductRegion::new(pos_x, neg_y.clone()),
        ProductRegion::new(neg_x.clone(), pos_y),
        ProductRegion::new(neg_x, neg_y),
    ]
}

/// §4.2 via a 4-D paged kd-tree.
#[derive(Debug)]
pub struct Dual4KdIndex {
    tree: KdTree<4, u64>,
    band: SpeedBand,
}

impl Dual4KdIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new(kd: KdConfig, band: SpeedBand) -> Self {
        Self {
            tree: KdTree::new(kd),
            band,
        }
    }
}

impl IndexStats for Dual4KdIndex {
    fn name(&self) -> String {
        "dual4-kd".to_owned()
    }

    fn stores(&self, visit: &mut dyn FnMut(fmt::Arguments<'_>, &dyn Store)) {
        visit(format_args!("all"), self.tree.store());
    }

    fn stores_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Store)) {
        visit(self.tree.store_mut());
    }
}

impl Index2D for Dual4KdIndex {
    fn insert(&mut self, m: &Motion2D) {
        self.tree
            .try_insert(dual4_point(m), m.id)
            .expect(PAGER_FAULT);
    }

    fn remove(&mut self, m: &Motion2D) -> bool {
        self.tree
            .try_remove(dual4_point(m), m.id)
            .expect(PAGER_FAULT)
    }

    fn search(&mut self, q: &MorQuery2D, out: &mut Vec<u64>) -> u64 {
        let mut candidates = 0u64;
        assemble(out, |ids| {
            for region in dual4_regions(q, &self.band) {
                self.tree
                    .try_query(&region, |p, id| {
                        candidates += 1;
                        if q.matches(&motion_of_dual4(p, id)) {
                            ids.push(id);
                        }
                    })
                    .expect(PAGER_FAULT);
            }
        });
        candidates
    }
}

/// §4.2 via a 4-D partition tree (`O(n^{3/4+ε} + k)` worst case).
#[derive(Debug)]
pub struct Dual4PtreeIndex {
    forest: PartitionForest<4, u64>,
    band: SpeedBand,
}

impl Dual4PtreeIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new(cfg: PartitionConfig, band: SpeedBand) -> Self {
        Self {
            forest: PartitionForest::new(cfg),
            band,
        }
    }
}

impl IndexStats for Dual4PtreeIndex {
    fn name(&self) -> String {
        "dual4-ptree".to_owned()
    }

    fn stores(&self, visit: &mut dyn FnMut(fmt::Arguments<'_>, &dyn Store)) {
        visit(format_args!("all"), self.forest.store());
    }

    fn stores_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Store)) {
        visit(self.forest.store_mut());
    }
}

impl Index2D for Dual4PtreeIndex {
    fn insert(&mut self, m: &Motion2D) {
        self.forest.insert(dual4_point(m), m.id);
    }

    fn remove(&mut self, m: &Motion2D) -> bool {
        self.forest.remove(dual4_point(m), m.id)
    }

    fn search(&mut self, q: &MorQuery2D, out: &mut Vec<u64>) -> u64 {
        let mut candidates = 0u64;
        assemble(out, |ids| {
            for region in dual4_regions(q, &self.band) {
                self.forest.query(&region, |p, id| {
                    candidates += 1;
                    if q.matches(&motion_of_dual4(p, id)) {
                        ids.push(id);
                    }
                });
            }
        });
        candidates
    }
}

/// §4.2's decomposition method: a 1-D index per axis; answers are
/// intersected on object id and refined exactly against simultaneous
/// residence.
#[derive(Debug)]
pub struct Decomposition2D {
    x_index: DualBPlusIndex,
    y_index: DualBPlusIndex,
}

impl Decomposition2D {
    /// Creates an empty index (the per-axis configuration is shared;
    /// `terrain` should be the larger terrain side).
    #[must_use]
    pub fn new(per_axis: DualBPlusConfig) -> Self {
        Self {
            x_index: DualBPlusIndex::new(per_axis),
            y_index: DualBPlusIndex::new(per_axis),
        }
    }
}

/// Exact 2-D refinement from reconstructed per-axis motions: the
/// per-axis residence time intervals and the window must share a point.
fn matches_axes(mx: &Motion1D, my: &Motion1D, q: &MorQuery2D) -> bool {
    let ix = residence(mx, q.x1, q.x2);
    let iy = residence(my, q.y1, q.y2);
    let lo = ix.0.max(iy.0).max(q.t1);
    let hi = ix.1.min(iy.1).min(q.t2);
    lo <= hi
}

fn residence(m: &Motion1D, lo: f64, hi: f64) -> (f64, f64) {
    if m.v.abs() < 1e-12 {
        return if lo <= m.y0 && m.y0 <= hi {
            (f64::NEG_INFINITY, f64::INFINITY)
        } else {
            (f64::INFINITY, f64::NEG_INFINITY)
        };
    }
    let a = m.t0 + (lo - m.y0) / m.v;
    let b = m.t0 + (hi - m.y0) / m.v;
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl IndexStats for Decomposition2D {
    fn name(&self) -> String {
        "decompose-2x1D".to_owned()
    }

    /// Every store of the per-axis indexes, labelled `x` and `y`.
    fn stores(&self, visit: &mut dyn FnMut(fmt::Arguments<'_>, &dyn Store)) {
        self.x_index
            .stores(&mut |_, store| visit(format_args!("x"), store));
        self.y_index
            .stores(&mut |_, store| visit(format_args!("y"), store));
    }

    fn stores_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Store)) {
        self.x_index.stores_mut(visit);
        self.y_index.stores_mut(visit);
    }
}

impl Index2D for Decomposition2D {
    fn insert(&mut self, m: &Motion2D) {
        self.x_index.insert(&m.x_motion());
        self.y_index.insert(&m.y_motion());
    }

    fn remove(&mut self, m: &Motion2D) -> bool {
        let a = self.x_index.remove(&m.x_motion());
        let b = self.y_index.remove(&m.y_motion());
        a && b
    }

    /// The candidates are both per-axis scans': the join and refinement
    /// here discard anything matching only one axis.
    fn search(&mut self, q: &MorQuery2D, out: &mut Vec<u64>) -> u64 {
        let (x_hits, x_candidates) = self.x_index.query_motions(&q.x_query());
        let (y_hits, y_candidates) = self.y_index.query_motions(&q.y_query());
        // Hash-join on id, then refine exactly.
        let mut y_by_id = std::collections::HashMap::with_capacity(y_hits.len());
        for my in y_hits {
            y_by_id.insert(my.id, my);
        }
        assemble(out, |ids| {
            ids.extend(x_hits.into_iter().filter_map(|mx| {
                y_by_id
                    .get(&mx.id)
                    .filter(|my| matches_axes(&mx, my, q))
                    .map(|_| mx.id)
            }));
        });
        x_candidates + y_candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidx_bptree::TreeConfig;
    use mobidx_workload::{brute_force_2d, Simulator2D, WorkloadConfig2D};

    fn scenario(seed: u64) -> Simulator2D {
        Simulator2D::new(WorkloadConfig2D {
            n: 500,
            updates_per_instant: 25,
            seed,
            ..WorkloadConfig2D::default()
        })
    }

    fn drive<I: Index2D>(idx: &mut I, seed: u64) {
        let mut sim = scenario(seed);
        for m in sim.objects() {
            idx.insert(m);
        }
        for step in 0..20 {
            for u in sim.step() {
                assert!(idx.remove(&u.old), "{}: step {step} stale", idx.name());
                idx.insert(&u.new);
            }
            if step % 5 == 0 {
                for _ in 0..6 {
                    let q = sim.gen_query(200.0, 40.0);
                    let got = idx.query(&crate::method::QueryRequest::new(&q));
                    let want = brute_force_2d(sim.objects(), &q);
                    assert_eq!(got, want, "{}: step {step} {q:?}", idx.name());
                }
            }
        }
    }

    #[test]
    fn kd4_matches_brute_force() {
        let mut idx = Dual4KdIndex::new(KdConfig::small(16, 8), SpeedBand::paper());
        drive(&mut idx, 61);
    }

    #[test]
    fn ptree4_matches_brute_force() {
        let mut idx = Dual4PtreeIndex::new(PartitionConfig::small(16, 8), SpeedBand::paper());
        drive(&mut idx, 62);
    }

    #[test]
    fn decomposition_matches_brute_force() {
        let mut idx = Decomposition2D::new(DualBPlusConfig {
            c: 4,
            tree: TreeConfig {
                leaf_cap: 16,
                branch_cap: 16,
                buffer_pages: 4,
            },
            ..DualBPlusConfig::default()
        });
        drive(&mut idx, 63);
    }

    #[test]
    fn decomposition_refinement_removes_false_positives() {
        // An object that is in the x-range early and the y-range late
        // must not be reported.
        let mut idx = Decomposition2D::new(DualBPlusConfig {
            c: 2,
            tree: TreeConfig {
                leaf_cap: 8,
                branch_cap: 8,
                buffer_pages: 4,
            },
            ..DualBPlusConfig::default()
        });
        let m = Motion2D {
            id: 1,
            t0: 0.0,
            x0: 0.0,
            y0: 0.0,
            vx: 1.0,
            vy: 0.2,
        };
        idx.insert(&m);
        let q = MorQuery2D {
            x1: 0.0,
            x2: 1.0,
            y1: 1.0,
            y2: 1.2,
            t1: 0.0,
            t2: 10.0,
        };
        assert!(q.x_query().matches(&m.x_motion()));
        assert!(q.y_query().matches(&m.y_motion()));
        assert!(!q.matches(&m));
        assert_eq!(
            idx.query(&crate::method::QueryRequest::new(&q)),
            Vec::<u64>::new()
        );
    }
}
