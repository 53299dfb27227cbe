//! The paper's baseline (§3.1, §5): trajectories as line segments in an
//! R\*-tree.
//!
//! Each object's known future trajectory — from its last update until it
//! must hit a terrain border and update again — is a line segment in the
//! `(t, y)` plane, stored by its MBR (the paper's 20-byte entry: two end
//! points + pointer, 204 per page). A MOR query is the rectangle
//! `[t1, t2] × [y1, y2]`; candidates whose MBR intersects are refined
//! against the exact segment.
//!
//! The paper's point, reproduced by Figures 6/7/9: the segments are
//! long, mutually overlapping, and share their "end of knowledge" times,
//! so MBRs overlap massively — queries touch much of the tree and
//! updates cost >90 I/Os.
//!
//! Answer semantics note: this method sees an object only until its
//! border hit (exactly what the database knows — the object *must*
//! update there), so its answers are defined by segment geometry; the
//! test oracle clips trajectories the same way.

use crate::ids::assemble;
use crate::method::{Index1D, IndexStats};
use mobidx_geom::{Point2, Rect2, Segment};
use mobidx_pager::Store;
use mobidx_rstar::{RStarConfig, RStarTree};
use mobidx_workload::{MorQuery1D, Motion1D};
use std::fmt;

/// Configuration of the baseline.
#[derive(Debug, Clone, Copy)]
pub struct SegRTreeConfig {
    /// Terrain length (`y_max`) — determines border-hit times.
    pub terrain: f64,
    /// R\*-tree parameters.
    pub rstar: RStarConfig,
}

impl Default for SegRTreeConfig {
    fn default() -> Self {
        Self {
            terrain: 1000.0,
            rstar: RStarConfig::default(),
        }
    }
}

/// The line-segment R\*-tree baseline.
#[derive(Debug)]
pub struct SegRTreeIndex {
    tree: RStarTree<(u64, bool)>,
    cfg: SegRTreeConfig,
    last_candidates: u64,
}

impl SegRTreeIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new(cfg: SegRTreeConfig) -> Self {
        Self {
            tree: RStarTree::new(cfg.rstar),
            cfg,
            last_candidates: 0,
        }
    }

    /// The trajectory segment the database stores for `m`: from the last
    /// update to the border hit.
    #[must_use]
    pub fn segment_of(&self, m: &Motion1D) -> Segment {
        let t_hit = if m.v > 0.0 {
            m.t0 + (self.cfg.terrain - m.y0) / m.v
        } else if m.v < 0.0 {
            m.t0 + (0.0 - m.y0) / m.v
        } else {
            // Static object: the paper handles v ≈ 0 separately (§3.6);
            // represent it with a long horizontal segment.
            m.t0 + 1e6
        };
        let y_hit = m.position_at(t_hit).clamp(0.0, self.cfg.terrain);
        Segment::new(Point2::new(m.t0, m.y0), Point2::new(t_hit, y_hit))
    }

    /// The exact answer this method's knowledge defines (segment-clipped
    /// trajectories) — the test oracle.
    #[must_use]
    pub fn brute_force(&self, objects: &[Motion1D], q: &MorQuery1D) -> Vec<u64> {
        let rect = query_rect(q);
        let mut ids = Vec::new();
        assemble(&mut ids, |candidates| {
            candidates.extend(
                objects
                    .iter()
                    .filter(|m| self.segment_of(m).intersects_rect(&rect))
                    .map(|m| m.id),
            );
        });
        ids
    }

    fn entry_of(&self, m: &Motion1D) -> (Rect2, (u64, bool)) {
        let seg = self.segment_of(m);
        (seg.mbr(), (m.id, m.v >= 0.0))
    }
}

fn query_rect(q: &MorQuery1D) -> Rect2 {
    Rect2::from_bounds(q.t1, q.y1, q.t2, q.y2)
}

/// Reconstructs the stored segment from its MBR and orientation flag
/// (rising segments run lo→hi corner, falling ones the other diagonal).
fn segment_from_entry(mbr: &Rect2, rising: bool) -> Segment {
    if rising {
        Segment::new(mbr.lo, mbr.hi)
    } else {
        Segment::new(
            Point2::new(mbr.lo.x, mbr.hi.y),
            Point2::new(mbr.hi.x, mbr.lo.y),
        )
    }
}

impl IndexStats for SegRTreeIndex {
    fn name(&self) -> String {
        "seg-R*".to_owned()
    }

    fn stores(&self, visit: &mut dyn FnMut(fmt::Arguments<'_>, &dyn Store)) {
        visit(format_args!("all"), self.tree.store());
    }

    fn stores_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Store)) {
        visit(self.tree.store_mut());
    }

    fn last_candidates(&self) -> u64 {
        self.last_candidates
    }
}

impl Index1D for SegRTreeIndex {
    fn insert(&mut self, m: &Motion1D) {
        let (mbr, item) = self.entry_of(m);
        self.tree.insert(mbr, item);
    }

    fn remove(&mut self, m: &Motion1D) -> bool {
        let (mbr, item) = self.entry_of(m);
        self.tree.remove(mbr, item)
    }

    fn search(&mut self, q: &MorQuery1D, out: &mut Vec<u64>) {
        let rect = query_rect(q);
        let mut candidates = 0u64;
        assemble(out, |ids| {
            self.tree.search_with(&rect, |mbr, (id, rising)| {
                candidates += 1;
                // Refine: the MBR intersects, does the segment?
                if segment_from_entry(&mbr, rising).intersects_rect(&rect) {
                    ids.push(id);
                }
            });
        });
        self.last_candidates = candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidx_workload::{Simulator1D, WorkloadConfig};

    fn small_index() -> SegRTreeIndex {
        SegRTreeIndex::new(SegRTreeConfig {
            terrain: 1000.0,
            rstar: RStarConfig::with_max(16),
        })
    }

    #[test]
    fn segment_ends_at_border() {
        let idx = small_index();
        let m = Motion1D {
            id: 1,
            t0: 0.0,
            y0: 900.0,
            v: 1.0,
        };
        let s = idx.segment_of(&m);
        assert!((s.b.x - 100.0).abs() < 1e-9);
        assert!((s.b.y - 1000.0).abs() < 1e-9);
        let m2 = Motion1D {
            id: 2,
            t0: 50.0,
            y0: 100.0,
            v: -0.5,
        };
        let s2 = idx.segment_of(&m2);
        assert!((s2.b.x - 250.0).abs() < 1e-9);
        assert!((s2.b.y - 0.0).abs() < 1e-9);
    }

    #[test]
    fn orientation_roundtrip() {
        let idx = small_index();
        for v in [0.7, -0.7] {
            let m = Motion1D {
                id: 1,
                t0: 10.0,
                y0: 500.0,
                v,
            };
            let seg = idx.segment_of(&m);
            let rebuilt = segment_from_entry(&seg.mbr(), v >= 0.0);
            assert!((rebuilt.a.x - seg.a.x).abs() < 1e-9);
            assert!((rebuilt.a.y - seg.a.y).abs() < 1e-9);
            assert!((rebuilt.b.y - seg.b.y).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_segment_oracle_under_updates() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 400,
            updates_per_instant: 25,
            seed: 5,
            ..WorkloadConfig::default()
        });
        let mut idx = small_index();
        for m in sim.objects() {
            idx.insert(m);
        }
        for _ in 0..30 {
            for u in sim.step() {
                assert!(idx.remove(&u.old), "stale record for {}", u.old.id);
                idx.insert(&u.new);
            }
        }
        for _ in 0..20 {
            let q = sim.gen_query(150.0, 60.0);
            let got = idx.query(&crate::method::QueryRequest::new(&q));
            let want = idx.brute_force(sim.objects(), &q);
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn empty_index_empty_answer() {
        let mut idx = small_index();
        let q = MorQuery1D {
            y1: 0.0,
            y2: 1000.0,
            t1: 0.0,
            t2: 100.0,
        };
        assert!(idx.query(&crate::method::QueryRequest::new(&q)).is_empty());
    }
}
