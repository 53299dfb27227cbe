//! The kd-tree point-access method (§3.5.1).
//!
//! Objects become Hough-X dual points `(v, intercept)`; the MOR query
//! becomes Proposition 1's pair of convex polygons, answered with the
//! linear-constraint search of Goldstein et al. over a paged kd-tree
//! (the paper's hBΠ/LSD family — Figure 3's argument is that kd splits
//! on *both* dual dimensions suit the skewed dual distribution better
//! than R-tree clustering). Intercepts are kept bounded with the
//! two-generation rotation of §3.2.

use crate::dual::SpeedBand;
use crate::method::rotating::{DualPlaneStore, RotatingDual};
use crate::method::{Index1D, IndexStats};
use mobidx_geom::ConvexPolygon;
use mobidx_kdtree::{KdConfig, KdTree};
use mobidx_pager::{Store, PAGER_FAULT};
use mobidx_workload::{MorQuery1D, Motion1D};
use std::fmt;

/// Configuration of the kd method.
#[derive(Debug, Clone, Copy)]
pub struct DualKdConfig {
    /// Terrain length (`y_max`).
    pub terrain: f64,
    /// The global speed band.
    pub band: SpeedBand,
    /// Paged kd-tree parameters.
    pub kd: KdConfig,
}

impl Default for DualKdConfig {
    fn default() -> Self {
        Self {
            terrain: 1000.0,
            band: SpeedBand::paper(),
            kd: KdConfig::default(),
        }
    }
}

/// One dual-plane generation backed by a paged kd-tree.
#[derive(Debug)]
struct KdStore {
    tree: KdTree<2, u64>,
}

impl DualPlaneStore for KdStore {
    fn insert_point(&mut self, p: [f64; 2], id: u64) {
        self.tree.try_insert(p, id).expect(PAGER_FAULT);
    }

    fn remove_point(&mut self, p: [f64; 2], id: u64) -> bool {
        self.tree.try_remove(p, id).expect(PAGER_FAULT)
    }

    fn query_polygons(&mut self, pos: &ConvexPolygon, neg: &ConvexPolygon, out: &mut Vec<u64>) {
        self.tree
            .try_query(pos, |_, id| out.push(id))
            .expect(PAGER_FAULT);
        self.tree
            .try_query(neg, |_, id| out.push(id))
            .expect(PAGER_FAULT);
    }

    fn drain_all(&mut self) -> Vec<([f64; 2], u64)> {
        let all = self.tree.collect_all();
        for &(p, id) in &all {
            let removed = self.tree.try_remove(p, id).expect(PAGER_FAULT);
            debug_assert!(removed);
        }
        all
    }

    fn len(&self) -> usize {
        self.tree.len()
    }
}

/// The §3.5.1 method.
///
/// ```
/// use mobidx_core::method::dual_kd::{DualKdConfig, DualKdIndex};
/// use mobidx_core::{Index1D, Motion1D, MorQuery1D, QueryRequest};
///
/// let mut index = DualKdIndex::new(DualKdConfig::default());
/// index.insert(&Motion1D { id: 7, t0: 0.0, y0: 500.0, v: 1.0 });
/// index.insert(&Motion1D { id: 8, t0: 0.0, y0: 400.0, v: 0.5 });
///
/// let q = MorQuery1D { y1: 505.0, y2: 515.0, t1: 5.0, t2: 10.0 };
/// assert_eq!(index.query(&QueryRequest::new(&q)), vec![7]);
///
/// // §7 future work: who will be nearest to mile 430 at t = 50?
/// let nn = index.nearest(430.0, 50.0, 1);
/// assert_eq!(nn[0].0, 8); // object 8 is at 425 then, object 7 at 550
/// ```
#[derive(Debug)]
pub struct DualKdIndex {
    rot: RotatingDual<KdStore>,
}

impl DualKdIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new(cfg: DualKdConfig) -> Self {
        let make = || KdStore {
            tree: KdTree::new(cfg.kd),
        };
        Self {
            rot: RotatingDual::new(make(), make(), cfg.band, cfg.terrain),
        }
    }

    /// Future k-nearest-neighbor query — the paper's §7 future work:
    /// "Other interesting queries are near-neighbor queries."
    ///
    /// Reports the `k` objects predicted closest to location `y` at the
    /// future instant `t`, as `(id, predicted distance)` sorted by
    /// distance. In the dual plane the predicted distance
    /// `|a + (t − t_base)·v − y|` is an affine score, so the kd-tree's
    /// best-first search answers this with exact cell bounds and no
    /// false dismissals.
    pub fn nearest(&mut self, y: f64, t: f64, k: usize) -> Vec<(u64, f64)> {
        let period = self.rot.period();
        let mut all: Vec<(u64, f64)> = Vec::new();
        for (epoch, store) in self.rot.generations_mut() {
            #[allow(clippy::cast_precision_loss)]
            let t_base = epoch as f64 * period;
            let scorer = mobidx_kdtree::AffineDistance {
                w: [t - t_base, 1.0],
                b: -y,
            };
            all.extend(
                store
                    .tree
                    .try_nearest(&scorer, k)
                    .expect(PAGER_FAULT)
                    .into_iter()
                    .map(|(_, id, score)| (id, score)),
            );
        }
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

impl IndexStats for DualKdIndex {
    fn name(&self) -> String {
        "dual-kd".to_owned()
    }

    /// The two rotation generations, `gen0` and `gen1`.
    fn stores(&self, visit: &mut dyn FnMut(fmt::Arguments<'_>, &dyn Store)) {
        for (g, (_, gen)) in self.rot.generations().enumerate() {
            visit(format_args!("gen{g}"), gen.tree.store());
        }
    }

    fn stores_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Store)) {
        for (_, gen) in self.rot.generations_mut() {
            visit(gen.tree.store_mut());
        }
    }
}

impl Index1D for DualKdIndex {
    fn insert(&mut self, m: &Motion1D) {
        self.rot.insert(m);
    }

    fn remove(&mut self, m: &Motion1D) -> bool {
        self.rot.remove(m)
    }

    fn search(&mut self, q: &MorQuery1D, out: &mut Vec<u64>) -> u64 {
        self.rot.search(q, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidx_workload::{brute_force_1d, Simulator1D, WorkloadConfig};

    fn small_index() -> DualKdIndex {
        DualKdIndex::new(DualKdConfig {
            kd: KdConfig::small(16, 8),
            ..DualKdConfig::default()
        })
    }

    #[test]
    fn matches_brute_force_under_updates() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 600,
            updates_per_instant: 30,
            seed: 11,
            ..WorkloadConfig::default()
        });
        let mut idx = small_index();
        for m in sim.objects() {
            idx.insert(m);
        }
        for step in 0..40 {
            for u in sim.step() {
                assert!(idx.remove(&u.old), "step {step}: stale {:?}", u.old);
                idx.insert(&u.new);
            }
            if step % 8 == 0 {
                for _ in 0..10 {
                    let q = sim.gen_query(150.0, 60.0);
                    let got = idx.query(&crate::method::QueryRequest::new(&q));
                    let want = brute_force_1d(sim.objects(), &q);
                    assert_eq!(got, want, "step {step} query {q:?}");
                }
            }
        }
    }

    #[test]
    fn small_queries_match_too() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 800,
            updates_per_instant: 10,
            seed: 23,
            ..WorkloadConfig::default()
        });
        let mut idx = small_index();
        for m in sim.objects() {
            idx.insert(m);
        }
        for _ in 0..5 {
            for u in sim.step() {
                idx.remove(&u.old);
                idx.insert(&u.new);
            }
        }
        for _ in 0..30 {
            let q = sim.gen_query(10.0, 20.0);
            assert_eq!(
                idx.query(&crate::method::QueryRequest::new(&q)),
                brute_force_1d(sim.objects(), &q)
            );
        }
    }

    #[test]
    fn rotation_across_periods() {
        // Tiny terrain + high v_min → short rotation period; drive time
        // across several periods and verify correctness throughout.
        let band = SpeedBand::new(1.0, 2.0);
        let mut idx = DualKdIndex::new(DualKdConfig {
            terrain: 100.0,
            band,
            kd: KdConfig::small(8, 4),
        });
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 200,
            terrain: 100.0,
            v_min: 1.0,
            v_max: 2.0,
            updates_per_instant: 5,
            seed: 3,
        });
        for m in sim.objects() {
            idx.insert(m);
        }
        // Period = 100/1 = 100 instants; run 350.
        for step in 0..350 {
            for u in sim.step() {
                assert!(idx.remove(&u.old), "step {step}");
                idx.insert(&u.new);
            }
            if step % 50 == 0 {
                let q = sim.gen_query(30.0, 10.0);
                assert_eq!(
                    idx.query(&crate::method::QueryRequest::new(&q)),
                    brute_force_1d(sim.objects(), &q)
                );
            }
        }
    }

    #[test]
    fn nearest_matches_naive() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 500,
            seed: 77,
            ..WorkloadConfig::default()
        });
        for _ in 0..10 {
            let _ = sim.step();
        }
        let mut idx = small_index();
        for m in sim.objects() {
            idx.insert(m);
        }
        let (y, t) = (512.0, sim.now() + 12.5);
        for k in [1usize, 3, 10] {
            let got = idx.nearest(y, t, k);
            assert_eq!(got.len(), k);
            assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
            let mut naive: Vec<(u64, f64)> = sim
                .objects()
                .iter()
                .map(|m| (m.id, (m.position_at(t) - y).abs()))
                .collect();
            naive.sort_by(|a, b| a.1.total_cmp(&b.1));
            for (i, &(_, d)) in got.iter().enumerate() {
                assert!(
                    (d - naive[i].1).abs() < 1e-9,
                    "k={k} rank {i}: {d} vs {}",
                    naive[i].1
                );
            }
        }
    }

    #[test]
    fn io_counters_aggregate() {
        let mut idx = small_index();
        let m = Motion1D {
            id: 1,
            t0: 0.0,
            y0: 500.0,
            v: 1.0,
        };
        idx.insert(&m);
        idx.clear_buffers();
        assert!(idx.io_totals().pages >= 1);
        idx.reset_io();
        assert_eq!(idx.io_totals().reads, 0);
    }
}
