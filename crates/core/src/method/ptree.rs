//! The "(almost) optimal" partition-tree method (§3.4).
//!
//! Same dual-plane pipeline as the kd method — Hough-X points, Prop-1
//! polygons, two-generation rotation — but stored in the dynamic
//! external partition tree (`mobidx-ptree`): `O(n^{1/2+ε} + k)` worst-
//! case simplex queries with linear space, `O(log²)` amortized updates.
//! The paper's caveat, reproduced by ablation A3: the constants make it
//! slower than the practical methods on average workloads.

use crate::dual::SpeedBand;
use crate::method::rotating::{DualPlaneStore, RotatingDual};
use crate::method::{Index1D, IndexStats};
use mobidx_geom::ConvexPolygon;
use mobidx_pager::Store;
use mobidx_ptree::{PartitionConfig, PartitionForest};
use mobidx_workload::{MorQuery1D, Motion1D};
use std::fmt;

/// Configuration of the partition-tree method.
#[derive(Debug, Clone, Copy)]
pub struct DualPtreeConfig {
    /// Terrain length (`y_max`).
    pub terrain: f64,
    /// The global speed band.
    pub band: SpeedBand,
    /// Partition-forest parameters.
    pub ptree: PartitionConfig,
}

impl Default for DualPtreeConfig {
    fn default() -> Self {
        Self {
            terrain: 1000.0,
            band: SpeedBand::paper(),
            ptree: PartitionConfig::paper_default(2),
        }
    }
}

#[derive(Debug)]
struct PtStore {
    forest: PartitionForest<2, u64>,
}

impl DualPlaneStore for PtStore {
    fn insert_point(&mut self, p: [f64; 2], id: u64) {
        self.forest.insert(p, id);
    }

    fn remove_point(&mut self, p: [f64; 2], id: u64) -> bool {
        self.forest.remove(p, id)
    }

    fn query_polygons(&mut self, pos: &ConvexPolygon, neg: &ConvexPolygon, out: &mut Vec<u64>) {
        self.forest.query(pos, |_, id| out.push(id));
        self.forest.query(neg, |_, id| out.push(id));
    }

    fn drain_all(&mut self) -> Vec<([f64; 2], u64)> {
        let all = self.forest.collect_all();
        for &(p, id) in &all {
            let removed = self.forest.remove(p, id);
            debug_assert!(removed);
        }
        all
    }

    fn len(&self) -> usize {
        self.forest.len()
    }
}

/// The §3.4 method.
#[derive(Debug)]
pub struct DualPtreeIndex {
    rot: RotatingDual<PtStore>,
}

impl DualPtreeIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new(cfg: DualPtreeConfig) -> Self {
        let make = || PtStore {
            forest: PartitionForest::new(cfg.ptree),
        };
        Self {
            rot: RotatingDual::new(make(), make(), cfg.band, cfg.terrain),
        }
    }
}

impl IndexStats for DualPtreeIndex {
    fn name(&self) -> String {
        "dual-ptree".to_owned()
    }

    /// The two rotation generations, `gen0` and `gen1`.
    fn stores(&self, visit: &mut dyn FnMut(fmt::Arguments<'_>, &dyn Store)) {
        for (g, (_, gen)) in self.rot.generations().enumerate() {
            visit(format_args!("gen{g}"), gen.forest.store());
        }
    }

    fn stores_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Store)) {
        for (_, gen) in self.rot.generations_mut() {
            visit(gen.forest.store_mut());
        }
    }
}

impl Index1D for DualPtreeIndex {
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

    #[test]
    fn matches_brute_force_under_updates() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 500,
            updates_per_instant: 20,
            seed: 31,
            ..WorkloadConfig::default()
        });
        let mut idx = DualPtreeIndex::new(DualPtreeConfig {
            ptree: PartitionConfig::small(16, 8),
            ..DualPtreeConfig::default()
        });
        for m in sim.objects() {
            idx.insert(m);
        }
        for step in 0..25 {
            for u in sim.step() {
                assert!(idx.remove(&u.old), "step {step}");
                idx.insert(&u.new);
            }
            if step % 6 == 0 {
                for _ in 0..8 {
                    let q = sim.gen_query(150.0, 60.0);
                    assert_eq!(
                        idx.query(&crate::method::QueryRequest::new(&q)),
                        brute_force_1d(sim.objects(), &q)
                    );
                }
            }
        }
    }
}
