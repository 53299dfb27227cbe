//! The logarithmic-query-time MOR1 structure (§3.6).
//!
//! For time-slice queries (`t1q = t2q = t_q`) within a bounded horizon
//! `T`, the paper precomputes every crossing among the current
//! trajectories and stores the evolving sorted list of objects in the
//! partially persistent list B-tree of Lemma 4. A query locates the
//! version at `t_q` and binary-searches by computed positions (Lemma 2):
//! `O(log_B(n + m) + k/B)` I/Os, `O(n + m)` space.
//!
//! [`StaggeredMor1`] implements the paper's staggering: a structure
//! built at `t₀` covers `[t₀, t₀ + 2T]`; every `T` a new structure is
//! built from the *current* motion table so a valid structure always
//! covers `[now, now + T]`. (As the paper notes, the structure is for
//! the restricted setting where motions persist: updates between
//! rebuilds take effect at the next rebuild.)

use crate::method::IndexStats;
use mobidx_pager::{Store, PAGER_FAULT};
use mobidx_persist::{all_crossings, Occupant, PersistConfig, PersistentListBTree};
use mobidx_workload::Motion1D;
use std::collections::VecDeque;
use std::fmt;

/// One immutable MOR1 structure covering `[epoch, epoch + horizon]`.
///
/// ```
/// use mobidx_core::method::mor1::Mor1Index;
/// use mobidx_core::Motion1D;
/// use mobidx_persist::PersistConfig;
///
/// let objects = [
///     Motion1D { id: 1, t0: 0.0, y0: 10.0, v: 2.0 }, // overtakes 2 at t = 10
///     Motion1D { id: 2, t0: 0.0, y0: 20.0, v: 1.0 },
/// ];
/// let mut idx = Mor1Index::build(PersistConfig::default(), &objects, 0.0, 60.0);
/// assert_eq!(idx.crossings(), 1);
/// // Time-slice queries anywhere in the horizon:
/// assert_eq!(idx.query(0.0, 0.0, 15.0), vec![1]);
/// assert_eq!(idx.query(20.0, 35.0, 60.0), vec![1, 2]); // 1 at 50, 2 at 40
/// ```
#[derive(Debug)]
pub struct Mor1Index {
    epoch: f64,
    horizon: f64,
    tree: PersistentListBTree,
    crossings: usize,
}

impl Mor1Index {
    /// Builds the structure from a snapshot of the motion table at
    /// absolute time `epoch`, covering queries in
    /// `[epoch, epoch + horizon]`.
    ///
    /// # Panics
    /// Panics if the crossing events cannot be linearized (would require
    /// coincident multi-way meets that no consistent swap order
    /// resolves; cannot happen for generic inputs).
    #[must_use]
    pub fn build(cfg: PersistConfig, objects: &[Motion1D], epoch: f64, horizon: f64) -> Self {
        // Positions at the epoch; epoch-relative trajectories.
        let snapshot: Vec<(f64, f64)> = objects
            .iter()
            .map(|m| (m.position_at(epoch), m.v))
            .collect();
        let mut order: Vec<usize> = (0..objects.len()).collect();
        order.sort_by(|&i, &j| {
            (snapshot[i].0, snapshot[i].1, objects[i].id)
                .partial_cmp(&(snapshot[j].0, snapshot[j].1, objects[j].id))
                .expect("NaN position")
        });
        let occupants: Vec<Occupant> = order
            .iter()
            .map(|&i| Occupant {
                id: objects[i].id,
                y0: snapshot[i].0,
                v: snapshot[i].1,
            })
            .collect();
        let mut tree = PersistentListBTree::new(cfg, occupants);

        let events = all_crossings(&snapshot, horizon);
        let crossings = events.len();
        // Apply in time order; simultaneous events of overlapping pairs
        // may momentarily be non-adjacent — defer until applicable.
        let mut pending: VecDeque<_> = events
            .into_iter()
            .map(|e| (e.time, objects[e.a].id, objects[e.b].id))
            .collect();
        let mut stuck = 0usize;
        while let Some((time, id_a, id_b)) = pending.pop_front() {
            let pa = tree.position_of(id_a).expect("unknown id");
            let pb = tree.position_of(id_b).expect("unknown id");
            if pb + 1 == pa {
                tree.try_apply_swap(time, pb).expect(PAGER_FAULT);
                stuck = 0;
            } else {
                pending.push_back((time, id_a, id_b));
                stuck += 1;
                assert!(
                    stuck <= pending.len(),
                    "cannot linearize simultaneous crossings"
                );
            }
        }
        Self {
            epoch,
            horizon,
            tree,
            crossings,
        }
    }

    /// The covered absolute-time window.
    #[must_use]
    pub fn window(&self) -> (f64, f64) {
        (self.epoch, self.epoch + self.horizon)
    }

    /// Number of crossings materialized (the `M` of Theorem 2).
    #[must_use]
    pub fn crossings(&self) -> usize {
        self.crossings
    }

    /// The MOR1 query: ids (sorted) of objects in `[y1, y2]` at absolute
    /// time `t_q`, which must lie in the covered window.
    ///
    /// # Panics
    /// Panics if `t_q` is outside the window.
    pub fn query(&mut self, t_q: f64, y1: f64, y2: f64) -> Vec<u64> {
        assert!(
            t_q >= self.epoch - 1e-9 && t_q <= self.epoch + self.horizon + 1e-9,
            "query time {t_q} outside window [{}, {}]",
            self.epoch,
            self.epoch + self.horizon
        );
        let mut ids = Vec::new();
        let t = t_q - self.epoch;
        crate::ids::assemble(&mut ids, |candidates| {
            self.tree
                .try_query(t, y1, y2, |o| candidates.push(o.id))
                .expect(PAGER_FAULT);
        });
        ids
    }
}

impl IndexStats for Mor1Index {
    fn name(&self) -> String {
        "mor1".to_owned()
    }

    fn stores(&self, visit: &mut dyn FnMut(fmt::Arguments<'_>, &dyn Store)) {
        visit(format_args!("all"), self.tree.store());
    }

    fn stores_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Store)) {
        visit(self.tree.store_mut());
    }
}

/// The paper's staggered construction: two overlapping structures so a
/// valid one always covers `[now, now + T]`.
#[derive(Debug)]
pub struct StaggeredMor1 {
    cfg: PersistConfig,
    period: f64,
    structures: Vec<Mor1Index>,
    last_build: f64,
}

impl StaggeredMor1 {
    /// Builds the initial structure at time `now` with look-ahead `T`.
    #[must_use]
    pub fn new(cfg: PersistConfig, objects: &[Motion1D], now: f64, period: f64) -> Self {
        assert!(period > 0.0, "period must be positive");
        let first = Mor1Index::build(cfg, objects, now, 2.0 * period);
        Self {
            cfg,
            period,
            structures: vec![first],
            last_build: now,
        }
    }

    /// Advances the wall clock: once a period has elapsed since the last
    /// build, a new structure is built from the current motion table and
    /// expired structures are dropped.
    pub fn advance(&mut self, now: f64, objects: &[Motion1D]) {
        while now - self.last_build >= self.period {
            let epoch = self.last_build + self.period;
            self.structures.push(Mor1Index::build(
                self.cfg,
                objects,
                epoch,
                2.0 * self.period,
            ));
            self.last_build = epoch;
        }
        self.structures.retain(|s| s.window().1 >= now - 1e-9);
    }

    /// Answers a MOR1 query at `t_q` using the freshest structure whose
    /// window covers it. Returns `None` if `t_q` is beyond the horizon.
    pub fn query(&mut self, t_q: f64, y1: f64, y2: f64) -> Option<Vec<u64>> {
        let s = self.structures.iter_mut().rev().find(|s| {
            let (a, b) = s.window();
            t_q >= a - 1e-9 && t_q <= b + 1e-9
        })?;
        Some(s.query(t_q, y1, y2))
    }
}

/// Every live structure's store, oldest first, all labelled `all`.
impl IndexStats for StaggeredMor1 {
    fn name(&self) -> String {
        "mor1-staggered".to_owned()
    }

    fn stores(&self, visit: &mut dyn FnMut(fmt::Arguments<'_>, &dyn Store)) {
        for s in &self.structures {
            s.stores(visit);
        }
    }

    fn stores_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Store)) {
        for s in &mut self.structures {
            s.stores_mut(visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidx_workload::{brute_force_1d, MorQuery1D, Simulator1D, WorkloadConfig};

    fn snapshot(n: usize, seed: u64) -> Vec<Motion1D> {
        let sim = Simulator1D::new(WorkloadConfig {
            n,
            seed,
            ..WorkloadConfig::default()
        });
        sim.objects().to_vec()
    }

    #[test]
    fn time_slice_queries_match_brute_force() {
        let objects = snapshot(400, 77);
        let mut idx = Mor1Index::build(PersistConfig::small(32), &objects, 0.0, 100.0);
        assert!(idx.crossings() > 0, "static scenario, no crossings?");
        for tq in [0.0, 3.7, 25.0, 60.0, 99.9] {
            for (y1, y2) in [(0.0, 120.0), (400.0, 430.0), (990.0, 1200.0)] {
                let got = idx.query(tq, y1, y2);
                let q = MorQuery1D {
                    y1,
                    y2,
                    t1: tq,
                    t2: tq,
                };
                let want = brute_force_1d(&objects, &q);
                assert_eq!(got, want, "t={tq} range=({y1},{y2})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn query_beyond_horizon_panics() {
        let objects = snapshot(50, 1);
        let mut idx = Mor1Index::build(PersistConfig::small(32), &objects, 0.0, 10.0);
        let _ = idx.query(11.0, 0.0, 100.0);
    }

    #[test]
    fn staggered_covers_rolling_horizon() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 200,
            updates_per_instant: 5,
            seed: 21,
            ..WorkloadConfig::default()
        });
        let period = 20.0;
        let mut stag = StaggeredMor1::new(PersistConfig::small(32), sim.objects(), 0.0, period);
        for step in 0..100 {
            let _ = sim.step(); // updates take effect at the next rebuild
            stag.advance(sim.now(), sim.objects());
            if step % 10 == 0 {
                // A query one half-period ahead must always be coverable.
                let tq = sim.now() + period / 2.0;
                let got = stag.query(tq, 100.0, 300.0);
                assert!(got.is_some(), "no structure covers t={tq}");
            }
        }
    }

    #[test]
    fn staggered_answers_match_snapshot_semantics() {
        // Without intervening updates, staggered answers equal brute
        // force on the snapshot.
        let objects = snapshot(300, 41);
        let mut stag = StaggeredMor1::new(PersistConfig::small(32), &objects, 0.0, 50.0);
        stag.advance(49.0, &objects);
        for tq in [0.0, 10.0, 49.5, 80.0] {
            let got = stag.query(tq, 200.0, 260.0).expect("covered");
            let q = MorQuery1D {
                y1: 200.0,
                y2: 260.0,
                t1: tq,
                t2: tq,
            };
            assert_eq!(got, brute_force_1d(&objects, &q), "t={tq}");
        }
    }

    #[test]
    fn query_io_stays_logarithmic() {
        let objects = snapshot(5000, 55);
        let mut idx = Mor1Index::build(PersistConfig::default(), &objects, 0.0, 50.0);
        idx.clear_buffers();
        idx.reset_io();
        let hits = idx.query(25.0, 500.0, 505.0);
        let cost = idx.io_totals().reads;
        assert!(
            cost as usize <= 8 + hits.len() / 8,
            "narrow MOR1 query cost {cost} pages for {} hits",
            hits.len()
        );
    }
}
