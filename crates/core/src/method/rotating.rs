//! Two-generation index rotation (§3.2).
//!
//! The Hough-X intercept is unbounded as time advances, so the paper
//! keeps **two** dual-point indexes: generation `e` holds the objects
//! whose last update fell in `[e·T_period, (e+1)·T_period)`, with
//! intercepts rebased to `t_base = e·T_period`. Because every object
//! must update at least once per `T_period = y_max / v_min` (it reflects
//! at a border at the latest), a generation is empty by the time its
//! slot is reused; queries consult both generations with suitably
//! time-shifted Proposition-1 polygons.
//!
//! The machinery is generic over the dual-plane store so that both the
//! kd-tree method (§3.5.1) and the partition-tree method (§3.4) share
//! it.

use crate::dual::{hough_x_point, hough_x_query, SpeedBand};
use mobidx_geom::ConvexPolygon;
use mobidx_workload::{MorQuery1D, Motion1D};

/// A store of 2-D dual points supporting simplex queries.
pub(crate) trait DualPlaneStore {
    /// Inserts a dual point.
    fn insert_point(&mut self, p: [f64; 2], id: u64);
    /// Removes an exact dual point.
    fn remove_point(&mut self, p: [f64; 2], id: u64) -> bool;
    /// Reports ids inside either polygon (positive / negative velocity).
    fn query_polygons(&mut self, pos: &ConvexPolygon, neg: &ConvexPolygon, out: &mut Vec<u64>);
    /// Removes and returns every stored point (defensive rotation).
    fn drain_all(&mut self) -> Vec<([f64; 2], u64)>;
    /// Number of stored points.
    fn len(&self) -> usize;
}

#[derive(Debug)]
struct Generation<S> {
    epoch: u64,
    store: S,
}

/// Two rotating dual-plane generations.
#[derive(Debug)]
pub(crate) struct RotatingDual<S> {
    gens: [Generation<S>; 2],
    period: f64,
    band: SpeedBand,
    last_candidates: u64,
}

impl<S: DualPlaneStore> RotatingDual<S> {
    pub(crate) fn new(store0: S, store1: S, band: SpeedBand, terrain: f64) -> Self {
        let period = band.rotation_period(terrain);
        Self {
            gens: [
                Generation {
                    epoch: 0,
                    store: store0,
                },
                Generation {
                    epoch: 1,
                    store: store1,
                },
            ],
            period,
            band,
            last_candidates: 0,
        }
    }

    fn epoch_of(&self, t0: f64) -> u64 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            (t0 / self.period).floor().max(0.0) as u64
        }
    }

    fn t_base(&self, epoch: u64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            epoch as f64 * self.period
        }
    }

    /// Ensures the slot for `epoch` is current, rotating (and, if
    /// necessary, migrating stragglers with exactly rebased intercepts)
    /// first. Never called for epochs older than a slot's current one.
    fn rotate_to(&mut self, epoch: u64) -> usize {
        let slot = (epoch % 2) as usize;
        if self.gens[slot].epoch != epoch {
            let old_epoch = self.gens[slot].epoch;
            debug_assert!(old_epoch < epoch, "rotate_to only advances");
            let stragglers = self.gens[slot].store.drain_all();
            let shift = self.t_base(epoch) - self.t_base(old_epoch);
            self.gens[slot].epoch = epoch;
            // Stragglers should not exist (every object updates within
            // one period); if they do, rebase them exactly: the dual
            // point (v, a) at base b becomes (v, a + v·Δb) at base b+Δb.
            for ([v, a], id) in stragglers {
                self.gens[slot].store.insert_point([v, a + v * shift], id);
            }
        }
        slot
    }

    /// Routes a motion to its slot and the intercept base to use there.
    ///
    /// A record whose `t0` predates the slot's current epoch is placed
    /// with the *current* epoch's base — the dual point of a line
    /// rebases exactly, so insert/remove stay total for any `t0`
    /// (normally every record is re-issued within one period and this
    /// path never triggers).
    fn place(&mut self, t0: f64, rotate: bool) -> (usize, f64) {
        let epoch = self.epoch_of(t0);
        let slot = (epoch % 2) as usize;
        let current = self.gens[slot].epoch;
        if current >= epoch {
            (slot, self.t_base(current))
        } else if rotate {
            let slot = self.rotate_to(epoch);
            (slot, self.t_base(epoch))
        } else {
            // Removal of a record from an epoch the slot never reached:
            // it cannot be present; signal with a NaN base.
            (slot, f64::NAN)
        }
    }

    pub(crate) fn insert(&mut self, m: &Motion1D) {
        let (slot, t_base) = self.place(m.t0, true);
        let p = hough_x_point(m, t_base);
        self.gens[slot].store.insert_point(p, m.id);
    }

    pub(crate) fn remove(&mut self, m: &Motion1D) -> bool {
        let (slot, t_base) = self.place(m.t0, false);
        if t_base.is_nan() {
            return false;
        }
        let p = hough_x_point(m, t_base);
        self.gens[slot].store.remove_point(p, m.id)
    }

    pub(crate) fn query(&mut self, q: &MorQuery1D) -> Vec<u64> {
        let mut ids = Vec::new();
        let (period, band) = (self.period, self.band);
        crate::ids::assemble(&mut ids, |candidates| {
            for gen in &mut self.gens {
                if gen.store.len() == 0 {
                    continue;
                }
                #[allow(clippy::cast_precision_loss)]
                let t_base = gen.epoch as f64 * period;
                let (pos, neg) = hough_x_query(q, &band, t_base);
                gen.store.query_polygons(&pos, &neg, candidates);
            }
            // Polygon queries are exact (no refinement), so candidates
            // are the entries reported by the stores before
            // cross-generation dedup.
            self.last_candidates = candidates.len() as u64;
        });
        ids
    }

    pub(crate) fn last_candidates(&self) -> u64 {
        self.last_candidates
    }

    /// The rotation period (for extensions that need generation bases).
    pub(crate) fn period(&self) -> f64 {
        self.period
    }

    /// The generations as `(epoch, store)` pairs, slot 0 first.
    pub(crate) fn generations(&self) -> impl Iterator<Item = (u64, &S)> {
        self.gens.iter().map(|g| (g.epoch, &g.store))
    }

    /// Mutable access to the generations, as [`RotatingDual::generations`].
    pub(crate) fn generations_mut(&mut self) -> impl Iterator<Item = (u64, &mut S)> {
        self.gens.iter_mut().map(|g| (g.epoch, &mut g.store))
    }
}
