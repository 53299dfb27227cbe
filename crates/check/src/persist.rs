//! Persistent list B-tree vs motion brute force.

use crate::driver::{agree, arm, ask_clean, ModelTarget, Run, Tally};
use crate::SplitMix;
use mobidx_persist::{all_crossings, CrossEvent, Occupant, PersistConfig, PersistentListBTree};

/// One epoch of mobile objects: positions `y0 + v t`, with every real
/// crossing event precomputed so swaps can be applied in time order.
struct PersistEpoch {
    objects: Vec<(f64, f64)>,
    events: Vec<CrossEvent>,
    next_event: usize,
    applied: Vec<(f64, usize)>,
}

/// How far ahead an epoch's crossings are precomputed (and queried).
const HORIZON: f64 = 60.0;

impl PersistEpoch {
    fn generate(rng: &mut SplitMix) -> Self {
        // Jittered coordinates: with coarse grids, three objects can
        // meet at the same point at the same instant, and the pairwise
        // crossing events of such a cluster cannot always be applied as
        // adjacent swaps in emitted order. Fine jitter makes exact
        // three-way ties essentially impossible (and the harness
        // retires the epoch if one ever occurs).
        let objects: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let y = f64::from(i) * 5.0 + rng.below(100) as f64 * 0.001;
                let v = 0.5 + rng.below(3000) as f64 * 0.001;
                (y, v)
            })
            .collect();
        let events = all_crossings(&objects, HORIZON);
        Self {
            objects,
            events,
            next_event: 0,
            applied: Vec::new(),
        }
    }

    /// Builds the structure for this epoch by replaying every applied
    /// swap (the harness's recovery protocol: rebuild from the log).
    fn rebuild(&self) -> PersistentListBTree {
        // y0 values are strictly increasing, so the epoch order is the
        // input order.
        let ids = (0u64..).zip(&self.objects);
        let occupants = ids.map(|(id, &(y0, v))| Occupant { id, y0, v }).collect();
        let mut t = PersistentListBTree::new(PersistConfig::small(16), occupants);
        for &(time, pos) in &self.applied {
            t.try_apply_swap(time, pos)
                .expect("a rebuild runs before its store is armed");
        }
        t
    }
}

pub(crate) struct PersistTarget {
    epoch: PersistEpoch,
    tree: PersistentListBTree,
    /// Epochs retired so far. A retirement arms a fresh store exactly as
    /// a recovery does, so the arm salt is `round + retired`.
    retired: u64,
}

impl ModelTarget for PersistTarget {
    const NAME: &'static str = "persist";
    const SALT: u64 = 5;

    fn build(run: &mut Run) -> Result<Self, String> {
        let epoch = PersistEpoch::generate(&mut run.rng);
        let mut tree = epoch.rebuild();
        arm(tree.store_mut(), &run.cfg, 0);
        Ok(Self {
            epoch,
            tree,
            retired: 0,
        })
    }

    fn step(&mut self, run: &mut Run) -> Result<usize, String> {
        let roll = run.rng.below(100);
        if roll < 55 {
            // Apply the next real crossing. The epoch is retired (a
            // fresh one is generated) when it runs out of events, or —
            // only possible on an exact float tie where three objects
            // meet simultaneously — when the next pairwise crossing is
            // not an adjacent swap in the current list.
            let (event, pos) = loop {
                let next = self.epoch.events.get(self.epoch.next_event).copied();
                let swap = next.and_then(|e| {
                    let pos = self.tree.position_of(e.b as u64)?;
                    (self.tree.position_of(e.a as u64) == Some(pos + 1)).then_some((e, pos))
                });
                if let Some(swap) = swap {
                    break swap;
                }
                run.report.absorb(self.spent());
                self.epoch = PersistEpoch::generate(&mut run.rng);
                self.tree = self.epoch.rebuild();
                self.retired += 1;
                arm(self.tree.store_mut(), &run.cfg, run.round + self.retired);
            };
            // On a fault the in-memory mirrors and the paged log may
            // disagree: `recover` replays the applied swaps.
            if self.tree.try_apply_swap(event.time, pos).is_err() {
                return Ok(1);
            }
            self.epoch.applied.push((event.time, pos));
            self.epoch.next_event += 1;
        } else {
            // MOR query at a time all applied events cover: before the
            // next unapplied crossing.
            let next = self.epoch.events.get(self.epoch.next_event);
            let bound = next.map_or(HORIZON, |e| e.time);
            let t = bound * (run.rng.below(1000) as f64 / 1000.0);
            let yl = run.rng.below(400) as f64;
            let yr = yl + run.rng.below(120) as f64;
            let on_segment = |&(y0, v): &(f64, f64)| (yl..=yr).contains(&(y0 + v * t));
            let want: Vec<u64> = (0u64..)
                .zip(&self.epoch.objects)
                .filter(|(_, object)| on_segment(object))
                .map(|(id, _)| id)
                .collect();
            let store = PersistentListBTree::store_mut;
            let mut got = ask_clean(&mut run.report, &mut self.tree, store, |tree| {
                let mut ids = Vec::new();
                tree.try_query(t, yl, yr, |o| ids.push(o.id))?;
                Ok(ids)
            });
            got.sort_unstable();
            agree(format_args!("query t={t} y=[{yl}, {yr}]"), &got, &want)?;
        }
        Ok(0)
    }

    fn spent(&self) -> Tally {
        Tally::of(self.tree.store().stats())
    }

    fn recover(&mut self, run: &mut Run) -> Result<(), String> {
        self.tree = self.epoch.rebuild();
        arm(self.tree.store_mut(), &run.cfg, run.round + self.retired);
        Ok(())
    }
}
