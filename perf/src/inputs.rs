//! Everything the program under test is fed, made from the seed and
//! nothing else: the initial objects, the ageing instants, and slice
//! after slice of steps. The program receives only these values.

use crate::spec::Spec;
use mobidx_serve::Batch;
use mobidx_workload::{MorQuery1D, Motion1D, Simulator1D, WorkloadConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::Instant;

/// One unit of client work: an optional batch, then zero or more queries
/// against the state that batch leaves.
#[derive(Debug, Clone, Default)]
pub struct Step {
    /// New motion records, one per object update (empty on read-only
    /// workloads).
    pub updates: Vec<Motion1D>,
    /// Queries issued after the batch committed.
    pub queries: Vec<MorQuery1D>,
}

impl Step {
    /// The step's updates as the client sends them.
    #[must_use]
    pub fn batch(&self) -> Batch {
        let mut batch = Batch::new();
        for m in &self.updates {
            batch.update(*m);
        }
        batch
    }

    /// Queries plus object updates.
    #[must_use]
    pub fn ops(&self) -> u64 {
        (self.updates.len() + self.queries.len()) as u64
    }
}

/// What a stack is built from.
#[derive(Debug, Clone)]
pub struct SetupInputs {
    /// The bulk load.
    pub initial: Vec<Motion1D>,
    /// New motion records of each ageing `apply`, in order.
    pub ageing: Vec<Vec<Motion1D>>,
}

/// The seeded source of all inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    spec: Spec,
    sim: Simulator1D,
    rng: SmallRng,
    pending: VecDeque<Motion1D>,
    /// The query set replayed by every slice of a read-only workload.
    replayed: Option<Vec<Step>>,
    /// Issue time of the newest update handed out so far.
    now: f64,
    /// Wall time spent generating, so far.
    gen_seconds: f64,
}

/// Fresh queries of the final check (in addition to the replayed set on
/// read-only workloads). Pages per query are taken from this pass, and
/// with fewer queries the pairing of lengths, windows and places makes
/// that count move by several percent from seed to seed.
const CHECK_QUERIES: usize = 600;

impl Inputs {
    /// Seeds the world and produces the set-up inputs.
    #[must_use]
    pub fn new(spec: Spec, seed: u64) -> (Self, SetupInputs) {
        let started = Instant::now();
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: spec.n,
            seed,
            ..WorkloadConfig::default()
        });
        let initial = sim.objects().to_vec();
        let instants: Vec<Vec<Motion1D>> = (0..spec.ageing)
            .map(|_| sim.step().into_iter().map(|u| u.new).collect())
            .collect();
        let ageing = instants
            .chunks(spec.instants_per_apply)
            .map(<[Vec<Motion1D>]>::concat)
            .collect();
        let inputs = Self {
            spec,
            now: sim.now(),
            sim,
            // A stream of its own, so that query shapes do not depend on
            // how many updates the simulator drew.
            rng: SmallRng::seed_from_u64(seed ^ 0x5151_5EED_0BAD_CAFE),
            pending: VecDeque::new(),
            replayed: None,
            gen_seconds: started.elapsed().as_secs_f64(),
        };
        (inputs, SetupInputs { initial, ageing })
    }

    /// The steps of the next slice. Read-only workloads replay one query
    /// set; the others draw fresh updates (and queries) every slice.
    pub fn next_slice(&mut self) -> Vec<Step> {
        let started = Instant::now();
        let steps = self.generate_slice();
        self.gen_seconds += started.elapsed().as_secs_f64();
        steps
    }

    /// Wall time spent generating set-up inputs and slices so far.
    #[must_use]
    pub fn gen_seconds(&self) -> f64 {
        self.gen_seconds
    }

    fn generate_slice(&mut self) -> Vec<Step> {
        let spec = self.spec;
        if !spec.kind.writes() {
            if self.replayed.is_none() {
                let now = self.now;
                let queries = self.queries(spec.steps_per_slice * spec.queries_per_step);
                self.replayed = Some(
                    queries
                        .chunks(spec.queries_per_step)
                        .map(|qs| Step {
                            updates: Vec::new(),
                            queries: qs.iter().map(|s| s.at(now)).collect(),
                        })
                        .collect(),
                );
            }
            return self.replayed.clone().expect("just filled");
        }
        let mut shapes = self
            .queries(spec.steps_per_slice * spec.queries_per_step)
            .into_iter();
        (0..spec.steps_per_slice)
            .map(|_| {
                let updates = self.take_updates(spec.batch);
                // The step's queries start at the instant of its newest
                // update: no record of the batch lies in their future.
                let now = updates.iter().map(|m| m.t0).fold(self.now, f64::max);
                self.now = now;
                let queries = shapes
                    .by_ref()
                    .take(spec.queries_per_step)
                    .map(|s| s.at(now))
                    .collect();
                Step { updates, queries }
            })
            .collect()
    }

    /// The queries of the final check: the replayed set (empty on
    /// workloads that write), and fresh queries of the workload's mix
    /// starting at the instant of the newest update.
    pub fn check_queries(&mut self) -> (Vec<MorQuery1D>, Vec<MorQuery1D>) {
        let replayed = self
            .replayed
            .iter()
            .flatten()
            .flat_map(|s| s.queries.clone())
            .collect();
        let now = self.now;
        let fresh = self
            .queries(CHECK_QUERIES)
            .into_iter()
            .map(|s| s.at(now))
            .collect();
        (replayed, fresh)
    }

    /// The next `count` updates of the simulated world, in issue order.
    fn take_updates(&mut self, count: usize) -> Vec<Motion1D> {
        while self.pending.len() < count {
            self.pending
                .extend(self.sim.step().into_iter().map(|u| u.new));
        }
        self.pending.drain(..count).collect()
    }

    /// `count` query shapes of the workload's mix. Range lengths, window
    /// lengths and positions are each a shuffled even grid over
    /// `(0, YQMAX)`, `(0, TW)` and the terrain — the paper's uniform
    /// marginals with the sampling error taken out, so that two seeds
    /// ask for the same amount of work; only the pairing is random.
    fn queries(&mut self, count: usize) -> Vec<Shape> {
        let (yqmax, tw) = self.spec.query_mix;
        let terrain = self.sim.config().terrain;
        let mut lens = even_grid(count, yqmax);
        let mut windows = even_grid(count, tw);
        let mut places = even_grid(count, 1.0);
        shuffle(&mut lens, &mut self.rng);
        shuffle(&mut windows, &mut self.rng);
        shuffle(&mut places, &mut self.rng);
        lens.into_iter()
            .zip(windows)
            .zip(places)
            .map(|((len, window), place)| Shape {
                y1: (terrain - len) * place,
                len,
                window,
            })
            .collect()
    }
}

/// A query without its start time.
#[derive(Debug, Clone, Copy)]
struct Shape {
    y1: f64,
    len: f64,
    window: f64,
}

impl Shape {
    fn at(&self, now: f64) -> MorQuery1D {
        MorQuery1D {
            y1: self.y1,
            y2: self.y1 + self.len,
            t1: now,
            t2: now + self.window,
        }
    }
}

/// Midpoints of `count` equal cells of `(0, span)`.
fn even_grid(count: usize, span: f64) -> Vec<f64> {
    (0..count)
        .map(|i| span * (i as f64 + 0.5) / count as f64)
        .collect()
}

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{spec, Scale};

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let s = spec("mixed_rw", Scale::Smoke).unwrap();
        let (mut a, sa) = Inputs::new(s, 7);
        let (mut b, sb) = Inputs::new(s, 7);
        let (mut c, _) = Inputs::new(s, 11);
        assert_eq!(sa.initial, sb.initial);
        assert_eq!(sa.ageing, sb.ageing);
        let (xa, xb, xc) = (a.next_slice(), b.next_slice(), c.next_slice());
        assert_eq!(xa.len(), s.steps_per_slice);
        for (p, q) in xa.iter().zip(&xb) {
            assert_eq!(p.updates, q.updates);
            assert_eq!(p.queries, q.queries);
        }
        assert!(xa.iter().zip(&xc).any(|(p, q)| p.updates != q.updates));
    }

    #[test]
    fn steps_have_the_declared_shape() {
        for name in crate::spec::workload_names() {
            let s = spec(name, Scale::Smoke).unwrap();
            let (mut inputs, _) = Inputs::new(s, 3);
            for step in inputs.next_slice() {
                assert_eq!(step.updates.len(), s.batch);
                assert_eq!(step.queries.len(), s.queries_per_step);
                for q in &step.queries {
                    assert!(q.y1 >= 0.0 && q.y2 <= 1000.0 && q.t2 >= q.t1);
                    assert!(step.updates.iter().all(|m| m.t0 <= q.t1));
                }
            }
        }
    }

    #[test]
    fn read_only_workloads_replay_one_query_set() {
        let s = spec("read_large", Scale::Smoke).unwrap();
        let (mut inputs, _) = Inputs::new(s, 5);
        let first = inputs.next_slice();
        let second = inputs.next_slice();
        assert_eq!(
            first.iter().map(|s| s.queries.clone()).collect::<Vec<_>>(),
            second.iter().map(|s| s.queries.clone()).collect::<Vec<_>>()
        );
    }
}
