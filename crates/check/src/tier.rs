//! The sharded serving tier vs motion-table brute force.
//!
//! The fault plans are armed *behind* the shard workers, so what a tier
//! target exercises is the tier's typed-error surfacing and rebuild
//! protocol, and — through a [`mobidx_serve::ReadView`] captured before
//! every mutation — its reads-see-a-prefix contract. [`TierIndex`] is
//! what differs between the two tiers checked.

use crate::bptree::bptree_cfg;
use crate::driver::{agree, ModelTarget, Run, Tally};
use crate::{mix, CheckConfig, SplitMix};
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::{Index1D, Motion1D, QueryRequest, SpeedBand, VpDualConfig, VpDualIndex};
use mobidx_serve::{
    Batch, IdHashShard, ReadView, ServeConfig, ServeError, ShardFn, ShardedDb, SpeedBandShard,
};
use mobidx_workload::{brute_force_1d, MorQuery1D};
use std::collections::{BTreeMap, VecDeque};

/// The oracle is an ordered map so that "pick the n-th tracked object"
/// is deterministic across runs of the same seed.
type Table = BTreeMap<u64, Motion1D>;

/// Terrain length of both tiers' indexes (their configs' default).
const TERRAIN: f64 = 1000.0;

/// One sharded index method: how a shard of it is built and read, and
/// the constants of its pinned op stream.
pub(crate) trait TierIndex: Index1D + Send + Sized + 'static {
    const NAME: &'static str;
    const SALT: u64;
    const SHARDS: usize;
    /// Arm salts: fresh shard `s` arms with `mix(seed, ARM_FRESH + s)`,
    /// the shard recovered in round `r` with `mix(seed, ARM_ROUND + r)`.
    const ARM_FRESH: u64;
    const ARM_ROUND: u64;
    /// Rolls below `MUTATE_BELOW` mutate: below 30 insert, below
    /// `UPDATE_BELOW` update, the rest remove.
    const MUTATE_BELOW: u64;
    const UPDATE_BELOW: u64;

    fn shard_fn() -> Box<dyn ShardFn>;
    fn build(shard: usize, shards: usize) -> Self;

    /// The method's own op, if `roll` selects one (otherwise the op is a
    /// query). `Err` is the tier's error for it.
    fn own_op(
        _roll: u64,
        _rng: &mut SplitMix,
        _oracle: &Table,
        _db: &ShardedDb<Self>,
    ) -> Option<Result<(), ServeError>> {
        None
    }
}

pub(crate) struct TierTarget<I: TierIndex> {
    db: ShardedDb<I>,
    oracle: Table,
    /// The reads-see-a-prefix ledger: the oracle state as of each
    /// published commit epoch. Epoch 0 is the (empty) initial load; a
    /// new entry is recorded at the end of any op whose apply or rebuild
    /// published a snapshot.
    epoch_states: BTreeMap<u64, Table>,
    next_id: u64,
    /// Shards the op in flight rebuilt, each with the counters of the
    /// index it retired, waiting for `recover` to re-arm them — after
    /// the op, so recovery itself runs fault-free (guaranteeing
    /// termination).
    rebuilt: VecDeque<(usize, Tally)>,
}

/// Silences the default panic hook for the serve crate's worker threads.
///
/// The sharded tier *converts* index panics (an unrecovered pager fault
/// deep in a shard's tree) into typed [`ServeError::ShardFault`] values
/// via `catch_unwind` — that is exactly the behavior under test — but
/// the default hook would still spray a backtrace per injected fault.
/// The replacement hook drops output from threads named
/// `mobidx-shard-*` and forwards everything else unchanged.
fn silence_shard_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_shard = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("mobidx-shard-"));
            if !in_shard {
                prev(info);
            }
        }));
    });
}

/// Speeds on a dyadic 1/64 grid (0.171875 ..= 1.65625, inside the paper
/// band), with integer times and positions: every position a query can
/// probe (`y0 + v·Δt`, Δt integer) then lies on the 1/64 grid. Query
/// edges are offset by 1/128, so no trajectory can ever touch an edge
/// exactly — membership is decided with a margin of at least 1/128, ten
/// orders of magnitude above the ulp-level rounding the index's
/// Hough-transform reconstruction (`b = t0 + (y_r − y0)/v`) introduces.
/// The oracle and the index therefore always agree, the same way the
/// interval target's grid-of-halves keeps its comparisons exact.
fn new_motion(rng: &mut SplitMix, id: u64) -> Motion1D {
    let t0 = rng.below(300) as f64;
    let y0 = rng.below(TERRAIN as u64) as f64;
    let speed = (11 + rng.below(96)) as f64 / 64.0;
    let v = if rng.below(2) == 0 { speed } else { -speed };
    Motion1D { id, t0, y0, v }
}

fn tally_of<I: TierIndex>(index: &I) -> Tally {
    let mut tally = Tally::default();
    index.stores(&mut |_, store| tally.add(store.stats()));
    tally
}

impl<I: TierIndex> TierTarget<I> {
    /// Arms every store of one shard's index with a fresh backend
    /// realizing the run's fault mode under `mix(seed, salt)`.
    fn arm(&self, shard: usize, cfg: &CheckConfig, salt: u64) {
        let (mode, seed) = (cfg.faults, mix(cfg.seed, salt));
        self.db
            .with_shard(shard, move |index: &mut I| {
                index.set_backends(&mut || mode.backend(seed));
            })
            .expect("a fresh or rebuilt shard accepts a backend swap");
    }

    /// Answers an error of the tier: a shard fault is recovered on the
    /// spot — rebuilt from the authoritative table on the factory's
    /// clean backend — and the shard queued for re-arming; anything else
    /// is a divergence.
    fn heal(&mut self, what: &str, error: ServeError) -> Result<(), String> {
        let (ServeError::ShardFault { shard, .. } | ServeError::ShardPoisoned { shard }) = error
        else {
            return Err(format!("{what} returned a non-fault error: {error}"));
        };
        let retired = self
            .db
            .rebuild_shard(shard)
            .map_err(|e| format!("clean rebuild failed: {e}"))?;
        self.rebuilt.push_back((shard, tally_of(&*retired)));
        Ok(())
    }

    /// Mutation through the batch facade. `apply` commits the
    /// authoritative table before dispatching to the workers, so a shard
    /// fault does NOT roll the op back — the table has it, and the
    /// rebuild replays the table into a fresh index. The oracle
    /// therefore applies the op on *both* the Ok and the fault paths.
    fn mutate(&mut self, roll: u64, rng: &mut SplitMix) -> Result<(), String> {
        let mut batch = Batch::new();
        let nth_id = |oracle: &Table, rng: &mut SplitMix| {
            let n = rng.below(oracle.len() as u64) as usize;
            *oracle.keys().nth(n).expect("indexed oracle entry")
        };
        let (id, now) = if roll < 30 || self.oracle.is_empty() {
            let fresh = new_motion(rng, self.next_id);
            self.next_id += 1;
            batch.insert(fresh);
            (fresh.id, Some(fresh))
        } else if roll < I::UPDATE_BELOW {
            // Fresh position and speed, so the object can migrate to a
            // different speed band (shard or sub-index).
            let id = nth_id(&self.oracle, rng);
            let moved = new_motion(rng, id);
            batch.update(moved);
            (id, Some(moved))
        } else {
            let id = nth_id(&self.oracle, rng);
            batch.remove(id);
            (id, None)
        };
        let outcome = self.db.apply(&batch);
        match now {
            Some(motion) => self.oracle.insert(id, motion),
            None => self.oracle.remove(&id),
        };
        outcome.or_else(|e| self.heal("a valid batch", e))
    }

    /// Stale-snapshot probe: the view captured before the op's commit
    /// must still answer exactly from the oracle state at its own epoch
    /// — never the state the op produced. (The draw order here, `t1`
    /// before `y2`, differs from `query`'s; both are pinned.)
    fn probe(&self, view: &ReadView, run: &mut Run) -> Result<(), String> {
        let Some(frozen) = self.epoch_states.get(&view.epoch()) else {
            return Ok(());
        };
        let Run { rng, report, .. } = run;
        let y1 = rng.below(TERRAIN as u64) as f64 + 1.0 / 128.0;
        let t1 = 300.0 + rng.below(60) as f64;
        let y2 = y1 + rng.below(TERRAIN as u64 / 5) as f64;
        let t2 = t1 + rng.below(60) as f64;
        let q = MorQuery1D { y1, y2, t1, t2 };
        let objects: Vec<Motion1D> = frozen.values().copied().collect();
        let want = brute_force_1d(&objects, &q);
        let got = view.query(&q);
        report.snapshot_checks += 1;
        let epoch = view.epoch();
        agree(
            format_args!("reads-see-a-prefix violated: snapshot at epoch {epoch}, query {q:?}"),
            &got,
            &want,
        )
    }

    /// Snapshot MOR query vs brute force over the oracle table. The 1/128
    /// edge offset keeps every trajectory strictly off the query
    /// boundary (see `new_motion`).
    fn query(&mut self, run: &mut Run) -> Result<(), String> {
        let rng = &mut run.rng;
        let y1 = rng.below(TERRAIN as u64) as f64 + 1.0 / 128.0;
        let y2 = y1 + rng.below(TERRAIN as u64 / 5) as f64;
        let t1 = 300.0 + rng.below(60) as f64;
        let t2 = t1 + rng.below(60) as f64;
        let q = MorQuery1D { y1, y2, t1, t2 };
        let objects: Vec<Motion1D> = self.oracle.values().copied().collect();
        let want = brute_force_1d(&objects, &q);
        // A snapshot read fails only when nothing is published and some
        // shard has no view to give; it names that shard. Heal and
        // retry until every such shard has been rebuilt — each turn
        // replaces one shard's fault backend with the factory's clean
        // one, so at most `SHARDS` turns can fail.
        let got = loop {
            match self.db.query(&QueryRequest::new(&q)) {
                Ok(answer) => break answer.into_ids(),
                Err(e) => self.heal("query", e)?,
            }
        };
        run.report.queries += 1;
        if !got.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!(
                "merge contract broken: answer not sorted-dedup ({got:?})"
            ));
        }
        if got != want {
            let one_sided = |id: &&u64| got.contains(id) != want.contains(id);
            let strays = got.iter().chain(&want).filter(one_sided);
            let strays: Vec<_> = strays.map(|id| (id, self.oracle.get(id))).collect();
            return Err(format!("query {q:?}: tier and oracle differ on {strays:?}"));
        }
        Ok(())
    }
}

impl<I: TierIndex> ModelTarget for TierTarget<I> {
    const NAME: &'static str = I::NAME;
    const SALT: u64 = I::SALT;

    fn build(run: &mut Run) -> Result<Self, String> {
        silence_shard_panics();
        let db = ShardedDb::new(
            ServeConfig {
                shards: I::SHARDS,
                queue_depth: 16,
                ..ServeConfig::default()
            },
            I::shard_fn(),
            I::build,
        );
        let target = Self {
            db,
            oracle: Table::new(),
            epoch_states: BTreeMap::from([(0, Table::new())]),
            next_id: 0,
            rebuilt: VecDeque::new(),
        };
        for shard in 0..I::SHARDS {
            target.arm(shard, &run.cfg, I::ARM_FRESH + shard as u64);
        }
        Ok(target)
    }

    fn step(&mut self, run: &mut Run) -> Result<usize, String> {
        let roll = run.rng.below(100);
        // Capture the published snapshot *before* the op: once a batch
        // commits it must keep answering from its own epoch's state,
        // untouched by the commit racing past it.
        let stale = self.db.read_view();
        let written = if roll < I::MUTATE_BELOW || self.oracle.is_empty() {
            Some(self.mutate(roll, &mut run.rng))
        } else {
            I::own_op(roll, &mut run.rng, &self.oracle, &self.db)
                .map(|outcome| outcome.or_else(|e| self.heal("the index's own op", e)))
        };
        match written {
            Some(healed) => {
                healed?;
                if let Some(view) = stale {
                    self.probe(&view, run)?;
                }
            }
            None => {
                // A query publishes nothing to probe against: release
                // the snapshot before the fan-out rather than after it.
                drop(stale);
                self.query(run)?;
            }
        }
        // If this op's apply or rebuild published a new epoch, ledger
        // the oracle state it sealed. `or_insert_with` because an
        // epoch's state is fixed at publication — a paused publisher
        // must not overwrite the state its stale snapshot still serves.
        // Prune so the map stays bounded (a stale view is always at most
        // one op behind the newest entry, so eight epochs of history is
        // plenty).
        self.epoch_states
            .entry(self.db.snapshot_epoch())
            .or_insert_with(|| self.oracle.clone());
        while self.epoch_states.len() > 8 {
            self.epoch_states.pop_first();
        }
        Ok(self.rebuilt.len())
    }

    /// The retired index the coming `recover` answers for; with none
    /// waiting (the end of the run), every live shard's.
    fn spent(&self) -> Tally {
        if let Some(&(_, retired)) = self.rebuilt.front() {
            return retired;
        }
        let mut live = Tally::default();
        for shard in 0..I::SHARDS {
            if let Ok(tally) = self.db.with_shard(shard, |index: &mut I| tally_of(index)) {
                live.injected += tally.injected;
                live.retries += tally.retries;
                live.recovered += tally.recovered;
            }
        }
        live
    }

    fn recover(&mut self, run: &mut Run) -> Result<(), String> {
        let (shard, _) = self.rebuilt.pop_front().expect("one per flagged fault");
        self.arm(shard, &run.cfg, I::ARM_ROUND + run.round);
        Ok(())
    }
}

/// `sharded`: dual-B+ shards, one per speed band. Three bands is enough
/// to exercise fan-out, k-way merging, and inter-shard migration on
/// updates, while keeping each rebuild cheap.
impl TierIndex for DualBPlusIndex {
    const NAME: &'static str = "sharded";
    const SALT: u64 = 6;
    const SHARDS: usize = 3;
    const ARM_FRESH: u64 = 1000;
    const ARM_ROUND: u64 = 2000;
    const MUTATE_BELOW: u64 = 65;
    const UPDATE_BELOW: u64 = 55;

    fn shard_fn() -> Box<dyn ShardFn> {
        Box::new(SpeedBandShard::new(SpeedBand::paper()))
    }
    fn build(shard: usize, shards: usize) -> Self {
        DualBPlusIndex::new(DualBPlusConfig {
            band: SpeedBandShard::new(SpeedBand::paper()).index_band(shard, shards),
            tree: bptree_cfg(),
            terrain: TERRAIN,
            ..DualBPlusConfig::default()
        })
    }
}

/// `vp_dual`: velocity-partitioned dual-B+ indexes behind two id-hash
/// shards, with seeded **mid-sequence repartitions** mixed into the op
/// stream. A pager fault anywhere in a migration panics the worker,
/// which must surface as a typed shard fault (never a wrong answer) and
/// heal through the standard rebuild.
/// Three bands, two observation trees per band, and the harness's small
/// nodes so the fault plans can actually fire.
fn vp_cfg() -> VpDualConfig {
    VpDualConfig {
        bands: 3,
        c: 2,
        tree: bptree_cfg(),
        terrain: TERRAIN,
        // Pinned roots skip physical reads, which would shift where
        // per-store crash budgets fire; the harness pins nothing so the
        // fault matrix stays at its verified injection points.
        pin_roots: false,
        ..VpDualConfig::default()
    }
}

impl TierIndex for VpDualIndex {
    const NAME: &'static str = "vp_dual";
    const SALT: u64 = 8;
    const SHARDS: usize = 2;
    const ARM_FRESH: u64 = 4000;
    const ARM_ROUND: u64 = 5000;
    const MUTATE_BELOW: u64 = 64;
    const UPDATE_BELOW: u64 = 52;

    fn shard_fn() -> Box<dyn ShardFn> {
        Box::new(IdHashShard)
    }
    fn build(_shard: usize, _shards: usize) -> Self {
        VpDualIndex::new(vp_cfg())
    }

    /// Mid-sequence repartition of one shard: re-optimize the band
    /// boundaries from the oracle's velocity histogram and run the full
    /// begin/migrate/finish protocol through the shard worker.
    fn own_op(
        roll: u64,
        rng: &mut SplitMix,
        oracle: &Table,
        db: &ShardedDb<Self>,
    ) -> Option<Result<(), ServeError>> {
        const HIST_BINS: usize = 8;
        if roll >= 66 || oracle.len() < 8 {
            return None;
        }
        let band = vp_cfg().band;
        let shard = rng.below(Self::SHARDS as u64) as usize;
        let mut hist = vec![0u64; HIST_BINS];
        for m in oracle.values() {
            let s = m.v.abs().clamp(band.v_min, band.v_max);
            let frac = (s - band.v_min) / (band.v_max - band.v_min);
            hist[((frac * HIST_BINS as f64) as usize).min(HIST_BINS - 1)] += 1;
        }
        let motions: Vec<Motion1D> = oracle
            .values()
            .filter(|m| IdHashShard.shard_of(m, Self::SHARDS) == shard)
            .copied()
            .collect();
        Some(db.with_shard(shard, move |index: &mut VpDualIndex| {
            let plan = index.plan_boundaries(&hist, band.v_min, band.v_max);
            index.repartition(plan, &motions);
        }))
    }
}
