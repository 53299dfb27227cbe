//! The paper's practical method (§3.5.2): query approximation over `c`
//! observation B+-trees in the Hough-Y dual plane.
//!
//! Each of the `c` indices observes the objects from an "observation
//! element" `y_r` (we place them at the subterrain midpoints
//! `y_r(i) = (i + ½)·y_max/c`, the `E`-optimal position within each
//! subterrain) and stores each object's `b`-coordinate — the time its
//! trajectory crosses `y_r` — in a plain B+-tree, alongside its speed
//! (the paper's 12-byte entry: `b`, speed, pointer ⇒ `B = 341`).
//!
//! A narrow query (case i: `y2q − y1q ≤ y_max/c`) is routed to the index
//! minimizing the enlargement `E` of equation (1); the rectangle
//! approximation of Figure 4 reduces to a 1-D range scan over `b`, and
//! the stored speed identifies the exact answer ("using the speed of
//! each object we can identify the objects that correspond to the real
//! answer", §5).
//!
//! A wide query (case ii) is decomposed: fully covered subterrains are
//! answered with **zero** enlargement by per-subterrain *interval
//! indices* recording when each object resides in the subterrain
//! (`mobidx-interval`), and the two endpoint slivers fall back to case i.
//! Subterrain indices are optional (`maintain_subterrain`) — the paper's
//! experiments use only the `c` B+-trees, and so does the figure
//! harness; Lemma 1's bound needs them.

use crate::dual::{enlargement_e, hough_y_b, hough_y_interval, SpeedBand};
use crate::ids::{assemble, assemble_set, IdSet};
use crate::method::{CommitError, Index1D, IndexStats};
use mobidx_bptree::{BPlusTree, FrozenTree, TreeConfig};
use mobidx_interval::{IntervalConfig, IntervalTree};
use mobidx_pager::{PagerError, Store, PAGER_FAULT};
use mobidx_workload::{MorQuery1D, Motion1D};
use std::cmp::Ordering;
use std::fmt;

/// Configuration of the approximation method.
#[derive(Debug, Clone, Copy)]
pub struct DualBPlusConfig {
    /// Number of observation indices (the paper sweeps c = 4, 6, 8).
    pub c: usize,
    /// Terrain length (`y_max`).
    pub terrain: f64,
    /// The global speed band.
    pub band: SpeedBand,
    /// B+-tree parameters.
    pub tree: TreeConfig,
    /// Whether to maintain the per-subterrain interval indices (case ii
    /// of §3.5.2). Off by default — the paper's experiments use only the
    /// observation B+-trees.
    pub maintain_subterrain: bool,
    /// Interval-index parameters (used when `maintain_subterrain`).
    pub interval: IntervalConfig,
}

impl Default for DualBPlusConfig {
    fn default() -> Self {
        Self {
            c: 6,
            terrain: 1000.0,
            band: SpeedBand::paper(),
            tree: TreeConfig::default(),
            maintain_subterrain: false,
            interval: IntervalConfig::default(),
        }
    }
}

/// B+-tree value: `(velocity bits, object id)`. The bits only serve as a
/// deterministic tie-breaker; the decoded velocity drives the exact
/// speed filter.
type ObsValue = (u64, u64);

/// The B+-trees' own entry order: by key — −0.0 and 0.0 are one key —
/// then by value. The grouped write path sorts by it because
/// `try_insert_batch` requires it; `f64::total_cmp` alone puts −0.0 first,
/// which hands the tree an unsorted run when both zeros share a batch.
/// Adding 0.0 turns −0.0 into 0.0 and changes no other key, so
/// `total_cmp` of the sums is the key order without the branch of
/// `partial_cmp` (a sort of 100k entries by it takes 1.6× as long).
fn tree_order<V: Ord>(a: (f64, &V), b: (f64, &V)) -> Ordering {
    (a.0 + 0.0)
        .total_cmp(&(b.0 + 0.0))
        .then_with(|| a.1.cmp(b.1))
}

/// The trajectory an observation-tree entry records: at `y_r` at time
/// `b`, with the stored velocity.
fn obs_motion(&(b, (vbits, id)): &(f64, ObsValue), y_r: f64) -> Motion1D {
    Motion1D {
        id,
        t0: b,
        y0: y_r,
        v: f64::from_bits(vbits),
    }
}

/// The exact speed filter over one borrowed leaf run of the observation
/// tree holding the velocities of sign `positive`: writes `pick` of every
/// entry whose trajectory [`MorQuery1D::matches`] to the front of `slots`
/// (at least `run.len()` long), in run order, and returns how many.
///
/// Knowing the sign, it skips the min/max `matches` needs: a trajectory
/// reaches its lower position at `t1` when `v > 0` and at `t2` when
/// `v < 0`, so that end is tested against `y2` and the other against
/// `y1`. Rounding is monotone (in `t − b`, in the product with `v`, in
/// the sum with `y_r`), so the two positions are ordered exactly as the
/// real ones and the answer is bit-identical to `matches` — given
/// `q.t1 ≤ q.t2`, the order [`MorQuery1D`] documents and
/// [`hough_y_interval`]'s windows already assume (an inverted window was
/// never answered exactly). A NaN position fails both tests, as it fails
/// `matches`.
///
/// Three candidates in four fail, in no predictable pattern, so nothing
/// branches on the outcome: every candidate is written and the write
/// cursor advances by the match bit.
fn filter_run<T>(
    run: &[(f64, ObsValue)],
    y_r: f64,
    positive: bool,
    q: &MorQuery1D,
    slots: &mut [T],
    pick: impl Fn(Motion1D) -> T,
) -> usize {
    let (t_lo, t_hi) = if positive { (q.t1, q.t2) } else { (q.t2, q.t1) };
    let mut kept = 0;
    for entry in run {
        let m = obs_motion(entry, y_r);
        slots[kept] = pick(m);
        kept += usize::from((m.position_at(t_lo) <= q.y2) & (m.position_at(t_hi) >= q.y1));
    }
    kept
}

/// Case i over the observation element at `y_r`, the live index and its
/// frozen view alike: for each velocity sign, the conservative
/// `b`-range of [`hough_y_interval`], the leaf-run scan of that sign's
/// tree — `scan(positive, lo, hi, visit)` lends `visit` every run of `b`
/// in `[lo, hi]` — and the exact speed filter over every run, appending
/// to `out`. Returns the candidates scanned.
fn query_obs_runs<T: Copy>(
    q: &MorQuery1D,
    band: &SpeedBand,
    y_r: f64,
    out: &mut Vec<T>,
    pick: impl Fn(Motion1D) -> T + Copy,
    mut scan: impl FnMut(bool, f64, f64, &mut dyn FnMut(&[(f64, ObsValue)])),
) -> u64 {
    let mut scanned = 0u64;
    // `out[..end]` holds the matches so far. Slots past `end` hold
    // rejected candidates, which the next run writes over, so `out` is
    // only extended past its high-water mark, not refilled for every run.
    let mut end = out.len();
    for positive in [true, false] {
        let (lo, hi) = hough_y_interval(q, band, y_r, positive);
        scan(positive, lo, hi, &mut |run| {
            let Some(first) = run.first() else { return };
            scanned += run.len() as u64;
            if out.len() < end + run.len() {
                out.resize(end + run.len(), pick(obs_motion(first, y_r)));
            }
            end += filter_run(run, y_r, positive, q, &mut out[end..], pick);
        });
    }
    out.truncate(end);
    scanned
}

/// Position in `y_rs` of the observation element minimizing the
/// enlargement `E` of equation (1) for `q` (the first, on a tie) — the
/// live index and its frozen view route a case-i query alike.
fn e_minimizing_obs(q: &MorQuery1D, band: &SpeedBand, y_rs: impl Iterator<Item = f64>) -> usize {
    y_rs.map(|y_r| enlargement_e(q, band, y_r))
        .enumerate()
        .min_by(|(_, ea), (_, eb)| ea.partial_cmp(eb).expect("NaN enlargement"))
        .expect("at least one observation index")
        .0
}

#[derive(Debug)]
struct ObsIndex {
    y_r: f64,
    /// Positive-velocity objects (the paper's Figure 2: "we can use two
    /// structures to store the dual points", one per velocity sign —
    /// each range scan then only sees candidates of the right sign).
    pos_tree: BPlusTree<f64, ObsValue>,
    /// Negative-velocity objects.
    neg_tree: BPlusTree<f64, ObsValue>,
}

impl ObsIndex {
    fn tree_for(&mut self, v: f64) -> &mut BPlusTree<f64, ObsValue> {
        if v > 0.0 {
            &mut self.pos_tree
        } else {
            &mut self.neg_tree
        }
    }
}

/// The §3.5.2 method.
///
/// ```
/// use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
/// use mobidx_core::{Index1D, Motion1D, MorQuery1D, QueryRequest};
///
/// let mut index = DualBPlusIndex::new(DualBPlusConfig::default());
/// // A car at mile 120 doing 0.8 miles/minute, recorded at t = 0.
/// index.insert(&Motion1D { id: 1, t0: 0.0, y0: 120.0, v: 0.8 });
/// // ... and one moving away from the region of interest.
/// index.insert(&Motion1D { id: 2, t0: 0.0, y0: 90.0, v: -1.0 });
///
/// // Who is inside [140, 200] at some instant of t in [30, 40]?
/// let q = MorQuery1D { y1: 140.0, y2: 200.0, t1: 30.0, t2: 40.0 };
/// assert_eq!(index.query(&QueryRequest::new(&q)), vec![1]);
///
/// // A motion update is delete(old) + insert(new).
/// let old = Motion1D { id: 1, t0: 0.0, y0: 120.0, v: 0.8 };
/// let new = Motion1D { id: 1, t0: 10.0, y0: 128.0, v: -0.5 };
/// assert!(index.remove(&old));
/// index.insert(&new);
/// assert_eq!(index.query(&QueryRequest::new(&q)), Vec::<u64>::new());
/// ```
#[derive(Debug)]
pub struct DualBPlusIndex {
    cfg: DualBPlusConfig,
    obs: Vec<ObsIndex>,
    /// Per-subterrain residence-interval indices (empty unless enabled).
    sub: Vec<IntervalTree<u64>>,
    /// §3's other object class: `v ≈ 0` objects never move, so a plain
    /// B+-tree on their (constant) position answers any MOR query over
    /// them with a 1-D range scan.
    static_tree: BPlusTree<f64, u64>,
}

impl DualBPlusIndex {
    /// Creates an empty index.
    ///
    /// # Panics
    /// Panics if `c == 0`.
    #[must_use]
    pub fn new(cfg: DualBPlusConfig) -> Self {
        assert!(cfg.c >= 1, "need at least one observation index");
        #[allow(clippy::cast_precision_loss)]
        let obs = (0..cfg.c)
            .map(|i| ObsIndex {
                y_r: (i as f64 + 0.5) * cfg.terrain / cfg.c as f64,
                pos_tree: BPlusTree::new(cfg.tree),
                neg_tree: BPlusTree::new(cfg.tree),
            })
            .collect();
        let sub = if cfg.maintain_subterrain {
            (0..cfg.c)
                .map(|_| IntervalTree::new(cfg.interval))
                .collect()
        } else {
            Vec::new()
        };
        Self {
            cfg,
            obs,
            sub,
            static_tree: BPlusTree::new(cfg.tree),
        }
    }

    /// Whether this motion belongs to the static class (the paper's
    /// "objects with low speed v ≈ 0", §3).
    fn is_static(m: &Motion1D) -> bool {
        m.v == 0.0
    }

    /// The speed band the query windows assume.
    #[must_use]
    pub fn band(&self) -> SpeedBand {
        self.cfg.band
    }

    /// Replaces the speed band driving the conservative query windows
    /// ([`hough_y_interval`]) and the `E`-minimizing observation choice.
    ///
    /// The band is a *query-side* parameter only: stored `b`-coordinates
    /// depend on each record's own trajectory, never on the band, so
    /// retuning it is O(1) and leaves the trees untouched. Queries stay
    /// exact as long as the band covers the speed magnitude of every
    /// resident record — the velocity-partitioned facade
    /// ([`super::vp_dual::VpDualIndex`]) relies on this to widen a
    /// sub-index's band during an incremental repartition and narrow it
    /// again once the migration completes.
    pub fn set_band(&mut self, band: SpeedBand) {
        self.cfg.band = band;
    }

    /// Pins (or unpins) the root page of every constituent tree — the
    /// `c` observation pairs and the static tree — in its store's
    /// dedicated pin slot ([`BPlusTree::set_pin_root`]). `2c + 1` pages
    /// of memory; a descent then costs `height - 1` I/Os. The
    /// velocity-partitioned facade enables this on every band sub-index
    /// so its multi-tree fan-out stays competitive with a flat index.
    pub fn pin_roots(&mut self, on: bool) {
        for o in &mut self.obs {
            o.pos_tree.set_pin_root(on);
            o.neg_tree.set_pin_root(on);
        }
        self.static_tree.set_pin_root(on);
    }

    /// Subterrain height `y_max / c`.
    fn strip(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.cfg.terrain / self.cfg.c as f64
        }
    }

    /// The residence interval of `m` in `[z_lo, z_hi]` (may lie in the
    /// past; queries are future-only so that is harmless).
    fn residence(m: &Motion1D, z_lo: f64, z_hi: f64) -> (f64, f64) {
        let ta = m.t0 + (z_lo - m.y0) / m.v;
        let tb = m.t0 + (z_hi - m.y0) / m.v;
        if ta <= tb {
            (ta, tb)
        } else {
            (tb, ta)
        }
    }

    /// Case-i query against one observation index: conservative
    /// `b`-ranges for both velocity signs, exact speed filtering.
    /// Returns the entries the ranges scanned.
    fn query_obs<T: Copy>(
        &mut self,
        obs_idx: usize,
        q: &MorQuery1D,
        out: &mut Vec<T>,
        pick: impl Fn(Motion1D) -> T + Copy,
    ) -> u64 {
        let band = self.cfg.band;
        let obs = &mut self.obs[obs_idx];
        let y_r = obs.y_r;
        query_obs_runs(q, &band, y_r, out, pick, |positive, lo, hi, visit| {
            let tree = if positive {
                &mut obs.pos_tree
            } else {
                &mut obs.neg_tree
            };
            tree.range_runs(lo, hi, visit).expect(PAGER_FAULT);
        })
    }

    /// Index of the observation element minimizing the enlargement `E`
    /// of equation (1) for this query.
    fn best_obs(&self, q: &MorQuery1D) -> usize {
        e_minimizing_obs(q, &self.cfg.band, self.obs.iter().map(|o| o.y_r))
    }

    /// [`IndexStats::set_backends`] under this type's own path, which the
    /// benchmark ledger (`perf/`) calls without the trait in scope.
    pub fn set_backends(&mut self, make: &mut dyn FnMut() -> Box<dyn mobidx_pager::Backend>) {
        IndexStats::set_backends(self, make);
    }

    /// Commits one window on every durable B+-tree (the static tree and
    /// each observation tree): seals them all, then settles them all, so
    /// their fsyncs are in flight together. Trees on non-durable
    /// backends are unaffected (their commit is a no-op). The subterrain
    /// interval indices carry no byte codec yet and stay
    /// memory-resident even when the trees are durable.
    ///
    /// # Errors
    /// Reports the first tree, in store order, whose journal rejected
    /// the window. Sealing stops at a tree that fails to seal, and every
    /// tree sealed before it is settled all the same; a tree that failed
    /// keeps its window and retries it on the next commit, as does every
    /// tree after a failed seal.
    pub fn commit_group(&mut self) -> Result<(), CommitError> {
        let sealed = self.seal_group();
        self.settle_group().and(sealed)
    }

    /// Seals the window of every tree in store order, up to the first
    /// that fails; the trees before it are left sealed.
    pub(crate) fn seal_group(&mut self) -> Result<(), CommitError> {
        self.static_tree.try_seal().map_err(static_failed)?;
        for (i, obs) in self.obs.iter_mut().enumerate() {
            obs.pos_tree.try_seal().map_err(obs_failed(i, "pos"))?;
            obs.neg_tree.try_seal().map_err(obs_failed(i, "neg"))?;
        }
        Ok(())
    }

    /// Settles every tree (one with nothing sealed settles at once) and
    /// reports the first that fails, in store order.
    pub(crate) fn settle_group(&mut self) -> Result<(), CommitError> {
        let mut settled = self.static_tree.try_settle().map_err(static_failed);
        for (i, obs) in self.obs.iter_mut().enumerate() {
            let pos = obs.pos_tree.try_settle().map_err(obs_failed(i, "pos"));
            let neg = obs.neg_tree.try_settle().map_err(obs_failed(i, "neg"));
            settled = settled.and(pos).and(neg);
        }
        settled
    }

    /// Like [`Index1D::query`] but returning the matching motions as the
    /// observation index reconstructs them, with the candidate entries
    /// scanned to find them (used by the 2-D decomposition method, which
    /// refines on per-axis motions and reports both axes' candidates).
    ///
    /// Caveat: results produced by the case-ii subterrain interval
    /// indices (wide queries with `maintain_subterrain` enabled) carry
    /// only the id — their motion fields are NaN placeholders, because
    /// the interval index stores residence times, not trajectories.
    /// Callers needing motions (the 2-D decomposition) use narrow
    /// queries on indexes without subterrain maintenance, which always
    /// take case i.
    pub fn query_motions(&mut self, q: &MorQuery1D) -> (Vec<Motion1D>, u64) {
        let mut out = Vec::new();
        let candidates = self.collect_matches(q, &mut out, |m| m);
        (out, candidates)
    }

    /// The matching machinery behind [`DualBPlusIndex::query_motions`]
    /// and [`Index1D::search`]: `pick` of every matching motion is
    /// appended to `out`, so id-level callers never build a
    /// `Vec<Motion1D>`. Returns the entries scanned: everything the
    /// conservative `b`-ranges touched, before the exact speed filter,
    /// so that `candidates − results` are the false hits of the §3.5.2
    /// rectangle approximation.
    fn collect_matches<T: Copy>(
        &mut self,
        q: &MorQuery1D,
        out: &mut Vec<T>,
        pick: impl Fn(Motion1D) -> T + Copy,
    ) -> u64 {
        debug_assert!(q.t1 <= q.t2, "inverted time window {q:?}");
        let strip = self.strip();
        if self.sub.is_empty() || q.y2 - q.y1 <= strip {
            // Case i: single E-minimizing observation index.
            let best = self.best_obs(q);
            return self.query_obs(best, q, out, pick);
        }
        // Case ii: decompose over fully covered subterrains.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let j_first = (q.y1 / strip).ceil() as usize; // first full strip
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let j_last = ((q.y2 / strip).floor() as usize).min(self.cfg.c); // one past last full strip
        if j_first >= j_last {
            let best = self.best_obs(q);
            return self.query_obs(best, q, out, pick);
        }
        // Full strips: exact window queries on the interval indices
        // (every reported entry is a true hit, so candidates = results
        // for this component).
        let before = out.len();
        for j in j_first..j_last {
            self.sub[j]
                .try_window_for_each(q.t1, q.t2, |id| {
                    // The interval index knows residence, not the motion;
                    // report with a placeholder motion reconstructed lazily
                    // by the caller if needed. For id-level answers this is
                    // enough; query_motions callers (2-D decomposition) use
                    // narrow queries that never reach case ii.
                    out.push(pick(Motion1D {
                        id,
                        t0: f64::NAN,
                        y0: f64::NAN,
                        v: f64::NAN,
                    }));
                })
                .expect(PAGER_FAULT);
        }
        let mut candidates = (out.len() - before) as u64;
        // Endpoint slivers.
        #[allow(clippy::cast_precision_loss)]
        let z_first = j_first as f64 * strip;
        #[allow(clippy::cast_precision_loss)]
        let z_last = j_last as f64 * strip;
        if q.y1 < z_first {
            let sliver = MorQuery1D { y2: z_first, ..*q };
            let best = self.best_obs(&sliver);
            candidates += self.query_obs(best, &sliver, out, pick);
        }
        if q.y2 > z_last {
            let sliver = MorQuery1D { y1: z_last, ..*q };
            let best = self.best_obs(&sliver);
            candidates += self.query_obs(best, &sliver, out, pick);
        }
        candidates
    }
}

impl IndexStats for DualBPlusIndex {
    fn name(&self) -> String {
        format!(
            "dual-B+ (c={}{})",
            self.cfg.c,
            if self.sub.is_empty() { "" } else { "+iv" }
        )
    }

    /// The static tree, each observation element's two velocity-sign
    /// trees (labelled together), then any subterrain interval index.
    fn stores(&self, visit: &mut dyn FnMut(fmt::Arguments<'_>, &dyn Store)) {
        visit(format_args!("static"), self.static_tree.store());
        for (i, obs) in self.obs.iter().enumerate() {
            visit(format_args!("obs{i}"), obs.pos_tree.store());
            visit(format_args!("obs{i}"), obs.neg_tree.store());
        }
        for (j, sub) in self.sub.iter().enumerate() {
            visit(format_args!("sub{j}"), sub.store());
        }
    }

    fn stores_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Store)) {
        visit(self.static_tree.store_mut());
        for obs in &mut self.obs {
            visit(obs.pos_tree.store_mut());
            visit(obs.neg_tree.store_mut());
        }
        for sub in &mut self.sub {
            visit(sub.store_mut());
        }
    }

    fn commit_group(&mut self) -> Result<(), CommitError> {
        DualBPlusIndex::commit_group(self)
    }
}

fn static_failed(error: PagerError) -> CommitError {
    CommitError {
        store: "static".to_owned(),
        error,
    }
}

fn obs_failed(i: usize, sign: &'static str) -> impl Fn(PagerError) -> CommitError {
    move |error| CommitError {
        store: format!("obs{i}.{sign}"),
        error,
    }
}

impl Index1D for DualBPlusIndex {
    fn insert(&mut self, m: &Motion1D) {
        if Self::is_static(m) {
            self.static_tree.try_insert(m.y0, m.id).expect(PAGER_FAULT);
            return;
        }
        for obs in &mut self.obs {
            let b = hough_y_b(m, obs.y_r);
            let v = m.v;
            obs.tree_for(v)
                .try_insert(b, (v.to_bits(), m.id))
                .expect(PAGER_FAULT);
        }
        let strip = self.strip();
        for (j, sub) in self.sub.iter_mut().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let z_lo = j as f64 * strip;
            let (t_in, t_out) = Self::residence(m, z_lo, z_lo + strip);
            sub.try_insert(t_in, t_out, m.id).expect(PAGER_FAULT);
        }
    }

    fn remove(&mut self, m: &Motion1D) -> bool {
        if Self::is_static(m) {
            return self.static_tree.try_remove(m.y0, m.id).expect(PAGER_FAULT);
        }
        let mut found = true;
        for obs in &mut self.obs {
            let b = hough_y_b(m, obs.y_r);
            let v = m.v;
            found &= obs
                .tree_for(v)
                .try_remove(b, (v.to_bits(), m.id))
                .expect(PAGER_FAULT);
        }
        let strip = self.strip();
        for (j, sub) in self.sub.iter_mut().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let z_lo = j as f64 * strip;
            let (t_in, t_out) = Self::residence(m, z_lo, z_lo + strip);
            found &= sub.try_remove(t_in, t_out, m.id).expect(PAGER_FAULT);
        }
        found
    }

    /// Grouped write path: each observation tree applies its removals
    /// and insertions as **one** merged key-ordered pass. Removals stay
    /// per-entry (delete rebalancing is inherently page-at-a-time) while
    /// runs of consecutive insertions go through the grouped
    /// `try_insert_batch` descent — `k` records landing in the same leaf
    /// dirty it once instead of `k` times. Interleaving matters as much
    /// as sorting: with the deliberately tiny buffer pools of the I/O
    /// model, a remove-all-then-insert-all schedule evicts each touched
    /// leaf between the two passes and reads it twice; the merged pass
    /// touches every leaf while it is hot.
    fn batch_update(&mut self, removes: &[Motion1D], inserts: &[Motion1D]) -> usize {
        // Mirror the per-op semantics: a removal counts as found only if
        // every structure holding the record found it.
        let mut found = vec![true; removes.len()];

        // Static objects: position tree only.
        for (j, m) in removes.iter().enumerate() {
            if Self::is_static(m) {
                found[j] = self.static_tree.try_remove(m.y0, m.id).expect(PAGER_FAULT);
            }
        }

        // Subterrain interval indices key residence intervals, not
        // b-coordinates; they keep the per-op path.
        if !self.sub.is_empty() {
            let strip = self.strip();
            for (j, m) in removes.iter().enumerate() {
                if Self::is_static(m) {
                    continue;
                }
                for (s, sub) in self.sub.iter_mut().enumerate() {
                    #[allow(clippy::cast_precision_loss)]
                    let z_lo = s as f64 * strip;
                    let (t_in, t_out) = Self::residence(m, z_lo, z_lo + strip);
                    found[j] &= sub.try_remove(t_in, t_out, m.id).expect(PAGER_FAULT);
                }
            }
            for m in inserts.iter().filter(|m| !Self::is_static(m)) {
                for (s, sub) in self.sub.iter_mut().enumerate() {
                    #[allow(clippy::cast_precision_loss)]
                    let z_lo = s as f64 * strip;
                    let (t_in, t_out) = Self::residence(m, z_lo, z_lo + strip);
                    sub.try_insert(t_in, t_out, m.id).expect(PAGER_FAULT);
                }
            }
        }

        // Observation trees, grouped per (index, velocity sign).
        for i in 0..self.obs.len() {
            let y_r = self.obs[i].y_r;
            for positive in [true, false] {
                let in_group = |m: &&Motion1D| !Self::is_static(m) && (m.v > 0.0) == positive;
                let mut rs: Vec<(usize, f64, ObsValue)> = removes
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| in_group(m))
                    .map(|(j, m)| (j, hough_y_b(m, y_r), (m.v.to_bits(), m.id)))
                    .collect();
                rs.sort_unstable_by(|a, b| tree_order((a.1, &a.2), (b.1, &b.2)));
                let mut es: Vec<(f64, ObsValue)> = inserts
                    .iter()
                    .filter(in_group)
                    .map(|m| (hough_y_b(m, y_r), (m.v.to_bits(), m.id)))
                    .collect();
                es.sort_unstable_by(|a, b| tree_order((a.0, &a.1), (b.0, &b.1)));
                let tree = if positive {
                    &mut self.obs[i].pos_tree
                } else {
                    &mut self.obs[i].neg_tree
                };
                // Merged pass: flush the insertion run strictly below
                // each removal key, then remove (at equal keys the
                // removal goes first — multiset semantics are identical
                // either way, and the leaf is touched exactly once).
                let mut ei = 0usize;
                for &(j, b, val) in &rs {
                    let run = es[ei..]
                        .iter()
                        .take_while(|e| tree_order((e.0, &e.1), (b, &val)).is_lt())
                        .count();
                    tree.try_insert_batch(&es[ei..ei + run]).expect(PAGER_FAULT);
                    ei += run;
                    found[j] &= tree.try_remove(b, val).expect(PAGER_FAULT);
                }
                tree.try_insert_batch(&es[ei..]).expect(PAGER_FAULT);
            }
        }

        // Static insertions, as one sorted batch too.
        let mut statics: Vec<(f64, u64)> = inserts
            .iter()
            .filter(|m| Self::is_static(m))
            .map(|m| (m.y0, m.id))
            .collect();
        statics.sort_unstable_by(|a, b| tree_order((a.0, &a.1), (b.0, &b.1)));
        self.static_tree
            .try_insert_batch(&statics)
            .expect(PAGER_FAULT);

        found.into_iter().filter(|&f| f).count()
    }

    fn search(&mut self, q: &MorQuery1D, out: &mut Vec<u64>) -> u64 {
        let mut scanned = 0;
        assemble(out, |candidates| {
            scanned = self.collect_matches(q, candidates, |m| m.id);
            // Static objects: position is time-invariant, so the MOR
            // query degenerates to a range scan (exact — every scanned
            // entry is a true hit).
            if !self.static_tree.is_empty() {
                let before = candidates.len();
                self.static_tree
                    .try_range_for_each(q.y1, q.y2, |_, id| candidates.push(id))
                    .expect(PAGER_FAULT);
                scanned += (candidates.len() - before) as u64;
            }
        });
        scanned
    }

    /// Freezes the observation and static trees into an immutable,
    /// thread-safe view over copy-on-write pages. Returns `None` when
    /// the per-subterrain interval indices are live (`maintain_subterrain`
    /// — they have no frozen representation yet); the paper's
    /// experimental configuration, and the serving tier's, never enables
    /// them.
    fn freeze(&self) -> Option<Box<dyn crate::method::FrozenIndex1D>> {
        if !self.sub.is_empty() {
            return None;
        }
        Some(Box::new(FrozenDualBPlus {
            obs: self
                .obs
                .iter()
                .map(|o| FrozenObs {
                    y_r: o.y_r,
                    pos: o.pos_tree.freeze(),
                    neg: o.neg_tree.freeze(),
                })
                .collect(),
            static_tree: self.static_tree.freeze(),
            band: self.cfg.band,
        }))
    }

    /// Refreezes the `2c + 1` trees of a view [`Index1D::freeze`] built,
    /// in place. `false` where `freeze` gives `None` (live subterrain
    /// indices), and for a view of another shape.
    fn refreeze(&mut self, view: &mut dyn crate::method::FrozenIndex1D) -> bool {
        let Some(view) = view
            .as_any_mut()
            .and_then(|view| view.downcast_mut::<FrozenDualBPlus>())
        else {
            return false;
        };
        if !self.sub.is_empty() || view.obs.len() != self.obs.len() {
            return false;
        }
        view.band = self.cfg.band;
        self.obs.iter_mut().zip(&mut view.obs).all(|(o, frozen)| {
            frozen.y_r = o.y_r;
            o.pos_tree.refreeze(&mut frozen.pos) && o.neg_tree.refreeze(&mut frozen.neg)
        }) && self.static_tree.refreeze(&mut view.static_tree)
    }
}

/// One frozen observation index: the `y_r` element plus its two
/// velocity-sign trees.
#[derive(Debug)]
struct FrozenObs {
    y_r: f64,
    pos: FrozenTree<f64, ObsValue>,
    neg: FrozenTree<f64, ObsValue>,
}

/// The frozen view published by [`DualBPlusIndex`]'s
/// [`Index1D::freeze`]: case-i query answering (E-minimizing
/// observation index, conservative `b`-range scans, exact speed
/// filtering) plus the static-tree range scan, all over frozen
/// copy-on-write pages through `&self`.
#[derive(Debug)]
struct FrozenDualBPlus {
    obs: Vec<FrozenObs>,
    static_tree: FrozenTree<f64, u64>,
    band: SpeedBand,
}

impl crate::method::FrozenIndex1D for FrozenDualBPlus {
    fn search_set(&self, q: &MorQuery1D, out: &mut IdSet) -> crate::method::FrozenReadStats {
        debug_assert!(q.t1 <= q.t2, "inverted time window {q:?}");
        let mut stats = crate::method::FrozenReadStats::default();
        assemble_set(out, |candidates| {
            // Case i: single E-minimizing observation index (the frozen
            // view is only published when subterrain maintenance is off,
            // so the live index would take the same route).
            let best = e_minimizing_obs(q, &self.band, self.obs.iter().map(|o| o.y_r));
            let obs = &self.obs[best];
            stats.candidates += query_obs_runs(
                q,
                &self.band,
                obs.y_r,
                candidates,
                |m| m.id,
                |positive, lo, hi, visit| {
                    let tree = if positive { &obs.pos } else { &obs.neg };
                    stats.pages += tree.range_runs(lo, hi, visit);
                },
            );
            if !self.static_tree.is_empty() {
                let before = candidates.len();
                stats.pages += self
                    .static_tree
                    .range_for_each(q.y1, q.y2, |_, id| candidates.push(id));
                stats.candidates += (candidates.len() - before) as u64;
            }
        });
        stats
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidx_bptree::TreeConfig;
    use mobidx_workload::{brute_force_1d, Simulator1D, WorkloadConfig};
    use proptest::prelude::*;

    fn small_cfg(c: usize, subterrain: bool) -> DualBPlusConfig {
        DualBPlusConfig {
            c,
            maintain_subterrain: subterrain,
            tree: TreeConfig {
                leaf_cap: 16,
                branch_cap: 16,
                buffer_pages: 4,
            },
            interval: mobidx_interval::IntervalConfig::small(16, 16),
            ..DualBPlusConfig::default()
        }
    }

    fn run_scenario(c: usize, subterrain: bool, yqmax: f64, tw: f64, seed: u64) {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 600,
            updates_per_instant: 30,
            seed,
            ..WorkloadConfig::default()
        });
        let mut idx = DualBPlusIndex::new(small_cfg(c, subterrain));
        for m in sim.objects() {
            idx.insert(m);
        }
        for step in 0..30 {
            for u in sim.step() {
                assert!(idx.remove(&u.old), "step {step}: stale {:?}", u.old);
                idx.insert(&u.new);
            }
            if step % 7 == 0 {
                for _ in 0..10 {
                    let q = sim.gen_query(yqmax, tw);
                    let got = idx.query(&crate::method::QueryRequest::new(&q));
                    let want = brute_force_1d(sim.objects(), &q);
                    assert_eq!(got, want, "step {step} query {q:?}");
                }
            }
        }
    }

    #[test]
    fn large_queries_match_brute_force() {
        run_scenario(6, false, 150.0, 60.0, 101);
    }

    #[test]
    fn small_queries_match_brute_force() {
        run_scenario(6, false, 10.0, 20.0, 102);
    }

    #[test]
    fn c4_and_c8_also_exact() {
        run_scenario(4, false, 150.0, 60.0, 103);
        run_scenario(8, false, 150.0, 60.0, 104);
    }

    #[test]
    fn subterrain_decomposition_exact_on_wide_queries() {
        // c=4 → strip 250; YQMAX=600 forces case ii decomposition.
        run_scenario(4, true, 600.0, 40.0, 105);
    }

    #[test]
    fn single_observation_index_works() {
        run_scenario(1, false, 150.0, 60.0, 106);
    }

    #[test]
    fn update_cost_scales_with_c() {
        let mut idx4 = DualBPlusIndex::new(small_cfg(4, false));
        let mut idx8 = DualBPlusIndex::new(small_cfg(8, false));
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 2000,
            seed: 9,
            ..WorkloadConfig::default()
        });
        for m in sim.objects() {
            idx4.insert(m);
            idx8.insert(m);
        }
        idx4.clear_buffers();
        idx8.clear_buffers();
        idx4.reset_io();
        idx8.reset_io();
        let ups = sim.step();
        for u in &ups {
            idx4.remove(&u.old);
            idx4.insert(&u.new);
            idx8.remove(&u.old);
            idx8.insert(&u.new);
        }
        let io4 = idx4.io_totals().ios();
        let io8 = idx8.io_totals().ios();
        assert!(
            io8 > io4,
            "maintaining more observation indices must cost more ({io4} vs {io8})"
        );
    }

    #[test]
    fn static_objects_supported() {
        let mut idx = DualBPlusIndex::new(small_cfg(4, false));
        // A parked car and a moving one.
        let parked = Motion1D {
            id: 1,
            t0: 0.0,
            y0: 500.0,
            v: 0.0,
        };
        let moving = Motion1D {
            id: 2,
            t0: 0.0,
            y0: 480.0,
            v: 1.0,
        };
        idx.insert(&parked);
        idx.insert(&moving);
        // Window where the mover passes the parked car.
        let q = MorQuery1D {
            y1: 495.0,
            y2: 505.0,
            t1: 10.0,
            t2: 30.0,
        };
        assert_eq!(idx.query(&crate::method::QueryRequest::new(&q)), vec![1, 2]);
        // A range missing the parked position excludes it at any time.
        let q2 = MorQuery1D {
            y1: 510.0,
            y2: 520.0,
            t1: 0.0,
            t2: 1000.0,
        };
        assert_eq!(idx.query(&crate::method::QueryRequest::new(&q2)), vec![2]);
        assert!(idx.remove(&parked));
        assert!(!idx.remove(&parked));
        assert_eq!(idx.query(&crate::method::QueryRequest::new(&q)), vec![2]);
    }

    /// Static objects at −0.0 and 0.0 in one batch: one key to the tree,
    /// so the batch must reach `try_insert_batch` in that order, ties broken
    /// by id — not with −0.0 first.
    #[test]
    fn a_batch_of_static_objects_at_both_zeros_is_sorted_as_the_tree_sorts() {
        let parked = |id, y0| Motion1D {
            id,
            t0: 0.0,
            y0,
            v: 0.0,
        };
        let mut idx = DualBPlusIndex::new(small_cfg(4, false));
        let inserts = [
            parked(5, -0.0),
            parked(3, 0.0),
            parked(4, -0.0),
            parked(9, 1.0),
        ];
        assert_eq!(idx.batch_update(&[], &inserts), 0);
        let q = MorQuery1D {
            y1: -1.0,
            y2: 0.5,
            t1: 0.0,
            t2: 1.0,
        };
        assert_eq!(
            idx.query(&crate::method::QueryRequest::new(&q)),
            vec![3, 4, 5]
        );
        for m in &inserts {
            assert!(idx.remove(m), "{m:?}");
        }
    }

    /// A terrain of 768 puts every observation element on a dyadic `y_r`
    /// at c = 1 and c = 6, and speeds of ±¼, ±½ and ±1 keep `b` and every
    /// reconstructed position exact, so an object sits *on* `y1` / `y2`
    /// at `t1` / `t2` in the index exactly as it does in the oracle.
    #[test]
    fn exact_ties_on_every_query_corner_agree_live_frozen_and_brute_force() {
        let queries = [
            (100.0, 200.0, 20.0, 30.0),
            (100.0, 200.0, 25.0, 25.0), // zero-length window
            (384.0, 384.0, 10.0, 40.0), // zero-length range on the c = 1 element
            (64.0, 448.0, 12.0, 13.0),  // edges on c = 6 elements
            (0.0, 768.0, 50.0, 50.0),
            (500.0, 520.0, 10.0, 16.0),
        ]
        .map(|(y1, y2, t1, t2)| MorQuery1D { y1, y2, t1, t2 });
        let mut objects = Vec::new();
        for q in &queries {
            for (t, y) in [(q.t1, q.y1), (q.t1, q.y2), (q.t2, q.y1), (q.t2, q.y2)] {
                for v in [0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0] {
                    for back in [0.0, 3.0] {
                        objects.push(Motion1D {
                            id: objects.len() as u64,
                            t0: t - back,
                            y0: y - v * back,
                            v,
                        });
                    }
                }
            }
        }
        for c in [1, 6] {
            let mut idx = DualBPlusIndex::new(DualBPlusConfig {
                terrain: 768.0,
                ..small_cfg(c, false)
            });
            for m in &objects {
                idx.insert(m);
            }
            let frozen = idx.freeze().expect("no subterrain indices");
            let mut from_frozen = Vec::new();
            for q in &queries {
                let want = brute_force_1d(&objects, q);
                assert!(!want.is_empty(), "c={c} {q:?}: the corners must be hit");
                let live = idx.query(&crate::method::QueryRequest::new(q));
                assert_eq!(live, want, "live, c={c} {q:?}");
                frozen.search(q, &mut from_frozen);
                assert_eq!(from_frozen, want, "frozen, c={c} {q:?}");
            }
        }
    }

    #[test]
    fn a_refrozen_view_answers_as_of_the_refreeze() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 600,
            updates_per_instant: 30,
            seed: 91,
            ..WorkloadConfig::default()
        });
        let mut idx = DualBPlusIndex::new(small_cfg(4, false));
        for m in sim.objects() {
            idx.insert(m);
        }
        let mut view = idx.freeze().expect("no subterrain indices");
        let mut out = Vec::new();
        for step in 0..8 {
            for u in sim.step() {
                assert!(idx.remove(&u.old));
                idx.insert(&u.new);
            }
            assert!(idx.refreeze(view.as_mut()), "step {step}");
            for _ in 0..8 {
                let q = sim.gen_query(150.0, 60.0);
                view.search(&q, &mut out);
                assert_eq!(out, brute_force_1d(sim.objects(), &q), "step {step} {q:?}");
            }
        }
        // Another shape, or an index that cannot freeze, refuses.
        assert!(!DualBPlusIndex::new(small_cfg(2, false)).refreeze(view.as_mut()));
        assert!(!DualBPlusIndex::new(small_cfg(4, true)).refreeze(view.as_mut()));
    }

    /// A speed magnitude of a shape the sign-specialised filter must
    /// order exactly as `matches` does: ordinary; huge, so positions
    /// overflow to ±∞; subnormal, so products round to ±0; infinite, so
    /// a zero `t − b` makes a position NaN; and NaN itself.
    fn speed() -> impl Strategy<Value = f64> {
        prop_oneof![
            4 => 0.001f64..10.0,
            1 => 1e300f64..f64::MAX,
            1 => (1u64..1 << 52).prop_map(f64::from_bits),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NAN),
        ]
    }

    proptest! {
        #[test]
        fn filter_run_keeps_exactly_what_matches_keeps(
            (t1, dt, y1, dy) in (
                0i32..64,
                prop_oneof![Just(0), 1i32..20],
                0i32..1000,
                prop_oneof![Just(0), 1i32..200],
            ),
            y_r in 0i32..1000,
            positive in any::<bool>(),
            // (corner, ulps nudged, speed exponent, free b, free speed):
            // corners 0..4 place the entry exactly on one (t, y) corner of
            // the query at speed 2^exponent; corner 4 uses the free pair.
            entries in prop::collection::vec(
                (0u8..5, -2i32..=2, -3i32..=3, -100.0f64..200.0, speed()),
                0..300,
            ),
        ) {
            let q = MorQuery1D {
                y1: f64::from(y1),
                y2: f64::from(y1 + dy),
                t1: f64::from(t1),
                t2: f64::from(t1 + dt),
            };
            let y_r = f64::from(y_r);
            let run: Vec<(f64, ObsValue)> = entries
                .iter()
                .zip(0u64..)
                .map(|(&(corner, ulps, exponent, free_b, free_speed), id)| {
                    let speed = if corner < 4 { 2f64.powi(exponent) } else { free_speed };
                    let v = if positive { speed } else { -speed };
                    let mut b = if corner < 4 {
                        let t = if corner & 1 == 0 { q.t1 } else { q.t2 };
                        let y = if corner & 2 == 0 { q.y1 } else { q.y2 };
                        t - (y - y_r) / v
                    } else {
                        free_b
                    };
                    for _ in 0..ulps.unsigned_abs() {
                        b = if ulps > 0 { b.next_up() } else { b.next_down() };
                    }
                    (b, (v.to_bits(), id))
                })
                .collect();
            let mut slots = vec![u64::MAX; run.len()];
            let kept = filter_run(&run, y_r, positive, &q, &mut slots, |m| m.id);
            let want: Vec<u64> = run
                .iter()
                .filter(|entry| q.matches(&obs_motion(entry, y_r)))
                .map(|&(_, (_, id))| id)
                .collect();
            prop_assert_eq!(&slots[..kept], &want[..]);
        }
    }

    #[test]
    fn query_io_reasonable() {
        // A small query must not scan the whole structure.
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 5000,
            seed: 13,
            ..WorkloadConfig::default()
        });
        let mut idx = DualBPlusIndex::new(small_cfg(6, false));
        for m in sim.objects() {
            idx.insert(m);
        }
        for _ in 0..3 {
            let _ = sim.step();
        }
        idx.clear_buffers();
        idx.reset_io();
        let q = sim.gen_query(10.0, 20.0);
        let _ = idx.query(&crate::method::QueryRequest::new(&q));
        let cost = idx.io_totals().reads;
        let pages = idx.io_totals().pages;
        assert!(cost < pages / 4, "small query cost {cost} of {pages} pages");
    }
}
