//! §5-style velocity partitioning over the dual-B+ method: a family of
//! per-band [`DualBPlusIndex`] sub-indexes behind one [`Index1D`]
//! facade, with analytically optimized band boundaries and an
//! incremental band-to-band repartitioning protocol.
//!
//! # Why partition by speed
//!
//! The Hough-Y query window of the approximation method is conservative
//! over a whole speed band: for an observation element `y_r` the
//! enlargement is `E = ½·f²·(|y2−y_r| + |y1−y_r|)` with
//! `f = (v_max−v_min)/(v_min·v_max)` ([`crate::dual::enlargement_e`]).
//! Every scanned entry outside the exact answer is a false hit, and
//! §3.5.2 charges those directly to query I/O. Substituting `u = 1/v` turns the
//! enlargement factor into a plain width: `f = 1/v_min − 1/v_max = Δu`.
//! Splitting the population into `k` bands therefore replaces one
//! global `Δu²` penalty with per-band `Δu_b²` penalties weighted by how
//! many records actually live in each band — the cost model of the
//! speed/velocity-partitioning papers ("Speed Partitioning for Indexing
//! Moving Objects", "Boosting Moving Object Indexing through Velocity
//! Partitioning") specialized to the dual transform:
//!
//! ```text
//! C(edges) = Σ_b  w_b · Δu_b²  +  κ·k
//! ```
//!
//! where `w_b` is the fraction of records in band `b` (from the
//! observed velocity histogram) and `κ` ([`VpDualConfig::band_cost`])
//! charges each extra band its fixed tree-descent overhead.
//!
//! # The boundary optimizer
//!
//! Minimizing `Σ w_b Δu_b²` is a one-dimensional quantizer design in
//! `u`-space, so the closed form is classic companding (Panter–Dite /
//! Lloyd–Max): at high resolution the optimal band widths satisfy
//! `Δu(u) ∝ g(u)^{-1/3}` for velocity density `g(u)`, i.e. the cuts sit
//! at **equal quantiles of `∫ g(u)^{1/3} du`** ([`analytic_edges`]).
//! Real histograms are discrete and the `κ·k` term makes the band count
//! itself a decision, so [`optimize_boundaries`] sharpens the analytic
//! seed with an exact dynamic program over a log-spaced candidate grid,
//! choosing both the cut positions and the number of bands `k ≤ k_max`.
//! With no observations yet it falls back to equal-ratio
//! ([`geometric_edges`]) cuts, which equalize `Δu_b/u` — the right
//! prior when nothing is known beyond the global band.
//!
//! # Incremental repartitioning
//!
//! The facade migrates between layouts without a stop-the-world
//! rebuild, relying on one structural fact: a sub-index's [`SpeedBand`]
//! is a *query-side* parameter ([`DualBPlusIndex::set_band`]) — stored
//! `b`-coordinates never depend on it, so a band can be widened or
//! narrowed in O(1) while records stay put.
//!
//! 1. [`begin_repartition`](VpDualIndex::begin_repartition) widens each
//!    sub-index's band to cover its old **and** new bands, so queries
//!    stay exact no matter which side of the move a record is on, and
//!    installs the new edges as the *pending* routing table — incoming
//!    inserts land in their final band immediately.
//! 2. [`migrate_chunk`](VpDualIndex::migrate_chunk) moves a batch of
//!    movers: each is removed from its old-layout band (skipped if
//!    absent — it was concurrently updated and already routed) and
//!    re-inserted, grouped and locality-sorted, through the batched
//!    update path. Chunks are sized by the caller, so a serving shard
//!    interleaves migration with live traffic.
//! 3. [`finish_repartition`](VpDualIndex::finish_repartition) narrows
//!    every band to its exact new extent and publishes the new edges.
//!
//! Because pending edges route *all* concurrent writes from step 1
//! onward, a caller that snapshots the record population **after**
//! `begin_repartition` returns needs no locks: records updated after
//! the snapshot are already in their target band, and the stale
//! snapshot entries simply fail their removal and are skipped.

use crate::db::sort_by_dual_locality;
use crate::dual::SpeedBand;
use crate::ids::{merge_sorted_ids, union_set, IdSet};
use crate::method::{BandIo, FrozenIndex1D, FrozenReadStats, Index1D, IndexStats};
use mobidx_bptree::TreeConfig;
use mobidx_pager::Store;
use mobidx_workload::{MorQuery1D, Motion1D};
use std::fmt;
use std::sync::Mutex;

use super::dual_bplus::{DualBPlusConfig, DualBPlusIndex};

/// Resolution of the candidate-cut grid the optimizer works over: the
/// global band is split into this many log-spaced cells, and every band
/// edge the optimizer can emit is one of the cell boundaries.
const GRID_CELLS: usize = 48;

/// Relative padding applied to each sub-index band so records whose
/// speed sits exactly on a cut are covered by the band they route to
/// (mirrors the serving tier's shard-band padding).
const EDGE_PAD: f64 = 1e-6;

/// Configuration for [`VpDualIndex`].
#[derive(Debug, Clone, Copy)]
pub struct VpDualConfig {
    /// Maximum number of speed bands (`k_max`). The optimizer may pick
    /// fewer when the fixed per-band probe cost outweighs the
    /// enlargement savings.
    pub bands: usize,
    /// Observation indexes (`c`) per band's dual-B+ sub-index. Bands
    /// answer with tight windows, so they need fewer observation
    /// elements than a global dual-B+ — updates get cheaper too.
    pub c: usize,
    /// Terrain length (the paper's 1000-mile highway).
    pub terrain: f64,
    /// Global speed band; every partition spans exactly this range.
    pub band: SpeedBand,
    /// Page geometry for every sub-index's B+-trees.
    pub tree: TreeConfig,
    /// Fixed cost `κ` charged per band in the boundary optimizer's
    /// objective `Σ w_b·Δu_b² + κ·k` — models the extra root-to-leaf
    /// descents every additional band costs each query. Normalized
    /// against `Σ w_b = 1`.
    pub band_cost: f64,
    /// Keep every sub-tree's root page pinned
    /// ([`DualBPlusIndex::pin_roots`]): `k·(2c + 1)` pages of dedicated
    /// memory so each of the facade's fan-out descents costs
    /// `height - 1` I/Os instead of `height`. This is what makes many
    /// small per-band trees competitive with one flat index at the
    /// paper's scales. Off in the fault-injection harness, whose crash
    /// budgets count physical I/Os per store.
    pub pin_roots: bool,
}

impl Default for VpDualConfig {
    fn default() -> Self {
        VpDualConfig {
            bands: 3,
            c: 3,
            terrain: 1000.0,
            band: SpeedBand::paper(),
            tree: TreeConfig::default(),
            band_cost: 0.05,
            pin_roots: true,
        }
    }
}

/// Cumulative per-band query counters (candidates scanned and exact
/// results contributed), reset whenever the band layout changes.
#[derive(Debug, Clone, Copy, Default)]
struct BandCounters {
    candidates: u64,
    results: u64,
}

/// The velocity-partitioned dual-B+ index (see module docs).
///
/// Records route to bands by speed *magnitude* (`|v|` — each dual-B+
/// sub-index already splits by sign internally), except static records
/// (`v == 0`), which always live in band 0's static tree regardless of
/// the band layout.
pub struct VpDualIndex {
    cfg: VpDualConfig,
    /// Current band edges: `edges[b]..edges[b+1]` is band `b`'s speed
    /// range. `edges[0] == band.v_min`, `edges[k] == band.v_max`.
    edges: Vec<f64>,
    /// New edges installed by `begin_repartition`, routing all writes
    /// until `finish_repartition` publishes them.
    pending: Option<Vec<f64>>,
    subs: Vec<DualBPlusIndex>,
    /// Records resident per sub-index (statics count toward band 0).
    residents: Vec<u64>,
    band_query: Vec<BandCounters>,
    last_candidates: u64,
    repartitions: u64,
    moved_total: u64,
    /// Per-band answer buffers of the most recent search, kept for
    /// their capacity.
    scratch: Vec<Vec<u64>>,
}

/// Equal-ratio band edges over `band`: `k` bands whose edges form a
/// geometric progression. The data-free prior — it equalizes the
/// *relative* enlargement `Δu_b·v` across bands.
///
/// # Panics
/// If `k == 0`.
#[must_use]
pub fn geometric_edges(band: SpeedBand, k: usize) -> Vec<f64> {
    assert!(k > 0, "at least one band");
    #[allow(clippy::cast_precision_loss)]
    let rho = (band.v_max / band.v_min).powf(1.0 / k as f64);
    let mut edges: Vec<f64> = Vec::with_capacity(k + 1);
    edges.push(band.v_min);
    for _ in 1..k {
        edges.push(edges.last().expect("non-empty") * rho);
    }
    edges.push(band.v_max);
    edges
}

/// Log-spaced candidate cut positions over `band`, with exact
/// endpoints.
fn grid_edges(band: SpeedBand, cells: usize) -> Vec<f64> {
    let rho = band.v_max / band.v_min;
    #[allow(clippy::cast_precision_loss)]
    let mut edges: Vec<f64> = (0..=cells)
        .map(|j| band.v_min * rho.powf(j as f64 / cells as f64))
        .collect();
    edges[0] = band.v_min;
    *edges.last_mut().expect("non-empty") = band.v_max;
    edges
}

/// Projects a linear-binned speed histogram (`hist` over
/// `[hist_lo, hist_hi]`, uniform density within each bin) onto the
/// grid's cells. Mass outside the global band is clamped into the first
/// / last cell — those records exist and must be covered by *some*
/// band.
fn grid_mass(hist: &[u64], hist_lo: f64, hist_hi: f64, grid: &[f64]) -> Vec<f64> {
    let cells = grid.len() - 1;
    let mut mass = vec![0.0_f64; cells];
    if hist.is_empty() || hist_hi <= hist_lo {
        return mass;
    }
    #[allow(clippy::cast_precision_loss)]
    let bin_w = (hist_hi - hist_lo) / hist.len() as f64;
    let (v_min, v_max) = (grid[0], grid[cells]);
    for (i, &count) in hist.iter().enumerate() {
        if count == 0 {
            continue;
        }
        #[allow(clippy::cast_precision_loss)]
        let (b_lo, b_hi) = (hist_lo + i as f64 * bin_w, hist_lo + (i + 1) as f64 * bin_w);
        #[allow(clippy::cast_precision_loss)]
        let density = count as f64 / bin_w;
        // Clamped overflow: below the band into cell 0, above into the
        // last cell.
        mass[0] += density * (b_hi.min(v_min) - b_lo).max(0.0);
        mass[cells - 1] += density * (b_hi - b_lo.max(v_max)).max(0.0);
        for (c, m) in mass.iter_mut().enumerate() {
            *m += density * (b_hi.min(grid[c + 1]) - b_lo.max(grid[c])).max(0.0);
        }
    }
    mass
}

/// The penalized partition cost `Σ w_b·Δu_b² + κ·k` of a concrete edge
/// set under an observed speed histogram (linear bins over
/// `[hist_lo, hist_hi]`, weights normalized so `Σ w_b = 1`) — the
/// objective [`optimize_boundaries`] minimizes. Exposed so tests and
/// tuning harnesses can compare candidate layouts under the same
/// measure.
#[must_use]
pub fn partition_cost(
    edges: &[f64],
    hist: &[u64],
    hist_lo: f64,
    hist_hi: f64,
    band: SpeedBand,
    band_cost: f64,
) -> f64 {
    let grid = grid_edges(band, GRID_CELLS);
    let mass = grid_mass(hist, hist_lo, hist_hi, &grid);
    let total: f64 = mass.iter().sum();
    if total <= 0.0 {
        #[allow(clippy::cast_precision_loss)]
        return band_cost * (edges.len() - 1) as f64;
    }
    let mut cost = 0.0;
    for b in 0..edges.len() - 1 {
        let (lo, hi) = (edges[b], edges[b + 1]);
        let du = 1.0 / lo - 1.0 / hi;
        // Cell mass is uniform within a cell, so a band collects each
        // cell's mass in proportion to their overlap (edges need not
        // sit on the grid).
        let w: f64 = (0..mass.len())
            .map(|c| {
                let cell = grid[c + 1] - grid[c];
                mass[c] * ((hi.min(grid[c + 1]) - lo.max(grid[c])).max(0.0) / cell)
            })
            .sum();
        cost += (w / total) * du * du + band_cost;
    }
    cost
}

/// Closed-form boundary optimizer for a fixed band count `k`: cuts at
/// equal quantiles of `∫ g(u)^{1/3} du` (Panter–Dite companding; see
/// module docs), snapped to the optimizer's candidate grid. The `κ·k`
/// term plays no role here since `k` is given.
///
/// # Panics
/// If `k == 0`.
#[must_use]
pub fn analytic_edges(
    hist: &[u64],
    hist_lo: f64,
    hist_hi: f64,
    band: SpeedBand,
    k: usize,
) -> Vec<f64> {
    assert!(k > 0, "at least one band");
    let grid = grid_edges(band, GRID_CELLS);
    let mass = grid_mass(hist, hist_lo, hist_hi, &grid);
    if mass.iter().sum::<f64>() <= 0.0 {
        return geometric_edges(band, k);
    }
    // Per-cell companding mass: ∫ g^{1/3} du over the cell, with g
    // constant inside = m/Δu, is m^{1/3}·Δu^{2/3}. Accumulating in
    // ascending-v order is fine — orientation doesn't change quantiles.
    let phi: Vec<f64> = (0..mass.len())
        .map(|c| {
            let du = 1.0 / grid[c] - 1.0 / grid[c + 1];
            mass[c].cbrt() * du.powf(2.0 / 3.0)
        })
        .collect();
    let phi_total: f64 = phi.iter().sum();
    let mut edges = vec![band.v_min];
    let mut acc = 0.0;
    let mut cell = 0usize;
    for cut in 1..k {
        #[allow(clippy::cast_precision_loss)]
        let target = phi_total * cut as f64 / k as f64;
        while cell < phi.len() - 1 && acc + phi[cell] < target {
            acc += phi[cell];
            cell += 1;
        }
        // Snap to the nearer side of the straddling cell, keeping the
        // edges strictly increasing.
        let snapped = if target - acc > acc + phi[cell] - target {
            grid[cell + 1]
        } else {
            grid[cell]
        };
        if snapped > *edges.last().expect("non-empty") {
            edges.push(snapped);
        }
    }
    edges.push(band.v_max);
    edges
}

/// Optimal band edges for the observed velocity histogram: seeds with
/// the closed-form [`analytic_edges`] for each candidate `k`, then runs
/// an exact dynamic program over the candidate grid minimizing the
/// penalized cost `Σ w_b·Δu_b² + κ·k` with `k ≤ k_max` (the DP
/// subsumes every grid-snapped analytic solution, so the result is
/// never worse). An empty histogram yields [`geometric_edges`] with
/// `k_max` bands.
///
/// # Panics
/// If `k_max == 0`.
#[must_use]
pub fn optimize_boundaries(
    hist: &[u64],
    hist_lo: f64,
    hist_hi: f64,
    band: SpeedBand,
    k_max: usize,
    band_cost: f64,
) -> Vec<f64> {
    assert!(k_max > 0, "at least one band");
    let grid = grid_edges(band, GRID_CELLS);
    let mass = grid_mass(hist, hist_lo, hist_hi, &grid);
    let total: f64 = mass.iter().sum();
    if total <= 0.0 {
        return geometric_edges(band, k_max);
    }
    let n = mass.len();
    let prefix: Vec<f64> = std::iter::once(0.0)
        .chain(mass.iter().scan(0.0, |acc, &m| {
            *acc += m;
            Some(*acc)
        }))
        .collect();
    let seg_cost = |a: usize, b: usize| -> f64 {
        let du = 1.0 / grid[a] - 1.0 / grid[b];
        ((prefix[b] - prefix[a]) / total) * du * du + band_cost
    };
    // dp[k][i]: min cost of covering cells [0, i) with exactly k bands.
    let inf = f64::INFINITY;
    let mut dp = vec![vec![inf; n + 1]; k_max + 1];
    let mut cut = vec![vec![0usize; n + 1]; k_max + 1];
    dp[0][0] = 0.0;
    for k in 1..=k_max {
        for i in k..=n {
            for j in (k - 1)..i {
                if dp[k - 1][j] < inf {
                    let c = dp[k - 1][j] + seg_cost(j, i);
                    if c < dp[k][i] {
                        dp[k][i] = c;
                        cut[k][i] = j;
                    }
                }
            }
        }
    }
    let best_k = (1..=k_max)
        .min_by(|&a, &b| dp[a][n].total_cmp(&dp[b][n]))
        .expect("k_max >= 1");
    let mut cells = vec![n];
    let (mut k, mut i) = (best_k, n);
    while k > 0 {
        i = cut[k][i];
        k -= 1;
        cells.push(i);
    }
    cells.reverse();
    cells.into_iter().map(|c| grid[c]).collect()
}

/// Band index of `speed` (a magnitude) under `edges`: out-of-range
/// speeds clamp into the first / last band.
fn band_of(edges: &[f64], speed: f64) -> usize {
    debug_assert!(edges.len() >= 2);
    let interior = &edges[1..edges.len() - 1];
    interior.partition_point(|&e| e <= speed)
}

/// The padded [`SpeedBand`] a sub-index uses so edge-sitting speeds
/// stay covered.
fn padded(lo: f64, hi: f64) -> SpeedBand {
    SpeedBand::new(lo * (1.0 - EDGE_PAD), hi * (1.0 + EDGE_PAD))
}

fn validate_edges(edges: &[f64], band: SpeedBand) {
    assert!(edges.len() >= 2, "edges must describe at least one band");
    assert!(
        edges.windows(2).all(|w| w[0] < w[1] && w[0].is_finite()),
        "edges must be finite and strictly increasing: {edges:?}"
    );
    assert!(
        edges[0] > 0.0 && (edges[0] - band.v_min).abs() < band.v_min * 1e-6,
        "first edge must sit at the global v_min"
    );
    let last = *edges.last().expect("non-empty");
    assert!(
        (last - band.v_max).abs() < band.v_max * 1e-6,
        "last edge must sit at the global v_max"
    );
}

impl VpDualIndex {
    /// Builds the index with equal-ratio initial boundaries (nothing is
    /// known about the velocity distribution yet — repartition once a
    /// histogram exists).
    ///
    /// # Panics
    /// If `cfg.bands` or `cfg.c` is zero.
    #[must_use]
    pub fn new(cfg: VpDualConfig) -> Self {
        Self::with_edges(cfg, geometric_edges(cfg.band, cfg.bands))
    }

    /// Builds the index with explicit initial band edges (spanning
    /// `cfg.band` exactly, strictly increasing).
    ///
    /// # Panics
    /// If the edges are malformed or `cfg.c == 0`.
    #[must_use]
    pub fn with_edges(cfg: VpDualConfig, edges: Vec<f64>) -> Self {
        assert!(cfg.bands > 0, "at least one band");
        assert!(cfg.c > 0, "at least one observation index per band");
        validate_edges(&edges, cfg.band);
        let k = edges.len() - 1;
        let subs = (0..k)
            .map(|b| {
                let mut sub =
                    DualBPlusIndex::new(Self::sub_cfg(&cfg, padded(edges[b], edges[b + 1])));
                sub.pin_roots(cfg.pin_roots);
                sub
            })
            .collect();
        VpDualIndex {
            cfg,
            edges,
            pending: None,
            subs,
            residents: vec![0; k],
            band_query: vec![BandCounters::default(); k],
            last_candidates: 0,
            repartitions: 0,
            moved_total: 0,
            scratch: Vec::new(),
        }
    }

    fn sub_cfg(cfg: &VpDualConfig, band: SpeedBand) -> DualBPlusConfig {
        DualBPlusConfig {
            c: cfg.c,
            terrain: cfg.terrain,
            band,
            tree: cfg.tree,
            maintain_subterrain: false,
            ..DualBPlusConfig::default()
        }
    }

    /// The configuration the index was built with.
    #[must_use]
    pub fn config(&self) -> &VpDualConfig {
        &self.cfg
    }

    /// Number of live bands.
    #[must_use]
    pub fn bands(&self) -> usize {
        self.edges.len() - 1
    }

    /// The current (published) band edges.
    #[must_use]
    pub fn band_edges(&self) -> &[f64] {
        &self.edges
    }

    /// Records resident per band (statics count toward band 0).
    #[must_use]
    pub fn residents(&self) -> &[u64] {
        &self.residents
    }

    /// The bands holding at least one record, in order: the bands a
    /// frozen view covers.
    fn resident_bands(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.subs.len()).filter(|&b| self.residents[b] != 0)
    }

    /// Completed repartitions since construction.
    #[must_use]
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Records migrated band-to-band across all repartitions.
    #[must_use]
    pub fn moved_total(&self) -> u64 {
        self.moved_total
    }

    /// Whether a repartition is in flight (begun but not finished).
    #[must_use]
    pub fn is_repartitioning(&self) -> bool {
        self.pending.is_some()
    }

    /// Optimal boundaries for this index's configuration given an
    /// observed speed histogram (linear bins over
    /// `[hist_lo, hist_hi]`) — [`optimize_boundaries`] with the
    /// configured `k_max` and per-band cost.
    #[must_use]
    pub fn plan_boundaries(&self, hist: &[u64], hist_lo: f64, hist_hi: f64) -> Vec<f64> {
        optimize_boundaries(
            hist,
            hist_lo,
            hist_hi,
            self.cfg.band,
            self.cfg.bands,
            self.cfg.band_cost,
        )
    }

    /// Routing table for writes: the pending edges during a
    /// repartition, the published edges otherwise.
    fn route_edges(&self) -> &[f64] {
        self.pending.as_deref().unwrap_or(&self.edges)
    }

    fn route(&self, m: &Motion1D) -> usize {
        if m.v == 0.0 {
            return 0; // statics live in band 0's static tree
        }
        band_of(self.route_edges(), m.v.abs())
    }

    /// Starts an incremental repartition to `new_edges` (step 1 of the
    /// module-level protocol): widens every sub-index band to cover its
    /// old and new extents and installs `new_edges` as the routing
    /// table for all subsequent writes. Queries remain exact
    /// throughout. Callers must snapshot the record population **after**
    /// this returns and feed it through
    /// [`migrate_chunk`](Self::migrate_chunk).
    ///
    /// # Panics
    /// If a repartition is already in flight or the edges are
    /// malformed.
    pub fn begin_repartition(&mut self, new_edges: Vec<f64>) {
        assert!(
            self.pending.is_none(),
            "repartition already in progress (finish it first)"
        );
        validate_edges(&new_edges, self.cfg.band);
        let new_k = new_edges.len() - 1;
        // Grow to the transitional layout: max(old_k, new_k) sub-indexes.
        while self.subs.len() < new_k {
            let b = self.subs.len();
            let mut sub = DualBPlusIndex::new(Self::sub_cfg(
                &self.cfg,
                padded(new_edges[b], new_edges[b + 1]),
            ));
            sub.pin_roots(self.cfg.pin_roots);
            self.subs.push(sub);
            self.residents.push(0);
            self.band_query.push(BandCounters::default());
        }
        for (b, sub) in self.subs.iter_mut().enumerate() {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            if b + 1 < self.edges.len() {
                lo = lo.min(self.edges[b]);
                hi = hi.max(self.edges[b + 1]);
            }
            if b + 1 < new_edges.len() {
                lo = lo.min(new_edges[b]);
                hi = hi.max(new_edges[b + 1]);
            }
            sub.set_band(padded(lo, hi));
        }
        self.pending = Some(new_edges);
    }

    /// Migrates one chunk of records toward the pending layout (step 2):
    /// every record whose old-layout and new-layout bands differ is
    /// removed from the old band and batch-inserted into the new one.
    /// Records absent from their old band are skipped — they were
    /// updated after [`begin_repartition`](Self::begin_repartition) and
    /// the pending routing already placed them. Returns how many
    /// records moved.
    ///
    /// # Panics
    /// If no repartition is in flight.
    pub fn migrate_chunk(&mut self, records: &[Motion1D]) -> usize {
        let pending = self.pending.clone().expect("no repartition in progress");
        let mut staged: Vec<Vec<Motion1D>> = vec![Vec::new(); self.subs.len()];
        for m in records {
            if m.v == 0.0 {
                continue; // statics are band-layout-independent
            }
            let speed = m.v.abs();
            let src = band_of(&self.edges, speed);
            let dst = band_of(&pending, speed);
            if src == dst || src >= self.subs.len() {
                continue;
            }
            if self.subs[src].remove(m) {
                self.residents[src] -= 1;
                staged[dst].push(*m);
            }
        }
        let mut moved = 0usize;
        for (dst, mut group) in staged.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            sort_by_dual_locality(&mut group);
            moved += group.len();
            self.residents[dst] += group.len() as u64;
            self.subs[dst].batch_update(&[], &group);
        }
        self.moved_total += moved as u64;
        moved
    }

    /// Publishes the pending layout (step 3): narrows every band to its
    /// exact new extent, drops bands beyond the new count, and resets
    /// the per-band query counters (the bands they described no longer
    /// exist).
    ///
    /// # Panics
    /// If no repartition is in flight, or a dropped band still holds
    /// records (a migration chunk was missed — failing loudly here
    /// beats silently losing records; the serving tier turns the panic
    /// into a shard rebuild).
    pub fn finish_repartition(&mut self) {
        let new_edges = self.pending.take().expect("no repartition in progress");
        let new_k = new_edges.len() - 1;
        for b in new_k..self.subs.len() {
            assert_eq!(
                self.residents[b], 0,
                "band {b} still holds records after migration"
            );
        }
        self.subs.truncate(new_k);
        self.residents.truncate(new_k);
        self.band_query.truncate(new_k);
        for (b, sub) in self.subs.iter_mut().enumerate() {
            sub.set_band(padded(new_edges[b], new_edges[b + 1]));
        }
        for counters in &mut self.band_query {
            *counters = BandCounters::default();
        }
        self.edges = new_edges;
        self.repartitions += 1;
    }

    /// One-shot repartition over a full record snapshot: begin, migrate
    /// everything, finish. Returns how many records moved. The serving
    /// tier chunks instead; this is for standalone use (benchmarks, the
    /// check harness).
    ///
    /// # Panics
    /// As the three protocol steps.
    pub fn repartition(&mut self, new_edges: Vec<f64>, records: &[Motion1D]) -> usize {
        self.begin_repartition(new_edges);
        let moved = self.migrate_chunk(records);
        self.finish_repartition();
        moved
    }
}

impl IndexStats for VpDualIndex {
    fn name(&self) -> String {
        format!("vp-dual (k={}, c={})", self.bands(), self.cfg.c)
    }

    /// Each band's sub-index stores, labelled `b{band}/…`.
    fn stores(&self, visit: &mut dyn FnMut(fmt::Arguments<'_>, &dyn Store)) {
        for (b, sub) in self.subs.iter().enumerate() {
            sub.stores(&mut |label, store| visit(format_args!("b{b}/{label}"), store));
        }
    }

    fn stores_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Store)) {
        for sub in &mut self.subs {
            sub.stores_mut(visit);
        }
    }

    fn last_candidates(&self) -> u64 {
        self.last_candidates
    }

    fn band_io(&self) -> Option<Vec<BandIo>> {
        Some(
            (0..self.subs.len())
                .map(|b| BandIo {
                    v_lo: self.edges.get(b).copied().unwrap_or(self.cfg.band.v_min),
                    v_hi: self
                        .edges
                        .get(b + 1)
                        .copied()
                        .unwrap_or(self.cfg.band.v_max),
                    residents: self.residents[b],
                    candidates: self.band_query[b].candidates,
                    results: self.band_query[b].results,
                })
                .collect(),
        )
    }

    fn commit_group(&mut self) -> Result<(), (String, String)> {
        for (b, sub) in self.subs.iter_mut().enumerate() {
            sub.commit_group()
                .map_err(|(label, err)| (format!("b{b}/{label}"), err))?;
        }
        Ok(())
    }
}

impl Index1D for VpDualIndex {
    fn insert(&mut self, m: &Motion1D) {
        let b = self.route(m);
        self.residents[b] += 1;
        self.subs[b].insert(m);
    }

    fn remove(&mut self, m: &Motion1D) -> bool {
        let primary = self.route(m);
        if self.subs[primary].remove(m) {
            self.residents[primary] -= 1;
            return true;
        }
        // During (and immediately after) a repartition a record may
        // still sit in its old band; outside one this scan is a miss on
        // every band and correctly reports "absent".
        for b in 0..self.subs.len() {
            if b != primary && self.subs[b].remove(m) {
                self.residents[b] -= 1;
                return true;
            }
        }
        false
    }

    /// Batched write path: removals group per routed band and ride each
    /// sub-index's merged key-ordered pass; insertions group, re-sort by
    /// dual locality within their band, and take the grouped
    /// `insert_batch` descents. While a repartition is in flight
    /// removals fall back to the per-op path (a record may legitimately
    /// sit outside its routed band until its migration chunk lands, and
    /// the per-band grouped pass cannot tell *which* removal missed).
    fn batch_update(&mut self, removes: &[Motion1D], inserts: &[Motion1D]) -> usize {
        let k = self.subs.len();
        let mut found = 0usize;
        if self.pending.is_none() {
            let mut rm_groups: Vec<Vec<Motion1D>> = vec![Vec::new(); k];
            for m in removes {
                rm_groups[self.route(m)].push(*m);
            }
            for (b, group) in rm_groups.into_iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let found_b = self.subs[b].batch_update(&group, &[]);
                self.residents[b] -= found_b as u64;
                found += found_b;
            }
        } else {
            for m in removes {
                if self.remove(m) {
                    found += 1;
                }
            }
        }
        let mut in_groups: Vec<Vec<Motion1D>> = vec![Vec::new(); k];
        for m in inserts {
            in_groups[self.route(m)].push(*m);
        }
        for (b, mut group) in in_groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            sort_by_dual_locality(&mut group);
            self.residents[b] += group.len() as u64;
            self.subs[b].batch_update(&[], &group);
        }
        found
    }

    fn search(&mut self, q: &MorQuery1D, out: &mut Vec<u64>) {
        out.clear();
        self.last_candidates = 0;
        // One reused answer buffer per band (an empty band's stays
        // empty); each already meets the sorted-dedup contract, so the
        // bands merge instead of being sorted again.
        self.scratch.resize_with(self.subs.len(), Vec::new);
        for (b, band_ids) in self.scratch.iter_mut().enumerate() {
            band_ids.clear();
            if self.residents[b] == 0 {
                continue; // empty band: skip the descents entirely
            }
            self.subs[b].search(q, band_ids);
            let candidates = self.subs[b].last_candidates();
            self.last_candidates += candidates;
            self.band_query[b].candidates += candidates;
            self.band_query[b].results += band_ids.len() as u64;
        }
        merge_sorted_ids(&self.scratch, out);
    }

    fn freeze(&self) -> Option<Box<dyn FrozenIndex1D>> {
        let mut bands = Vec::new();
        let mut views = Vec::new();
        for b in self.resident_bands() {
            bands.push(b);
            views.push(self.subs[b].freeze()?);
        }
        Some(Box::new(FrozenVpDual {
            bands,
            views,
            spare: Mutex::default(),
        }))
    }

    /// Refreezes each resident band's view through its sub-index.
    /// `false` for a view of another type, and when a band filled or
    /// emptied since the view was sealed — the set of views changed.
    fn refreeze(&mut self, view: &mut dyn FrozenIndex1D) -> bool {
        let Some(view) = view
            .as_any_mut()
            .and_then(|view| view.downcast_mut::<FrozenVpDual>())
        else {
            return false;
        };
        if !self.resident_bands().eq(view.bands.iter().copied()) {
            return false;
        }
        view.bands
            .iter()
            .zip(&mut view.views)
            .all(|(&b, band)| self.subs[b].refreeze(band.as_mut()))
    }
}

/// The frozen view published by [`VpDualIndex`]: per-band frozen
/// dual-B+ views (empty bands omitted), each searched into a set and
/// the sets combined through the id kernel's one fan-in,
/// [`union_set`]: a dense union stays a bitmap, unpacked once by
/// whoever reads the answer.
struct FrozenVpDual {
    /// The band of each view.
    bands: Vec<usize>,
    views: Vec<Box<dyn FrozenIndex1D>>,
    /// Per-band answer sets between searches: a search takes a group
    /// (concurrent readers each get their own) and puts it back.
    spare: Mutex<Vec<Vec<IdSet>>>,
}

impl FrozenIndex1D for FrozenVpDual {
    fn search_set(&self, q: &MorQuery1D, out: &mut IdSet) -> FrozenReadStats {
        let mut stats = FrozenReadStats::default();
        let mut bands = self
            .spare
            .lock()
            .expect("spare sets")
            .pop()
            .unwrap_or_default();
        bands.resize_with(self.views.len(), IdSet::new);
        for (view, band_ids) in self.views.iter().zip(&mut bands) {
            stats = stats.merge(view.search_set(q, band_ids));
        }
        union_set(&bands, out);
        self.spare.lock().expect("spare sets").push(bands);
        stats
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::QueryRequest;
    use mobidx_workload::{brute_force_1d, Simulator1D, WorkloadConfig};

    fn small_cfg(bands: usize, c: usize) -> VpDualConfig {
        VpDualConfig {
            bands,
            c,
            tree: TreeConfig {
                leaf_cap: 16,
                branch_cap: 16,
                buffer_pages: 4,
            },
            ..VpDualConfig::default()
        }
    }

    /// Builds a linear-binned histogram of the objects' speed
    /// magnitudes over the global band, as the serving tier's
    /// `WorkloadProfile` would.
    fn speed_hist(objects: &[Motion1D], band: SpeedBand, bins: usize) -> Vec<u64> {
        let mut hist = vec![0u64; bins];
        #[allow(clippy::cast_precision_loss)]
        let w = (band.v_max - band.v_min) / bins as f64;
        for m in objects {
            if m.v == 0.0 {
                continue;
            }
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                clippy::cast_precision_loss
            )]
            let bin = (((m.v.abs() - band.v_min) / w).floor() as usize).min(bins - 1);
            hist[bin] += 1;
        }
        hist
    }

    fn run_scenario(bands: usize, c: usize, yqmax: f64, tw: f64, seed: u64, repartition: bool) {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 600,
            updates_per_instant: 30,
            seed,
            ..WorkloadConfig::default()
        });
        let mut idx = VpDualIndex::new(small_cfg(bands, c));
        for m in sim.objects() {
            idx.insert(m);
        }
        for step in 0..30 {
            for u in sim.step() {
                assert!(idx.remove(&u.old), "step {step}: stale {:?}", u.old);
                idx.insert(&u.new);
            }
            if repartition && step % 10 == 5 {
                let band = idx.config().band;
                let hist = speed_hist(sim.objects(), band, 8);
                let edges = idx.plan_boundaries(&hist, band.v_min, band.v_max);
                idx.repartition(edges, sim.objects());
            }
            if step % 7 == 0 {
                for _ in 0..10 {
                    let q = sim.gen_query(yqmax, tw);
                    let got = idx.query(&QueryRequest::new(&q));
                    let want = brute_force_1d(sim.objects(), &q);
                    assert_eq!(got, want, "step {step} query {q:?}");
                }
            }
        }
    }

    #[test]
    fn large_queries_match_brute_force() {
        run_scenario(4, 2, 150.0, 60.0, 201, false);
    }

    #[test]
    fn small_queries_match_brute_force() {
        run_scenario(4, 2, 10.0, 20.0, 202, false);
    }

    #[test]
    fn other_shapes_also_exact() {
        run_scenario(1, 2, 150.0, 60.0, 203, false);
        run_scenario(6, 1, 150.0, 60.0, 204, false);
    }

    #[test]
    fn exact_across_mid_sequence_repartitions() {
        run_scenario(4, 2, 150.0, 60.0, 205, true);
        run_scenario(3, 2, 10.0, 20.0, 206, true);
    }

    #[test]
    fn exact_while_repartition_in_flight() {
        // Queries and updates interleave with migration chunks between
        // begin and finish; answers must stay exact at every point.
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 500,
            updates_per_instant: 50,
            seed: 207,
            ..WorkloadConfig::default()
        });
        let mut idx = VpDualIndex::new(small_cfg(4, 2));
        for m in sim.objects() {
            idx.insert(m);
        }
        let band = idx.config().band;
        let hist = speed_hist(sim.objects(), band, 8);
        let edges = optimize_boundaries(&hist, band.v_min, band.v_max, band, 3, 0.0);
        idx.begin_repartition(edges);
        assert!(idx.is_repartitioning());
        // Snapshot AFTER begin, as the protocol requires.
        let snapshot = sim.objects().to_vec();
        for (chunk_no, chunk) in snapshot.chunks(120).enumerate() {
            // Live traffic between chunks: updates route by pending
            // edges, removals fall back across bands.
            for u in sim.step() {
                assert!(idx.remove(&u.old), "chunk {chunk_no}: stale {:?}", u.old);
                idx.insert(&u.new);
            }
            for _ in 0..5 {
                let q = sim.gen_query(150.0, 60.0);
                let got = idx.query(&QueryRequest::new(&q));
                let want = brute_force_1d(sim.objects(), &q);
                assert_eq!(got, want, "mid-migration chunk {chunk_no}");
            }
            idx.migrate_chunk(chunk);
        }
        idx.finish_repartition();
        assert!(!idx.is_repartitioning());
        assert_eq!(idx.bands(), 3);
        for _ in 0..10 {
            let q = sim.gen_query(150.0, 60.0);
            let got = idx.query(&QueryRequest::new(&q));
            let want = brute_force_1d(sim.objects(), &q);
            assert_eq!(got, want, "post-migration");
        }
        // Nothing lost: residents reconcile with the population.
        let total: u64 = idx.residents().iter().sum();
        assert_eq!(total as usize, sim.objects().len());
    }

    #[test]
    fn batched_updates_match_per_op() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 400,
            updates_per_instant: 60,
            seed: 208,
            ..WorkloadConfig::default()
        });
        let mut idx = VpDualIndex::new(small_cfg(4, 2));
        for m in sim.objects() {
            idx.insert(m);
        }
        for step in 0..10 {
            let ups = sim.step();
            // Net per id (first old, last new), as the serving tier's
            // apply path does before handing a group to `batch_update`
            // — a twice-updated object must not remove a record whose
            // insert is later in the same batch.
            let mut net: std::collections::BTreeMap<u64, (Motion1D, Motion1D)> =
                std::collections::BTreeMap::new();
            for u in &ups {
                net.entry(u.old.id)
                    .and_modify(|e| e.1 = u.new)
                    .or_insert((u.old, u.new));
            }
            let removes: Vec<Motion1D> = net.values().map(|e| e.0).collect();
            let inserts: Vec<Motion1D> = net.values().map(|e| e.1).collect();
            let found = idx.batch_update(&removes, &inserts);
            assert_eq!(found, removes.len(), "step {step} lost a removal");
            let q = sim.gen_query(150.0, 60.0);
            let got = idx.query(&QueryRequest::new(&q));
            assert_eq!(got, brute_force_1d(sim.objects(), &q), "step {step}");
        }
    }

    #[test]
    fn static_objects_survive_repartitions() {
        let mut idx = VpDualIndex::new(small_cfg(4, 2));
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
        let band = idx.config().band;
        idx.repartition(geometric_edges(band, 2), &[parked, moving]);
        let q = MorQuery1D {
            y1: 495.0,
            y2: 505.0,
            t1: 10.0,
            t2: 30.0,
        };
        assert_eq!(idx.query(&QueryRequest::new(&q)), vec![1, 2]);
        assert!(idx.remove(&parked));
        assert!(!idx.remove(&parked));
        assert_eq!(idx.query(&QueryRequest::new(&q)), vec![2]);
    }

    #[test]
    fn frozen_view_matches_live() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 500,
            seed: 209,
            ..WorkloadConfig::default()
        });
        let mut idx = VpDualIndex::new(small_cfg(3, 2));
        for m in sim.objects() {
            idx.insert(m);
        }
        let frozen = idx.freeze().expect("no subterrain => freezable");
        let (mut out, mut set, mut unpacked, mut packed) =
            (Vec::new(), IdSet::new(), Vec::new(), 0);
        for _ in 0..20 {
            let q = sim.gen_query(150.0, 60.0);
            let stats = frozen.search(&q, &mut out);
            assert_eq!(out, brute_force_1d(sim.objects(), &q), "{q:?}");
            if !out.is_empty() {
                assert!(stats.candidates > 0);
            }
            // The bands' union as a set: a dense one is left packed.
            frozen.search_set(&q, &mut set);
            crate::ids::union(&[&set], &mut unpacked);
            assert_eq!(unpacked, out, "{q:?}");
            packed += usize::from(set.is_bitmap());
        }
        assert!(packed > 0, "no dense answer among the queries");
    }

    #[test]
    fn a_view_refreezes_while_its_bands_stay_resident() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 500,
            updates_per_instant: 25,
            seed: 211,
            ..WorkloadConfig::default()
        });
        let mut idx = VpDualIndex::new(small_cfg(3, 2));
        let mut empty = idx.freeze().expect("no subterrain => freezable");
        for m in sim.objects() {
            idx.insert(m);
        }
        // The bands that filled since are views the empty one lacks.
        assert!(!idx.refreeze(empty.as_mut()));
        let mut view = idx.freeze().expect("freezable");
        let mut out = Vec::new();
        for step in 0..6 {
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
    }

    #[test]
    fn fewer_false_hits_than_unpartitioned() {
        // The tentpole claim at unit scale: same records, same queries,
        // the partitioned facade scans strictly fewer candidates than a
        // single global-band dual-B+ with the same total page budget.
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 2000,
            seed: 210,
            ..WorkloadConfig::default()
        });
        let mut vp = VpDualIndex::new(small_cfg(4, 2));
        let mut flat = DualBPlusIndex::new(DualBPlusConfig {
            c: 6,
            tree: TreeConfig {
                leaf_cap: 16,
                branch_cap: 16,
                buffer_pages: 4,
            },
            ..DualBPlusConfig::default()
        });
        for m in sim.objects() {
            vp.insert(m);
            flat.insert(m);
        }
        let band = vp.config().band;
        let hist = speed_hist(sim.objects(), band, 8);
        let edges = vp.plan_boundaries(&hist, band.v_min, band.v_max);
        vp.repartition(edges, sim.objects());
        let (mut vp_cand, mut flat_cand) = (0u64, 0u64);
        for _ in 0..50 {
            let q = sim.gen_query(150.0, 60.0);
            let a = vp.query(&QueryRequest::new(&q));
            vp_cand += vp.last_candidates();
            let b = flat.query(&QueryRequest::new(&q));
            flat_cand += flat.last_candidates();
            assert_eq!(a, b);
        }
        assert!(
            vp_cand < flat_cand,
            "partitioning must cut candidate scans ({vp_cand} vs {flat_cand})"
        );
    }

    #[test]
    fn band_io_accounts_per_band() {
        let mut sim = Simulator1D::new(WorkloadConfig {
            n: 800,
            seed: 211,
            ..WorkloadConfig::default()
        });
        let mut idx = VpDualIndex::new(small_cfg(4, 2));
        for m in sim.objects() {
            idx.insert(m);
        }
        for _ in 0..20 {
            let q = sim.gen_query(150.0, 60.0);
            let _ = idx.query(&QueryRequest::new(&q));
        }
        let bands = idx.band_io().expect("vp-dual reports band io");
        assert_eq!(bands.len(), idx.bands());
        let residents: u64 = bands.iter().map(|b| b.residents).sum();
        assert_eq!(residents as usize, sim.objects().len());
        let candidates: u64 = bands.iter().map(|b| b.candidates).sum();
        assert!(candidates > 0, "queries must have scanned candidates");
        for b in &bands {
            assert!(b.v_lo < b.v_hi);
            assert!((0.0..=1.0).contains(&b.false_hit_rate()));
        }
        // An unpartitioned method reports none.
        assert!(DualBPlusIndex::new(DualBPlusConfig::default())
            .band_io()
            .is_none());
    }

    #[test]
    fn geometric_edges_shape() {
        let band = SpeedBand::paper();
        let e = geometric_edges(band, 4);
        assert_eq!(e.len(), 5);
        assert_eq!(e[0], band.v_min);
        assert_eq!(e[4], band.v_max);
        // Equal ratios.
        for w in e.windows(3) {
            assert!((w[1] / w[0] - w[2] / w[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn optimizer_handles_empty_histogram() {
        let band = SpeedBand::paper();
        assert_eq!(
            optimize_boundaries(&[], 0.0, 0.0, band, 4, 0.01),
            geometric_edges(band, 4)
        );
        assert_eq!(
            optimize_boundaries(&[0, 0, 0], band.v_min, band.v_max, band, 3, 0.01),
            geometric_edges(band, 3)
        );
    }

    #[test]
    fn optimizer_never_worse_than_analytic_or_geometric() {
        let band = SpeedBand::paper();
        // A skewed two-population histogram: slow commuters + a fast
        // minority (the TwoBand drift shape).
        let hist = [400u64, 350, 60, 20, 10, 10, 80, 70];
        let cost = |edges: &[f64]| partition_cost(edges, &hist, band.v_min, band.v_max, band, 0.0);
        for k in [2usize, 3, 4] {
            let dp = optimize_boundaries(&hist, band.v_min, band.v_max, band, k, 0.0);
            let dp_cost = cost(&dp);
            let an = analytic_edges(&hist, band.v_min, band.v_max, band, k);
            let an_cost = cost(&an);
            let geo_cost = cost(&geometric_edges(band, k));
            assert!(
                dp_cost <= an_cost + 1e-12,
                "k={k}: dp {dp_cost} worse than analytic {an_cost}"
            );
            assert!(
                dp_cost <= geo_cost + 1e-12,
                "k={k}: dp {dp_cost} worse than geometric {geo_cost}"
            );
            // And the analytic closed form lands near the DP optimum on
            // this smooth-enough histogram.
            assert!(
                an_cost <= dp_cost * 1.35 + 1e-9,
                "k={k}: analytic {an_cost} far from dp {dp_cost}"
            );
        }
    }

    #[test]
    fn optimizer_spends_bands_where_mass_is() {
        let band = SpeedBand::new(0.1, 1.0);
        // All mass in the slowest eighth of the range — where Δu per
        // unit of v is largest. The optimizer must cut there.
        let hist = [1000u64, 0, 0, 0, 0, 0, 0, 1];
        let edges = optimize_boundaries(&hist, band.v_min, band.v_max, band, 4, 1e-6);
        let interior: Vec<f64> = edges[1..edges.len() - 1].to_vec();
        assert!(!interior.is_empty());
        // hist bin 0 covers [0.1, 0.2125); most cuts must land below it.
        let below = interior.iter().filter(|&&e| e < 0.25).count();
        assert!(
            below * 2 >= interior.len(),
            "cuts {interior:?} ignore the slow-speed mass"
        );
    }

    #[test]
    fn band_cost_penalty_prunes_bands() {
        let band = SpeedBand::paper();
        let hist = [100u64, 100, 100, 100, 100, 100, 100, 100];
        let cheap = optimize_boundaries(&hist, band.v_min, band.v_max, band, 6, 1e-6);
        // The paper band's total Δu² is ~32 and the first split saves
        // ~25 of it, so κ=100 must collapse the partition to one band.
        let pricey = optimize_boundaries(&hist, band.v_min, band.v_max, band, 6, 100.0);
        assert!(cheap.len() > pricey.len(), "{cheap:?} vs {pricey:?}");
        assert_eq!(pricey.len(), 2, "huge per-band cost forces one band");
    }

    #[test]
    #[should_panic(expected = "repartition already in progress")]
    fn double_begin_rejected() {
        let mut idx = VpDualIndex::new(small_cfg(2, 1));
        let band = idx.config().band;
        idx.begin_repartition(geometric_edges(band, 3));
        idx.begin_repartition(geometric_edges(band, 2));
    }
}
