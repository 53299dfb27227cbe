//! # mobidx-bench — the performance study of §5, reproduced
//!
//! The paper's evaluation consists of four figures (there are no
//! numbered tables):
//!
//! * **Figure 6** — average I/Os per query, "large" (~10 %) queries
//!   (`YQMAX = 150`, `TW = 60`), N = 100k..500k;
//! * **Figure 7** — same with "small" (~1 %) queries
//!   (`YQMAX = 10`, `TW = 20`);
//! * **Figure 8** — space consumption (pages) vs N;
//! * **Figure 9** — average I/Os per update vs N (the R\*-tree is
//!   reported only as ">90 I/Os" in the paper; we measure it anyway).
//!
//! Methods compared, as in the paper: the R\*-tree over trajectory
//! segments, the kd-tree point-access method (the paper's hBΠ-tree), and
//! the dual-B+ approximation method with c = 4, 6, 8.
//!
//! The measurement protocol follows §5: the scenario runs for a number
//! of time instants with ~200 motion updates per instant (update I/O is
//! averaged over all of them); at 10 evenly spaced instants, 200 random
//! queries execute with the buffer pool **cleared before every query**.
//!
//! Everything is exposed as a library so both the `figures` binary and
//! the Criterion benches drive the same code. [`Scale`] shrinks the
//! paper's N = 100k..500k sweep for quick runs; `--full` reproduces the
//! original sizes.

use mobidx_bptree::TreeConfig;
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::method::dual_kd::{DualKdConfig, DualKdIndex};
use mobidx_core::method::ptree::{DualPtreeConfig, DualPtreeIndex};
use mobidx_core::method::seg_rtree::{SegRTreeConfig, SegRTreeIndex};
use mobidx_core::method::vp_dual::{VpDualConfig, VpDualIndex};
use mobidx_core::{
    sort_by_dual_locality, BandIo, Index1D, IndexStats, Motion1D, QueryOutput, QueryRequest,
};
use mobidx_obs::{Histogram, HistogramSnapshot};
use mobidx_workload::{paper, Simulator1D, WorkloadConfig};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

pub mod ablations;
pub mod diagnose;
pub mod diff;
pub mod doctor;
pub mod durable;
pub mod json_report;
pub mod repartition_bench;
pub mod report;
mod stack;
pub mod telemetry_check;
pub mod throughput;

/// Net updates per group in [`run_scenario`]'s batched-update phase.
/// Large enough that several updates land on shared leaves (the
/// amortization the sorted group-apply pipeline exists for), small
/// enough that a group is a plausible serving-tier group commit.
pub const UPDATE_BATCH: usize = 32;

/// How much to shrink the paper's experiment (N, instants, queries).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier on the paper's object counts (1.0 = 100k..500k).
    pub n_factor: f64,
    /// Time instants to simulate (paper: 2000).
    pub instants: usize,
    /// Query instants (paper: 10).
    pub query_instants: usize,
    /// Queries per query instant (paper: 200).
    pub queries_per_instant: usize,
}

impl Scale {
    /// The paper's full-size experiment.
    #[must_use]
    pub fn full() -> Self {
        Self {
            n_factor: 1.0,
            instants: paper::INSTANTS,
            query_instants: paper::QUERY_INSTANTS,
            queries_per_instant: paper::QUERIES_PER_INSTANT,
        }
    }

    /// A laptop-quick configuration preserving the figures' shapes
    /// (N = 10k..50k, 200 instants).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            n_factor: 0.1,
            instants: 200,
            query_instants: 5,
            queries_per_instant: 50,
        }
    }

    /// A tiny smoke-test configuration (used by `cargo bench` and CI).
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            n_factor: 0.02,
            instants: 40,
            query_instants: 2,
            queries_per_instant: 10,
        }
    }

    /// The N sweep at this scale (paper: 100k, 200k, ..., 500k).
    #[must_use]
    pub fn n_values(&self) -> Vec<usize> {
        (1..=5)
            .map(|i| {
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                {
                    ((i * 100_000) as f64 * self.n_factor) as usize
                }
            })
            .collect()
    }
}

/// Which query mix a figure uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMix {
    /// ~10 % selectivity: `YQMAX = 150`, `TW = 60`.
    Large,
    /// ~1 % selectivity: `YQMAX = 10`, `TW = 20`.
    Small,
}

impl QueryMix {
    /// `(YQMAX, TW)`.
    #[must_use]
    pub fn params(self) -> (f64, f64) {
        match self {
            QueryMix::Large => (paper::YQMAX_LARGE, paper::TW_LARGE),
            QueryMix::Small => (paper::YQMAX_SMALL, paper::TW_SMALL),
        }
    }
}

/// One measured cell of a figure.
#[derive(Debug, Clone)]
pub struct MethodMeasurement {
    /// Method display name.
    pub method: String,
    /// Number of mobile objects.
    pub n: usize,
    /// Average I/Os per query (reads; buffers cleared per query).
    pub avg_query_ios: f64,
    /// Average I/Os per update (delete old + insert new).
    pub avg_update_ios: f64,
    /// Average I/Os per *net* update when updates are applied through
    /// the grouped [`Index1D::batch_update`] path in groups of
    /// `update_batch`, cold buffers per group. Measured in a phase
    /// appended after the paper's per-update protocol (which is
    /// unchanged); 0.0 when the batched phase did not run.
    pub avg_update_ios_batched: f64,
    /// Net updates per group in the batched phase (0 when not run).
    pub update_batch: usize,
    /// Net updates applied across the batched phase.
    pub updates_batched: usize,
    /// Live pages after the run (Figure 8's metric).
    pub pages: u64,
    /// Average result cardinality (sanity: ~10 % / ~1 % of N).
    pub avg_result: f64,
    /// Number of queries executed.
    pub queries: usize,
    /// Number of updates applied.
    pub updates: usize,
    /// Average candidates examined per query (before exact refinement).
    pub avg_candidates: f64,
    /// Fraction of examined candidates discarded by refinement —
    /// the §3.5.2 false-hit rate (`(candidates − results) / candidates`
    /// over the whole run).
    pub false_hit_rate: f64,
    /// Buffer hit rate during queries (near 0 under the cold-query
    /// protocol; nonzero values mean a query re-touches its own pages).
    pub buffer_hit_rate: f64,
    /// Wall-clock query latency distribution, in nanoseconds.
    pub latency: HistogramSnapshot,
    /// Per-speed-band read accounting
    /// ([`mobidx_core::IndexStats::band_io`]); empty
    /// for methods that do not partition by velocity.
    pub bands: Vec<BandIo>,
}

/// The factory for one competing method.
pub struct Method {
    /// Display name (also used as the series key in reports).
    pub name: String,
    /// Builds a fresh index.
    pub make: Box<dyn Fn() -> Box<dyn Index1D>>,
}

/// The paper's §5 line-up: seg-R\*, kd (hBΠ stand-in), dual-B+ with
/// c = 4, 6, 8.
#[must_use]
pub fn paper_methods() -> Vec<Method> {
    let mut methods: Vec<Method> = Vec::new();
    methods.push(Method {
        name: "seg-R*".to_owned(),
        make: Box::new(|| Box::new(SegRTreeIndex::new(SegRTreeConfig::default()))),
    });
    methods.push(Method {
        name: "dual-kd".to_owned(),
        make: Box::new(|| Box::new(DualKdIndex::new(DualKdConfig::default()))),
    });
    for c in [4usize, 6, 8] {
        methods.push(Method {
            name: format!("dual-B+ (c={c})"),
            make: Box::new(move || {
                Box::new(DualBPlusIndex::new(DualBPlusConfig {
                    c,
                    tree: TreeConfig::default(),
                    ..DualBPlusConfig::default()
                }))
            }),
        });
    }
    methods.push(Method {
        name: "vp-dual (k=3, c=3)".to_owned(),
        make: Box::new(|| Box::new(VpDualIndex::new(VpDualConfig::default()))),
    });
    methods
}

/// The partition-tree method (used by ablation A3; too slow to build at
/// full figure scale for every N, exactly as the paper anticipates).
#[must_use]
pub fn ptree_method() -> Method {
    Method {
        name: "dual-ptree".to_owned(),
        make: Box::new(|| Box::new(DualPtreeIndex::new(DualPtreeConfig::default()))),
    }
}

/// Runs the §5 scenario for one method at one N, measuring query I/O,
/// update I/O, and space.
#[must_use]
pub fn run_scenario(
    method: &Method,
    n: usize,
    mix: QueryMix,
    scale: &Scale,
    seed: u64,
) -> MethodMeasurement {
    let (yqmax, tw) = mix.params();
    let mut sim = Simulator1D::new(WorkloadConfig {
        n,
        seed,
        ..WorkloadConfig::default()
    });
    let mut idx = (method.make)();
    for m in sim.objects() {
        idx.insert(m);
    }

    let mut update_ios = 0u64;
    let mut updates = 0usize;
    let mut tally = QueryTally::default();

    let query_every = (scale.instants / scale.query_instants.max(1)).max(1);
    for step in 0..scale.instants {
        // Updates for this instant (measured individually).
        for u in sim.step() {
            idx.clear_buffers();
            idx.reset_io();
            let removed = idx.remove(&u.old);
            debug_assert!(removed, "stale record during scenario");
            idx.insert(&u.new);
            idx.clear_buffers();
            update_ios += idx.io_totals().ios();
            updates += 1;
        }
        // Query instants.
        if step % query_every == query_every - 1 {
            for _ in 0..scale.queries_per_instant {
                let q = sim.gen_query(yqmax, tw);
                tally.measure(&mut *idx, |idx| idx.query(&QueryRequest::new(&q)));
            }
        }
    }

    // Figure 8's metric, captured *before* the batched phase below so
    // the paper-protocol numbers stay bit-for-bit what they were.
    let pages = idx.io_totals().pages;

    // ---- Batched-update phase (the amortized write path) ----
    // Appended after the paper's protocol so every number above is
    // untouched: the simulation keeps running, but updates are now
    // applied through the grouped [`Index1D::batch_update`] path in
    // groups of [`UPDATE_BATCH`] net updates — the per-update
    // clear/measure/clear brackets move to the *group*, which is exactly
    // the amortization a serving tier's group commit buys.
    let mut batched_ios = 0u64;
    let mut batched_updates = 0usize;
    let groups = (scale.instants / 4).clamp(2, 50);
    let mut backlog: VecDeque<mobidx_workload::Update1D> = VecDeque::new();
    for _ in 0..groups {
        while backlog.len() < UPDATE_BATCH {
            let step = sim.step();
            if step.is_empty() {
                break;
            }
            backlog.extend(step);
        }
        // Net per id: first old record out, last new record in (an id
        // updated twice in one group costs one removal + one insertion,
        // like a serving shard's group commit).
        let mut net: HashMap<u64, (Motion1D, Motion1D)> = HashMap::new();
        let take = UPDATE_BATCH.min(backlog.len());
        for u in backlog.drain(..take) {
            match net.entry(u.new.id) {
                Entry::Occupied(mut e) => e.get_mut().1 = u.new,
                Entry::Vacant(e) => {
                    e.insert((u.old, u.new));
                }
            }
        }
        if net.is_empty() {
            break;
        }
        let mut removes: Vec<Motion1D> = net.values().map(|&(old, _)| old).collect();
        let mut inserts: Vec<Motion1D> = net.values().map(|&(_, new)| new).collect();
        sort_by_dual_locality(&mut removes);
        sort_by_dual_locality(&mut inserts);
        idx.clear_buffers();
        idx.reset_io();
        let removed = idx.batch_update(&removes, &inserts);
        debug_assert_eq!(removed, removes.len(), "scenario lost records in batch");
        idx.clear_buffers();
        batched_ios += idx.io_totals().ios();
        batched_updates += inserts.len();
    }

    #[allow(clippy::cast_precision_loss)]
    MethodMeasurement {
        method: method.name.clone(),
        n,
        avg_query_ios: tally.avg(tally.ios),
        avg_update_ios: update_ios as f64 / updates.max(1) as f64,
        avg_update_ios_batched: batched_ios as f64 / batched_updates.max(1) as f64,
        update_batch: UPDATE_BATCH,
        updates_batched: batched_updates,
        pages,
        avg_result: tally.avg(tally.results),
        queries: tally.queries,
        updates,
        avg_candidates: tally.avg(tally.candidates),
        false_hit_rate: tally.false_hit_rate(),
        buffer_hit_rate: tally.buffer_hit_rate(),
        latency: tally.latency.snapshot(),
        bands: idx.band_io().unwrap_or_default(),
    }
}

/// The query side of one measured loop, one cold query at a time (see
/// [`QueryTally::measure`]).
#[derive(Debug, Default)]
struct QueryTally {
    queries: usize,
    ios: u64,
    results: u64,
    candidates: u64,
    hits: u64,
    reads: u64,
    latency: Histogram,
}

impl QueryTally {
    /// Runs `query` against `idx` cold — buffers cleared and I/O
    /// counters reset first — and adds its I/O (read back from
    /// [`IndexStats::io_totals`]), its candidates and results, and its
    /// latency, timed around the call.
    fn measure<I: IndexStats + ?Sized>(
        &mut self,
        idx: &mut I,
        query: impl FnOnce(&mut I) -> QueryOutput,
    ) {
        idx.clear_buffers();
        idx.reset_io();
        let started = Instant::now();
        let out = query(idx);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let io = idx.io_totals();
        self.queries += 1;
        self.ios += io.ios();
        self.results += out.ids.len() as u64;
        self.candidates += out.candidates;
        self.hits += io.hits;
        self.reads += io.reads;
        self.latency.record(nanos);
    }

    /// `total` per query (0.0 before any query).
    fn avg(&self, total: u64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            total as f64 / self.queries.max(1) as f64
        }
    }

    /// The §3.5.2 false-hit rate over every query so far.
    fn false_hit_rate(&self) -> f64 {
        rate(
            self.candidates.saturating_sub(self.results),
            self.candidates,
        )
    }

    /// The buffer hit rate over every query so far.
    fn buffer_hit_rate(&self) -> f64 {
        rate(self.hits, self.hits + self.reads)
    }
}

/// `num / den` as a fraction; 0.0 when the denominator is 0.
fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        num as f64 / den as f64
    }
}

/// Runs one full figure (all methods × the N sweep) and returns the
/// grid of measurements.
#[must_use]
pub fn run_figure(
    mix: QueryMix,
    scale: &Scale,
    methods: &[Method],
    seed: u64,
) -> Vec<MethodMeasurement> {
    let mut out = Vec::new();
    for &n in &scale.n_values() {
        for method in methods {
            out.push(run_scenario(method, n, mix, scale, seed));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_produces_sane_numbers() {
        let scale = Scale::smoke();
        let methods = paper_methods();
        // Just the cheapest two methods at the smallest N.
        let n = scale.n_values()[0];
        for method in methods.iter().filter(|m| m.name != "seg-R*") {
            let m = run_scenario(method, n, QueryMix::Large, &scale, 7);
            assert!(m.queries > 0 && m.updates > 0);
            assert!(m.avg_query_ios > 0.0, "{}: zero query I/O", m.method);
            assert!(m.avg_update_ios > 0.0, "{}: zero update I/O", m.method);
            assert!(m.pages > 0);
            assert_eq!(m.update_batch, UPDATE_BATCH, "{}", m.method);
            assert!(m.updates_batched > 0, "{}: batched phase idle", m.method);
            assert!(
                m.avg_update_ios_batched > 0.0,
                "{}: zero batched update I/O",
                m.method
            );
            // The whole point of the grouped path: batching must not
            // cost more I/O per update than the one-at-a-time protocol.
            assert!(
                m.avg_update_ios_batched <= m.avg_update_ios,
                "{}: batched {} > per-update {}",
                m.method,
                m.avg_update_ios_batched,
                m.avg_update_ios
            );
            // ~10% selectivity within a loose band.
            #[allow(clippy::cast_precision_loss)]
            let sel = m.avg_result / n as f64;
            assert!(
                (0.01..0.5).contains(&sel),
                "{}: selectivity {sel}",
                m.method
            );
            assert!(
                m.avg_candidates >= m.avg_result,
                "{}: candidates {} < results {}",
                m.method,
                m.avg_candidates,
                m.avg_result
            );
            assert!((0.0..=1.0).contains(&m.false_hit_rate), "{}", m.method);
            assert!((0.0..=1.0).contains(&m.buffer_hit_rate), "{}", m.method);
            assert_eq!(m.latency.count, m.queries as u64, "{}", m.method);
            assert!(m.latency.max >= m.latency.p50, "{}", m.method);
        }
    }

    #[test]
    fn scales_have_increasing_n() {
        assert!(Scale::smoke().n_values()[0] < Scale::quick().n_values()[0]);
        assert_eq!(
            Scale::full().n_values(),
            vec![100_000, 200_000, 300_000, 400_000, 500_000]
        );
    }
}
