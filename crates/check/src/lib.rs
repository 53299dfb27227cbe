//! # mobidx-check — model-checking harness for the paged indexes
//!
//! Drives each index through thousands of seeded operation sequences —
//! inserts, deletes, and MOR-style queries — while a [`FaultStore`]
//! backend injects read/write failures, torn writes, transient faults,
//! and crash points, and checks every surviving answer against a plain
//! in-memory oracle.
//!
//! The contract being checked (the PR's acceptance bar):
//!
//! * **No silent wrong answers.** Every query that returns `Ok` must
//!   agree exactly with the oracle.
//! * **Every fault is accounted for.** An injected fault either
//!   surfaces as a typed [`mobidx_pager::PagerError`] or is transparently retried
//!   (transient faults under the pager's bounded retry policy). Panics
//!   are never acceptable.
//! * **Recovery restores agreement.** After a surfaced mutation fault
//!   the harness rebuilds the index from the oracle (the recovery
//!   protocol a real system would run from its redo log) and the
//!   rebuilt index must again agree with the oracle.
//!
//! Every run is fully determined by `(index, fault mode, seed, ops)`;
//! a divergence report prints the exact command line that reproduces
//! it.

use mobidx_bptree::{BPlusTree, TreeConfig};
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::{
    optimize_boundaries, Motion1D, QueryRequest, SpeedBand, VpDualConfig, VpDualIndex,
};
use mobidx_geom::{Aabb, Rect2};
use mobidx_interval::{IntervalConfig, IntervalTree};
use mobidx_kdtree::{KdConfig, KdTree};
use mobidx_pager::{
    Backend, DurableFaultStore, FaultPlan, FaultStore, FileBackend, FsyncPolicy, IoStats,
    MemBackend, ScratchDir,
};
use mobidx_persist::{all_crossings, Occupant, PersistConfig, PersistentListBTree};
use mobidx_rstar::{RStarConfig, RStarTree};
use mobidx_serve::{
    Batch, IdHashShard, ServeConfig, ServeError, ShardFn, ShardedDb, SpeedBandShard,
};
use mobidx_workload::{brute_force_1d, MorQuery1D};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::Path;

/// The indexes the harness knows how to drive. `sharded` is the serving
/// tier (`mobidx-serve`) over per-speed-band dual-B+ shards — the same
/// fault plans are armed *behind* the shard workers, so what the harness
/// exercises is the tier's typed-error surfacing and rebuild protocol.
/// `durable` is a B+-tree on the real-file [`FileBackend`]: faults hit
/// the page traffic and the write-ahead log independently, recovery is
/// reopening the directory, and the contract checked is the commit
/// contract — a recovered tree is exactly the last sealed window.
/// `vp_dual` is the serving tier over id-hash-sharded
/// velocity-partitioned dual-B+ indexes, with seeded *mid-sequence
/// repartitions* (the full begin/migrate/finish protocol against
/// boundaries re-optimized from the live velocity histogram) mixed into
/// the op stream.
pub const INDEXES: [&str; 8] = [
    "bptree", "interval", "kdtree", "rstar", "persist", "sharded", "durable", "vp_dual",
];

/// Which fault plan the backing store runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// No faults — pure oracle agreement.
    None,
    /// Frequent transient faults that succeed on retry.
    Transient,
    /// Torn writes plus hard read/write failures.
    Torn,
    /// A crash counter kills the store after a seeded number of I/Os.
    Crash,
}

impl FaultMode {
    /// Every mode, in matrix order.
    pub const ALL: [FaultMode; 4] = [
        FaultMode::None,
        FaultMode::Transient,
        FaultMode::Torn,
        FaultMode::Crash,
    ];

    /// The CLI name of the mode.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultMode::None => "none",
            FaultMode::Transient => "transient",
            FaultMode::Torn => "torn",
            FaultMode::Crash => "crash",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn parse(s: &str) -> Option<FaultMode> {
        FaultMode::ALL.into_iter().find(|m| m.name() == s)
    }

    /// A fresh backend realizing this mode for the given sub-seed.
    #[must_use]
    pub fn backend(self, seed: u64) -> Box<dyn Backend> {
        match self {
            FaultMode::None => Box::new(MemBackend),
            FaultMode::Transient => Box::new(FaultStore::new(FaultPlan::transient(seed))),
            FaultMode::Torn => Box::new(FaultStore::new(FaultPlan::torn(seed))),
            FaultMode::Crash => Box::new(FaultStore::new(FaultPlan::crash_after(
                seed,
                300 + seed % 900,
            ))),
        }
    }

    /// The `(page plan, WAL plan)` pair realizing this mode against a
    /// durable store ([`DurableFaultStore`] arbitrates the two
    /// independently). Crash rounds alternate between killing the
    /// store at a seeded journal append (mid-commit-window) and at a
    /// seeded page access (mid-mutation), so both crash clocks are
    /// exercised across a run's recovery rounds.
    #[must_use]
    pub fn durable_plans(self, seed: u64) -> (FaultPlan, FaultPlan) {
        let wal_seed = mix(seed, 0xD17A);
        match self {
            FaultMode::None => (FaultPlan::none(seed), FaultPlan::none(wal_seed)),
            FaultMode::Transient => (FaultPlan::transient(seed), FaultPlan::transient(wal_seed)),
            FaultMode::Torn => (FaultPlan::torn(seed), FaultPlan::torn(wal_seed)),
            FaultMode::Crash => {
                if seed % 2 == 0 {
                    (
                        FaultPlan::none(seed),
                        FaultPlan::crash_after_writes(wal_seed, 1 + seed % 37),
                    )
                } else {
                    (
                        FaultPlan::crash_after(seed, 50 + seed % 400),
                        FaultPlan::none(wal_seed),
                    )
                }
            }
        }
    }
}

/// One model-checking run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Number of operations (mutations + queries) to execute.
    pub ops: usize,
    /// Master seed; all randomness and fault plans derive from it.
    pub seed: u64,
    /// Fault plan for the index's backend.
    pub faults: FaultMode,
}

/// What a completed (non-diverging) run did.
#[derive(Debug, Clone)]
pub struct Report {
    /// Index driven.
    pub index: &'static str,
    /// Fault mode.
    pub mode: FaultMode,
    /// Master seed.
    pub seed: u64,
    /// Operations executed.
    pub ops: usize,
    /// Queries whose results were compared against the oracle.
    pub queries: usize,
    /// Faults that surfaced to the harness as typed errors.
    pub faults_surfaced: usize,
    /// Recoveries: index rebuilt from the oracle after a surfaced fault.
    pub rebuilds: usize,
    /// Faults injected by the backend (including retried ones).
    pub injected: u64,
    /// Retry attempts performed by the pager.
    pub retries: u64,
    /// Faults fully recovered by retrying.
    pub recovered: u64,
    /// Stale-snapshot probes: queries answered from a pre-mutation
    /// [`mobidx_serve::ReadView`] and compared against the oracle state
    /// *as of that view's commit epoch* (the reads-see-a-prefix
    /// contract). Only the `sharded` index runs these.
    pub snapshot_checks: usize,
}

impl Report {
    fn new(index: &'static str, cfg: &CheckConfig) -> Self {
        Self {
            index,
            mode: cfg.faults,
            seed: cfg.seed,
            ops: 0,
            queries: 0,
            faults_surfaced: 0,
            rebuilds: 0,
            injected: 0,
            retries: 0,
            recovered: 0,
            snapshot_checks: 0,
        }
    }

    /// Folds a discarded store's counters into the run totals.
    fn absorb(&mut self, stats: &IoStats) {
        self.injected += stats.faults_injected();
        self.retries += stats.retries();
        self.recovered += stats.faults_recovered();
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} {:<10} seed={:<12} ops={} queries={} injected={} retried={} recovered={} surfaced={} rebuilds={} snapshots={}",
            self.index,
            self.mode.name(),
            self.seed,
            self.ops,
            self.queries,
            self.injected,
            self.retries,
            self.recovered,
            self.faults_surfaced,
            self.rebuilds,
            self.snapshot_checks,
        )
    }
}

/// An index answer that disagreed with the oracle (or a broken recovery
/// invariant). Displaying it prints the reproducing command line.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index that diverged.
    pub index: &'static str,
    /// Fault mode of the run.
    pub mode: FaultMode,
    /// Master seed of the run.
    pub seed: u64,
    /// Total ops the run was asked for.
    pub ops: usize,
    /// Op number at which the divergence was detected.
    pub at_op: usize,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "model-check divergence in {} [{}] at op {}: {}",
            self.index,
            self.mode.name(),
            self.at_op,
            self.detail
        )?;
        write!(
            f,
            "  reproduce: cargo run -p mobidx-check -- --index {} --faults {} --seed {} --ops {}",
            self.index,
            self.mode.name(),
            self.seed,
            self.ops
        )
    }
}

impl std::error::Error for Divergence {}

/// Runs one index under one configuration.
///
/// # Errors
/// Returns the first oracle divergence (with its reproducing seed).
///
/// # Panics
/// Panics if `index` is not one of [`INDEXES`].
pub fn check_index(index: &str, cfg: &CheckConfig) -> Result<Report, Divergence> {
    match index {
        "bptree" => check_bptree(cfg),
        "interval" => check_interval(cfg),
        "kdtree" => check_kdtree(cfg),
        "rstar" => check_rstar(cfg),
        "persist" => check_persist(cfg),
        "sharded" => check_sharded(cfg),
        "durable" => check_durable(cfg),
        "vp_dual" => check_vp_dual(cfg),
        other => panic!("unknown index {other:?}; expected one of {INDEXES:?}"),
    }
}

// ----------------------------------------------------------------------
// Deterministic randomness
// ----------------------------------------------------------------------

/// splitmix64 — the harness's only randomness source.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeds the generator.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// Derives an independent sub-seed (fault plans per rebuild round, per
/// index streams) from the master seed.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn diverge(report: &Report, cfg: &CheckConfig, at_op: usize, detail: String) -> Divergence {
    Divergence {
        index: report.index,
        mode: cfg.faults,
        seed: cfg.seed,
        ops: cfg.ops,
        at_op,
        detail,
    }
}

// ----------------------------------------------------------------------
// B+-tree vs BTreeSet
// ----------------------------------------------------------------------

fn bptree_cfg() -> TreeConfig {
    TreeConfig {
        leaf_cap: 16,
        branch_cap: 8,
        buffer_pages: 4,
    }
}

fn rebuild_bptree(oracle: &BTreeSet<(u64, u64)>) -> BPlusTree<u64, u64> {
    let entries: Vec<(u64, u64)> = oracle.iter().copied().collect();
    if entries.is_empty() {
        BPlusTree::new(bptree_cfg())
    } else {
        BPlusTree::bulk_load(bptree_cfg(), &entries, 0.7)
    }
}

fn check_bptree(cfg: &CheckConfig) -> Result<Report, Divergence> {
    let mut report = Report::new("bptree", cfg);
    let mut rng = SplitMix::new(mix(cfg.seed, 1));
    let mut oracle: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut tree = rebuild_bptree(&oracle);
    let mut round = 0u64;
    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
    let mut next_val = 0u64;

    for op in 0..cfg.ops {
        let roll = rng.below(100);
        if roll < 10 {
            // Grouped insert through the batched write path (sorted,
            // multi-leaf batches exercise the multi-way split).
            let count = 1 + rng.below(12) as usize;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push((rng.below(64), next_val));
                next_val += 1;
            }
            entries.sort_unstable();
            match tree.try_insert_batch(&entries) {
                Ok(()) => {
                    oracle.extend(entries.iter().copied());
                }
                Err(_) => {
                    report.faults_surfaced += 1;
                    report.absorb(tree.stats());
                    tree = rebuild_bptree(&oracle);
                    round += 1;
                    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
                    report.rebuilds += 1;
                }
            }
        } else if roll < 45 {
            // Insert a duplicate-prone key with a unique value.
            let key = rng.below(64);
            let val = next_val;
            next_val += 1;
            match tree.try_insert(key, val) {
                Ok(()) => {
                    oracle.insert((key, val));
                }
                Err(_) => {
                    report.faults_surfaced += 1;
                    report.absorb(tree.stats());
                    tree = rebuild_bptree(&oracle);
                    round += 1;
                    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
                    report.rebuilds += 1;
                }
            }
        } else if roll < 70 && !oracle.is_empty() {
            // Remove an entry the oracle says is present.
            let n = rng.below(oracle.len() as u64) as usize;
            let &(key, val) = oracle.iter().nth(n).expect("indexed oracle entry");
            match tree.try_remove(key, val) {
                Ok(true) => {
                    oracle.remove(&(key, val));
                }
                Ok(false) => {
                    return Err(diverge(
                        &report,
                        cfg,
                        op,
                        format!("present pair ({key}, {val}) reported absent on remove"),
                    ));
                }
                Err(_) => {
                    report.faults_surfaced += 1;
                    report.absorb(tree.stats());
                    tree = rebuild_bptree(&oracle);
                    round += 1;
                    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
                    report.rebuilds += 1;
                }
            }
        } else {
            // Range query.
            let lo = rng.below(64);
            let hi = lo + rng.below(16);
            let want: Vec<(u64, u64)> = oracle.range((lo, 0)..=(hi, u64::MAX)).copied().collect();
            let got = match tree.try_range(lo, hi) {
                Ok(v) => v,
                Err(_) => {
                    // Clean re-query: swap in a fault-free backend, ask
                    // again, restore the faulty one.
                    report.faults_surfaced += 1;
                    let faulty = tree.set_backend(Box::new(MemBackend));
                    let v = tree.try_range(lo, hi).expect("MemBackend never faults");
                    drop(tree.set_backend(faulty));
                    v
                }
            };
            report.queries += 1;
            let mut got_sorted = got;
            got_sorted.sort_unstable();
            if got_sorted != want {
                return Err(diverge(
                    &report,
                    cfg,
                    op,
                    format!(
                        "range [{lo}, {hi}]: index returned {} entries, oracle {}",
                        got_sorted.len(),
                        want.len()
                    ),
                ));
            }
        }
        report.ops += 1;
        // Leaf-link invariant: after any run of mutations the sibling
        // chain must be exactly the in-order leaf sequence — no dangling,
        // skipped, or cyclic link survives splits, merges, or underflow
        // fixes. (Uncounted peek access; cannot fault.)
        if op % 64 == 63 {
            if let Some(detail) = leaf_link_violation(&tree) {
                return Err(diverge(&report, cfg, op, detail));
            }
        }
    }
    if let Some(detail) = leaf_link_violation(&tree) {
        return Err(diverge(&report, cfg, cfg.ops, detail));
    }
    report.absorb(tree.stats());
    Ok(report)
}

/// Checks the tree's leaf sibling links, converting the invariant
/// panic (if any) into a divergence detail string.
fn leaf_link_violation(tree: &BPlusTree<u64, u64>) -> Option<String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tree.check_leaf_links()))
        .err()
        .map(|cause| {
            let msg = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            format!("leaf-link invariant violated: {msg}")
        })
}

// ----------------------------------------------------------------------
// Interval tree vs brute force
// ----------------------------------------------------------------------

fn check_interval(cfg: &CheckConfig) -> Result<Report, Divergence> {
    let mut report = Report::new("interval", cfg);
    let mut rng = SplitMix::new(mix(cfg.seed, 2));
    let icfg = IntervalConfig::small(8, 4);
    // Oracle: id -> (start, end). Grid-of-halves coordinates keep every
    // comparison exact.
    let mut oracle: HashMap<u64, (f64, f64)> = HashMap::new();
    let mut live: Vec<u64> = Vec::new();
    let rebuild = |oracle: &HashMap<u64, (f64, f64)>| {
        let mut t: IntervalTree<u64> = IntervalTree::new(icfg);
        // Sorted order keeps rebuilds (and hence page layout and fault
        // alignment) deterministic across runs of the same seed.
        let mut entries: Vec<(u64, (f64, f64))> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        for (id, (s, e)) in entries {
            t.insert(s, e, id);
        }
        t
    };
    let mut tree = rebuild(&oracle);
    let mut round = 0u64;
    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
    let mut next_id = 0u64;

    for op in 0..cfg.ops {
        let roll = rng.below(100);
        if roll < 45 {
            let start = rng.below(1000) as f64 * 0.5;
            let end = start + rng.below(120) as f64 * 0.5;
            let id = next_id;
            next_id += 1;
            match tree.try_insert(start, end, id) {
                Ok(()) => {
                    oracle.insert(id, (start, end));
                    live.push(id);
                }
                Err(_) => {
                    report.faults_surfaced += 1;
                    report.absorb(tree.stats());
                    tree = rebuild(&oracle);
                    round += 1;
                    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
                    report.rebuilds += 1;
                }
            }
        } else if roll < 70 && !live.is_empty() {
            let n = rng.below(live.len() as u64) as usize;
            let id = live[n];
            let (s, e) = oracle[&id];
            match tree.try_remove(s, e, id) {
                Ok(true) => {
                    oracle.remove(&id);
                    live.swap_remove(n);
                }
                Ok(false) => {
                    return Err(diverge(
                        &report,
                        cfg,
                        op,
                        format!("present interval ({s}, {e}, {id}) reported absent on remove"),
                    ));
                }
                Err(_) => {
                    report.faults_surfaced += 1;
                    report.absorb(tree.stats());
                    tree = rebuild(&oracle);
                    round += 1;
                    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
                    report.rebuilds += 1;
                }
            }
        } else {
            let t1 = rng.below(1100) as f64 * 0.5;
            let t2 = t1 + rng.below(60) as f64 * 0.5;
            let mut want: Vec<u64> = oracle
                .iter()
                .filter(|(_, &(s, e))| s <= t2 && e >= t1)
                .map(|(&id, _)| id)
                .collect();
            want.sort_unstable();
            let got = match tree.try_window(t1, t2) {
                Ok(v) => v,
                Err(_) => {
                    report.faults_surfaced += 1;
                    let faulty = tree.set_backend(Box::new(MemBackend));
                    let v = tree.try_window(t1, t2).expect("MemBackend never faults");
                    drop(tree.set_backend(faulty));
                    v
                }
            };
            report.queries += 1;
            let mut got_sorted = got;
            got_sorted.sort_unstable();
            if got_sorted != want {
                return Err(diverge(
                    &report,
                    cfg,
                    op,
                    format!(
                        "window [{t1}, {t2}]: index returned {} intervals, oracle {}",
                        got_sorted.len(),
                        want.len()
                    ),
                ));
            }
        }
        report.ops += 1;
    }
    report.absorb(tree.stats());
    Ok(report)
}

// ----------------------------------------------------------------------
// kd-tree vs brute force
// ----------------------------------------------------------------------

fn check_kdtree(cfg: &CheckConfig) -> Result<Report, Divergence> {
    let mut report = Report::new("kdtree", cfg);
    let mut rng = SplitMix::new(mix(cfg.seed, 3));
    let kcfg = KdConfig::small(8, 4);
    let mut oracle: HashMap<u64, [f64; 2]> = HashMap::new();
    let mut live: Vec<u64> = Vec::new();
    let rebuild = |oracle: &HashMap<u64, [f64; 2]>| {
        let mut t: KdTree<2, u64> = KdTree::new(kcfg);
        // Sorted order keeps rebuilds deterministic across runs.
        let mut entries: Vec<(u64, [f64; 2])> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        for (id, p) in entries {
            t.insert(p, id);
        }
        t
    };
    let mut tree = rebuild(&oracle);
    let mut round = 0u64;
    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
    let mut next_id = 0u64;

    for op in 0..cfg.ops {
        let roll = rng.below(100);
        if roll < 45 {
            let p = [rng.below(500) as f64, rng.below(500) as f64];
            let id = next_id;
            next_id += 1;
            match tree.try_insert(p, id) {
                Ok(()) => {
                    oracle.insert(id, p);
                    live.push(id);
                }
                Err(_) => {
                    report.faults_surfaced += 1;
                    report.absorb(tree.stats());
                    tree = rebuild(&oracle);
                    round += 1;
                    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
                    report.rebuilds += 1;
                }
            }
        } else if roll < 70 && !live.is_empty() {
            let n = rng.below(live.len() as u64) as usize;
            let id = live[n];
            let p = oracle[&id];
            match tree.try_remove(p, id) {
                Ok(true) => {
                    oracle.remove(&id);
                    live.swap_remove(n);
                }
                Ok(false) => {
                    return Err(diverge(
                        &report,
                        cfg,
                        op,
                        format!("present point ({p:?}, {id}) reported absent on remove"),
                    ));
                }
                Err(_) => {
                    report.faults_surfaced += 1;
                    report.absorb(tree.stats());
                    tree = rebuild(&oracle);
                    round += 1;
                    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
                    report.rebuilds += 1;
                }
            }
        } else {
            let x = rng.below(500) as f64;
            let y = rng.below(500) as f64;
            let w = rng.below(120) as f64;
            let h = rng.below(120) as f64;
            let qbox = Aabb::new([x, y], [x + w, y + h]);
            let mut want: Vec<u64> = oracle
                .iter()
                .filter(|(_, p)| qbox.contains(p))
                .map(|(&id, _)| id)
                .collect();
            want.sort_unstable();
            let got = match tree.try_query_collect(&qbox) {
                Ok(v) => v,
                Err(_) => {
                    report.faults_surfaced += 1;
                    let faulty = tree.set_backend(Box::new(MemBackend));
                    let v = tree
                        .try_query_collect(&qbox)
                        .expect("MemBackend never faults");
                    drop(tree.set_backend(faulty));
                    v
                }
            };
            report.queries += 1;
            let mut got_ids: Vec<u64> = got.into_iter().map(|(_, id)| id).collect();
            got_ids.sort_unstable();
            if got_ids != want {
                return Err(diverge(
                    &report,
                    cfg,
                    op,
                    format!(
                        "box query {qbox:?}: index returned {} points, oracle {}",
                        got_ids.len(),
                        want.len()
                    ),
                ));
            }
        }
        report.ops += 1;
    }
    report.absorb(tree.stats());
    Ok(report)
}

// ----------------------------------------------------------------------
// R*-tree vs brute force
// ----------------------------------------------------------------------

fn check_rstar(cfg: &CheckConfig) -> Result<Report, Divergence> {
    let mut report = Report::new("rstar", cfg);
    let mut rng = SplitMix::new(mix(cfg.seed, 4));
    let rcfg = RStarConfig::with_max(8);
    let mut oracle: HashMap<u64, Rect2> = HashMap::new();
    let mut live: Vec<u64> = Vec::new();
    let rebuild = |oracle: &HashMap<u64, Rect2>| {
        let mut t: RStarTree<u64> = RStarTree::new(rcfg);
        // Sorted order keeps rebuilds deterministic across runs.
        let mut entries: Vec<(u64, Rect2)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        for (id, r) in entries {
            t.insert(r, id);
        }
        t
    };
    let mut tree = rebuild(&oracle);
    let mut round = 0u64;
    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
    let mut next_id = 0u64;

    for op in 0..cfg.ops {
        let roll = rng.below(100);
        if roll < 45 {
            let x = rng.below(800) as f64;
            let y = rng.below(800) as f64;
            let w = rng.below(40) as f64;
            let h = rng.below(40) as f64;
            let r = Rect2::from_bounds(x, y, x + w, y + h);
            let id = next_id;
            next_id += 1;
            match tree.try_insert(r, id) {
                Ok(()) => {
                    oracle.insert(id, r);
                    live.push(id);
                }
                Err(_) => {
                    report.faults_surfaced += 1;
                    report.absorb(tree.stats());
                    tree = rebuild(&oracle);
                    round += 1;
                    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
                    report.rebuilds += 1;
                }
            }
        } else if roll < 70 && !live.is_empty() {
            let n = rng.below(live.len() as u64) as usize;
            let id = live[n];
            let r = oracle[&id];
            match tree.try_remove(r, id) {
                Ok(true) => {
                    oracle.remove(&id);
                    live.swap_remove(n);
                }
                Ok(false) => {
                    return Err(diverge(
                        &report,
                        cfg,
                        op,
                        format!("present rect ({r:?}, {id}) reported absent on remove"),
                    ));
                }
                Err(_) => {
                    report.faults_surfaced += 1;
                    report.absorb(tree.stats());
                    tree = rebuild(&oracle);
                    round += 1;
                    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
                    report.rebuilds += 1;
                }
            }
        } else {
            let x = rng.below(800) as f64;
            let y = rng.below(800) as f64;
            let q = Rect2::from_bounds(x, y, x + rng.below(200) as f64, y + rng.below(200) as f64);
            let mut want: Vec<u64> = oracle
                .iter()
                .filter(|(_, r)| r.intersects(&q))
                .map(|(&id, _)| id)
                .collect();
            want.sort_unstable();
            let got = match tree.try_search(&q) {
                Ok(v) => v,
                Err(_) => {
                    report.faults_surfaced += 1;
                    let faulty = tree.set_backend(Box::new(MemBackend));
                    let v = tree.try_search(&q).expect("MemBackend never faults");
                    drop(tree.set_backend(faulty));
                    v
                }
            };
            report.queries += 1;
            let mut got_ids: Vec<u64> = got.into_iter().map(|(_, id)| id).collect();
            got_ids.sort_unstable();
            if got_ids != want {
                return Err(diverge(
                    &report,
                    cfg,
                    op,
                    format!(
                        "window {q:?}: index returned {} rects, oracle {}",
                        got_ids.len(),
                        want.len()
                    ),
                ));
            }
        }
        report.ops += 1;
    }
    report.absorb(tree.stats());
    Ok(report)
}

// ----------------------------------------------------------------------
// Persistent list B-tree vs motion brute force
// ----------------------------------------------------------------------

/// One epoch of mobile objects: positions `y0 + v t`, with every real
/// crossing event precomputed so swaps can be applied in time order.
struct PersistEpoch {
    objects: Vec<(f64, f64)>,
    occupants: Vec<Occupant>,
    events: Vec<mobidx_persist::CrossEvent>,
    next_event: usize,
    applied: Vec<(f64, usize)>,
    horizon: f64,
}

impl PersistEpoch {
    fn generate(rng: &mut SplitMix) -> Self {
        let n = 40usize;
        let horizon = 60.0;
        // Jittered coordinates: with coarse grids, three objects can
        // meet at the same point at the same instant, and the pairwise
        // crossing events of such a cluster cannot always be applied as
        // adjacent swaps in emitted order. Fine jitter makes exact
        // three-way ties essentially impossible (and the harness
        // retires the epoch if one ever occurs).
        let objects: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                #[allow(clippy::cast_precision_loss)]
                let y = i as f64 * 5.0 + rng.below(100) as f64 * 0.001;
                let v = 0.5 + rng.below(3000) as f64 * 0.001;
                (y, v)
            })
            .collect();
        // y0 values are strictly increasing, so the epoch order is the
        // input order.
        let occupants: Vec<Occupant> = objects
            .iter()
            .enumerate()
            .map(|(i, &(y0, v))| Occupant {
                id: i as u64,
                y0,
                v,
            })
            .collect();
        let events = all_crossings(&objects, horizon);
        Self {
            objects,
            occupants,
            events,
            next_event: 0,
            applied: Vec::new(),
            horizon,
        }
    }

    /// Builds the structure for this epoch by replaying every applied
    /// swap (the harness's recovery protocol: rebuild from the log).
    fn rebuild(&self) -> PersistentListBTree {
        let mut t = PersistentListBTree::new(PersistConfig::small(16), self.occupants.clone());
        for &(time, pos) in &self.applied {
            t.apply_swap(time, pos);
        }
        t
    }

    /// Latest query time with no unapplied crossing before it.
    fn safe_horizon(&self) -> f64 {
        match self.events.get(self.next_event) {
            Some(e) => e.time,
            None => self.horizon,
        }
    }
}

fn check_persist(cfg: &CheckConfig) -> Result<Report, Divergence> {
    let mut report = Report::new("persist", cfg);
    let mut rng = SplitMix::new(mix(cfg.seed, 5));
    let mut epoch = PersistEpoch::generate(&mut rng);
    let mut tree = epoch.rebuild();
    let mut round = 0u64;
    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));

    for op in 0..cfg.ops {
        let roll = rng.below(100);
        if roll < 55 {
            // Apply the next real crossing. The epoch is retired (a
            // fresh one is generated) when it runs out of events, or —
            // only possible on an exact float tie where three objects
            // meet simultaneously — when the next pairwise crossing is
            // not an adjacent swap in the current list.
            loop {
                let applicable = epoch.events.get(epoch.next_event).is_some_and(|e| {
                    tree.position_of(e.b as u64)
                        .is_some_and(|p| tree.position_of(e.a as u64) == Some(p + 1))
                });
                if applicable {
                    break;
                }
                report.absorb(tree.stats());
                epoch = PersistEpoch::generate(&mut rng);
                tree = epoch.rebuild();
                round += 1;
                drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
            }
            let e = epoch.events[epoch.next_event];
            let pos = tree
                .position_of(e.b as u64)
                .expect("applicability checked above");
            match tree.try_apply_swap(e.time, pos) {
                Ok(()) => {
                    epoch.applied.push((e.time, pos));
                    epoch.next_event += 1;
                }
                Err(_) => {
                    // The in-memory mirrors and the paged log may now
                    // disagree: recover by replaying the applied swaps.
                    report.faults_surfaced += 1;
                    report.absorb(tree.stats());
                    tree = epoch.rebuild();
                    round += 1;
                    drop(tree.set_backend(cfg.faults.backend(mix(cfg.seed, round))));
                    report.rebuilds += 1;
                }
            }
        } else {
            // MOR query at a time all applied events cover.
            let bound = epoch.safe_horizon();
            let t = bound * (rng.below(1000) as f64 / 1000.0);
            let yl = rng.below(400) as f64;
            let yr = yl + rng.below(120) as f64;
            let mut want: Vec<u64> = epoch
                .objects
                .iter()
                .enumerate()
                .filter(|(_, &(y0, v))| {
                    let p = y0 + v * t;
                    yl <= p && p <= yr
                })
                .map(|(i, _)| i as u64)
                .collect();
            want.sort_unstable();
            let mut got: Vec<u64> = Vec::new();
            let outcome = tree.try_query(t, yl, yr, |o| got.push(o.id));
            if outcome.is_err() {
                report.faults_surfaced += 1;
                let faulty = tree.set_backend(Box::new(MemBackend));
                got.clear();
                tree.try_query(t, yl, yr, |o| got.push(o.id))
                    .expect("MemBackend never faults");
                drop(tree.set_backend(faulty));
            }
            report.queries += 1;
            got.sort_unstable();
            if got != want {
                return Err(diverge(
                    &report,
                    cfg,
                    op,
                    format!(
                        "query t={t} y=[{yl}, {yr}]: index returned {} objects, oracle {}",
                        got.len(),
                        want.len()
                    ),
                ));
            }
        }
        report.ops += 1;
    }
    report.absorb(tree.stats());
    Ok(report)
}

// ----------------------------------------------------------------------
// Sharded serving tier vs motion-table brute force
// ----------------------------------------------------------------------

/// Shard count for the sharded runs. Three speed bands is enough to
/// exercise fan-out, k-way merging, and inter-shard migration on
/// updates, while keeping each rebuild cheap.
const SHARDED_SHARDS: usize = 3;

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

/// Arms every store of one shard's index with a fresh backend realizing
/// the run's fault mode. Fails only if the shard is poisoned or down.
fn arm_shard(
    db: &ShardedDb<DualBPlusIndex>,
    shard: usize,
    mode: FaultMode,
    seed: u64,
) -> Result<(), ServeError> {
    db.with_shard(shard, move |idx: &mut DualBPlusIndex| {
        idx.set_backends(&mut || mode.backend(seed));
    })
}

/// Sums one index's fault/retry counters across all its page stores.
fn fault_counters(idx: &DualBPlusIndex) -> (u64, u64, u64) {
    let mut totals = (0u64, 0u64, 0u64);
    idx.for_each_stats(&mut |s| {
        totals.0 += s.faults_injected();
        totals.1 += s.retries();
        totals.2 += s.faults_recovered();
    });
    totals
}

/// Folds one index's counters into the run totals. Called on every
/// index `rebuild_shard` retires (its counts would otherwise die with
/// it) and once per live shard at the end of the run; each index is
/// absorbed exactly once, so nothing is double-counted.
fn absorb_index(report: &mut Report, idx: &DualBPlusIndex) {
    let (injected, retries, recovered) = fault_counters(idx);
    report.injected += injected;
    report.retries += retries;
    report.recovered += recovered;
}

/// Folds every live shard's fault/retry counters into the report.
fn absorb_shard_faults(db: &ShardedDb<DualBPlusIndex>, report: &mut Report) {
    for shard in 0..SHARDED_SHARDS {
        if let Ok(stats) = db.with_shard(shard, |idx: &mut DualBPlusIndex| fault_counters(idx)) {
            report.injected += stats.0;
            report.retries += stats.1;
            report.recovered += stats.2;
        }
    }
}

fn check_sharded(cfg: &CheckConfig) -> Result<Report, Divergence> {
    silence_shard_panics();
    let mut report = Report::new("sharded", cfg);
    let mut rng = SplitMix::new(mix(cfg.seed, 6));

    let band = SpeedBand::paper();
    let sf = SpeedBandShard::new(band);
    let db: ShardedDb<DualBPlusIndex> = ShardedDb::new(
        ServeConfig {
            shards: SHARDED_SHARDS,
            queue_depth: 16,
            ..ServeConfig::default()
        },
        Box::new(sf),
        move |i, s| {
            DualBPlusIndex::new(DualBPlusConfig {
                band: sf.index_band(i, s),
                // The harness's small nodes (as in `bptree_cfg`): at
                // oracle scale, page-capacity leaves would never miss
                // the buffer pools and no fault plan could ever fire.
                tree: bptree_cfg(),
                ..DualBPlusConfig::default()
            })
        },
    );
    let terrain = DualBPlusConfig::default().terrain;

    // The oracle is an ordered map so that "pick the n-th tracked
    // object" is deterministic across runs of the same seed.
    let mut oracle: BTreeMap<u64, Motion1D> = BTreeMap::new();
    // The reads-see-a-prefix ledger: the oracle state as of each
    // published commit epoch. Epoch 0 is the (empty) initial load; a
    // new entry is recorded at the end of any op whose apply or rebuild
    // published a snapshot. `or_insert_with` because an epoch's state
    // is fixed at publication — a paused publisher must not overwrite
    // the state its stale snapshot still serves.
    let mut epoch_states: BTreeMap<u64, BTreeMap<u64, Motion1D>> = BTreeMap::new();
    epoch_states.insert(0, BTreeMap::new());
    let mut next_id = 0u64;
    let mut round = 0u64;
    for shard in 0..SHARDED_SHARDS {
        arm_shard(&db, shard, cfg.faults, mix(cfg.seed, 1000 + shard as u64))
            .expect("fresh shards accept a backend swap");
    }

    // The `injected`/`retries`/`recovered` counters live in the stores
    // *behind* the shard boundary. They are read out of each retired
    // index as `rebuild_shard` hands it back, and out of the live
    // shards once at the end of the run.

    // Speeds on a dyadic 1/64 grid (0.171875 ..= 1.65625, inside the
    // paper band), with integer times and positions: every position a
    // query can probe (`y0 + v·Δt`, Δt integer) then lies on the 1/64
    // grid. Query edges are offset by 1/128 (see the query arm below),
    // so no trajectory can ever touch an edge exactly — membership is
    // decided with a margin of at least 1/128, ten orders of magnitude
    // above the ulp-level rounding the index's Hough-transform
    // reconstruction (`b = t0 + (y_r − y0)/v`) introduces. The oracle
    // and the index therefore always agree, the same way the interval
    // harness's grid-of-halves keeps its comparisons exact.
    let new_motion = |rng: &mut SplitMix, id: u64| -> Motion1D {
        Motion1D {
            id,
            t0: rng.below(300) as f64,
            y0: rng.below(terrain as u64) as f64,
            v: {
                let speed = (11 + rng.below(96)) as f64 / 64.0;
                if rng.below(2) == 0 {
                    speed
                } else {
                    -speed
                }
            },
        }
    };

    for op in 0..cfg.ops {
        // Shards rebuilt while executing this op; re-armed afterwards so
        // recovery itself runs fault-free (guaranteeing termination).
        let mut rebuilt: Vec<usize> = Vec::new();
        let roll = rng.below(100);
        if roll < 65 || oracle.is_empty() {
            // Mutation through the batch facade. `apply` commits the
            // authoritative table before dispatching to the workers, so
            // a shard fault does NOT roll the op back — the table has
            // it, and the rebuild below replays the table into a fresh
            // index. The oracle therefore applies the op on *both* the
            // Ok and the fault paths; only a validation error (which
            // the harness never provokes) would mean divergence.
            // Capture the published snapshot *before* the mutation: once
            // the batch commits it must keep answering from its own
            // epoch's state, untouched by the commit racing past it.
            let stale_view = db.read_view();
            let mut batch = Batch::new();
            let mutation: Motion1D;
            let is_remove: bool;
            if roll < 30 || oracle.is_empty() {
                mutation = new_motion(&mut rng, next_id);
                next_id += 1;
                batch.insert(mutation);
                is_remove = false;
            } else if roll < 55 {
                // Update: fresh position and speed, so the object can
                // migrate to a different speed-band shard.
                let n = rng.below(oracle.len() as u64) as usize;
                let (&id, _) = oracle.iter().nth(n).expect("indexed oracle entry");
                mutation = new_motion(&mut rng, id);
                batch.update(mutation);
                is_remove = false;
            } else {
                let n = rng.below(oracle.len() as u64) as usize;
                let (&id, &old) = oracle.iter().nth(n).expect("indexed oracle entry");
                mutation = old;
                batch.remove(id);
                is_remove = true;
            }
            match db.apply(&batch) {
                Ok(()) => {}
                Err(e @ (ServeError::Duplicate(_) | ServeError::Unknown(_))) => {
                    return Err(diverge(
                        &report,
                        cfg,
                        op,
                        format!("valid batch rejected: {e}"),
                    ));
                }
                Err(ServeError::ShardFault { shard, .. } | ServeError::ShardPoisoned { shard }) => {
                    report.faults_surfaced += 1;
                    let retired = db.rebuild_shard(shard).map_err(|e| {
                        diverge(&report, cfg, op, format!("clean rebuild failed: {e}"))
                    })?;
                    absorb_index(&mut report, &retired);
                    report.rebuilds += 1;
                    rebuilt.push(shard);
                }
                Err(e @ ServeError::ShardDown { .. }) => {
                    return Err(diverge(&report, cfg, op, format!("worker died: {e}")));
                }
            }
            if is_remove {
                oracle.remove(&mutation.id);
            } else {
                oracle.insert(mutation.id, mutation);
            }
            // Stale-snapshot probe: the view captured before the commit
            // must still answer exactly from the oracle state at its
            // own epoch — never the state the batch above produced.
            if let Some(view) = stale_view {
                if let Some(frozen) = epoch_states.get(&view.epoch()) {
                    let y1 = rng.below(terrain as u64) as f64 + 1.0 / 128.0;
                    let t1 = 300.0 + rng.below(60) as f64;
                    let q = MorQuery1D {
                        y1,
                        y2: y1 + rng.below(terrain as u64 / 5) as f64,
                        t1,
                        t2: t1 + rng.below(60) as f64,
                    };
                    let objects: Vec<Motion1D> = frozen.values().copied().collect();
                    let want = brute_force_1d(&objects, &q);
                    let got = view.query(&q);
                    report.snapshot_checks += 1;
                    if got != want {
                        return Err(diverge(
                            &report,
                            cfg,
                            op,
                            format!(
                                "reads-see-a-prefix violated: snapshot at epoch {} \
                                 answered {} ids where its epoch's oracle has {} \
                                 (query {q:?})",
                                view.epoch(),
                                got.len(),
                                want.len()
                            ),
                        ));
                    }
                }
            }
        } else {
            // Fan-out MOR query vs brute force over the oracle table.
            // The 1/128 edge offset keeps every trajectory strictly off
            // the query boundary (see `new_motion` above).
            let y1 = rng.below(terrain as u64) as f64 + 1.0 / 128.0;
            let y2 = y1 + rng.below(terrain as u64 / 5) as f64;
            let t1 = 300.0 + rng.below(60) as f64;
            let q = MorQuery1D {
                y1,
                y2,
                t1,
                t2: t1 + rng.below(60) as f64,
            };
            let objects: Vec<Motion1D> = oracle.values().copied().collect();
            let want = brute_force_1d(&objects, &q);
            // Retry until every faulted shard has been rebuilt; each
            // loop iteration replaces one shard's fault backend with the
            // factory's clean one, so at most `SHARDED_SHARDS`
            // iterations can fault.
            let got = loop {
                // Route through the worker queues: the snapshot path is
                // infallible by design (a faulted shard just pauses
                // publication), but this harness exists to exercise the
                // tier's typed-error surfacing and rebuild protocol.
                match db.query(&QueryRequest::new(&q).queued()) {
                    Ok(v) => break v.into_ids(),
                    Err(
                        ServeError::ShardFault { shard, .. } | ServeError::ShardPoisoned { shard },
                    ) => {
                        report.faults_surfaced += 1;
                        let retired = db.rebuild_shard(shard).map_err(|e| {
                            diverge(&report, cfg, op, format!("clean rebuild failed: {e}"))
                        })?;
                        absorb_index(&mut report, &retired);
                        report.rebuilds += 1;
                        rebuilt.push(shard);
                    }
                    Err(e) => {
                        return Err(diverge(
                            &report,
                            cfg,
                            op,
                            format!("query returned a non-fault error: {e}"),
                        ));
                    }
                }
            };
            report.queries += 1;
            if !got.windows(2).all(|w| w[0] < w[1]) {
                return Err(diverge(
                    &report,
                    cfg,
                    op,
                    format!("merge contract broken: answer not sorted-dedup ({got:?})"),
                ));
            }
            if got != want {
                let extra: Vec<u64> = got
                    .iter()
                    .filter(|id| !want.contains(id))
                    .copied()
                    .collect();
                let missing: Vec<u64> = want
                    .iter()
                    .filter(|id| !got.contains(id))
                    .copied()
                    .collect();
                let detail: Vec<String> = extra
                    .iter()
                    .chain(&missing)
                    .map(|id| format!("{id}:{:?}", oracle.get(id)))
                    .collect();
                return Err(diverge(
                    &report,
                    cfg,
                    op,
                    format!(
                        "query y=[{y1}, {y2}] t=[{t1}, {}]: sharded tier returned {} ids, \
                         oracle {} (extra {extra:?}, missing {missing:?}; {detail:?})",
                        q.t2,
                        got.len(),
                        want.len()
                    ),
                ));
            }
        }
        // Re-arm the rebuilt shards with round-incremented fault plans.
        for shard in rebuilt {
            round += 1;
            arm_shard(&db, shard, cfg.faults, mix(cfg.seed, 2000 + round))
                .expect("rebuilt shards accept a backend swap");
        }
        // If this op's apply or rebuild published a new epoch, ledger
        // the oracle state it sealed; prune so the map stays bounded
        // (a stale view is always at most one op behind the newest
        // entry, so eight epochs of history is plenty).
        epoch_states
            .entry(db.snapshot_epoch())
            .or_insert_with(|| oracle.clone());
        while epoch_states.len() > 8 {
            epoch_states.pop_first();
        }
        report.ops += 1;
    }
    absorb_shard_faults(&db, &mut report);
    Ok(report)
}

// ----------------------------------------------------------------------
// Velocity-partitioned dual-B+ tier vs motion-table brute force
// ----------------------------------------------------------------------

/// Shard count for the vp_dual runs. Two id-hash shards exercise
/// fan-out, typed-error surfacing, and per-shard repartitions while
/// keeping each migration cheap.
const VP_SHARDS: usize = 2;

/// Velocity-histogram bins fed to the band-boundary optimizer during a
/// mid-sequence repartition.
const VP_HIST_BINS: usize = 8;

/// The index configuration for the vp_dual runs: three bands, two
/// observation trees per band, and the harness's small nodes (see
/// `bptree_cfg`) so the fault plans can actually fire.
fn vp_cfg() -> VpDualConfig {
    VpDualConfig {
        bands: 3,
        c: 2,
        tree: bptree_cfg(),
        // Pinned roots skip physical reads, which would shift where
        // per-store crash budgets fire; the harness pins nothing so the
        // fault matrix stays at its verified injection points.
        pin_roots: false,
        ..VpDualConfig::default()
    }
}

/// Arms every store across every band sub-index of one shard with a
/// fresh backend realizing the run's fault mode.
fn arm_vp_shard(
    db: &ShardedDb<VpDualIndex>,
    shard: usize,
    mode: FaultMode,
    seed: u64,
) -> Result<(), ServeError> {
    db.with_shard(shard, move |idx: &mut VpDualIndex| {
        idx.set_backends(&mut || mode.backend(seed));
    })
}

/// Folds one retired vp_dual index's fault/retry counters into the run
/// totals (the vp_dual analogue of `absorb_index`).
fn absorb_vp_index(report: &mut Report, idx: &VpDualIndex) {
    let mut totals = (0u64, 0u64, 0u64);
    idx.for_each_stats(&mut |s| {
        totals.0 += s.faults_injected();
        totals.1 += s.retries();
        totals.2 += s.faults_recovered();
    });
    report.injected += totals.0;
    report.retries += totals.1;
    report.recovered += totals.2;
}

/// Drives the serving tier over id-hash-sharded [`VpDualIndex`]es — the
/// same oracle-agreement and rebuild protocol as `check_sharded`, plus
/// seeded **mid-sequence repartitions**: every so often one shard's band
/// boundaries are re-optimized from the oracle's velocity histogram and
/// the full begin/migrate/finish protocol runs through the shard
/// worker. A pager fault anywhere in the migration panics the worker,
/// which must surface as a typed shard fault (never a wrong answer) and
/// heal through the standard rebuild.
fn check_vp_dual(cfg: &CheckConfig) -> Result<Report, Divergence> {
    silence_shard_panics();
    let mut report = Report::new("vp_dual", cfg);
    let mut rng = SplitMix::new(mix(cfg.seed, 8));

    let icfg = vp_cfg();
    let db: ShardedDb<VpDualIndex> = ShardedDb::new(
        ServeConfig {
            shards: VP_SHARDS,
            queue_depth: 16,
            ..ServeConfig::default()
        },
        Box::new(IdHashShard),
        move |_, _| VpDualIndex::new(icfg),
    );
    let terrain = icfg.terrain;
    let band = icfg.band;

    let mut oracle: BTreeMap<u64, Motion1D> = BTreeMap::new();
    let mut next_id = 0u64;
    let mut round = 0u64;
    for shard in 0..VP_SHARDS {
        arm_vp_shard(&db, shard, cfg.faults, mix(cfg.seed, 4000 + shard as u64))
            .expect("fresh shards accept a backend swap");
    }

    // The same dyadic speed grid and 1/128 query-edge offsets as
    // `check_sharded`: membership is always decided with a margin far
    // above float rounding, so the oracle and the index agree exactly.
    let new_motion = |rng: &mut SplitMix, id: u64| -> Motion1D {
        Motion1D {
            id,
            t0: rng.below(300) as f64,
            y0: rng.below(terrain as u64) as f64,
            v: {
                let speed = (11 + rng.below(96)) as f64 / 64.0;
                if rng.below(2) == 0 {
                    speed
                } else {
                    -speed
                }
            },
        }
    };

    for op in 0..cfg.ops {
        let mut rebuilt: Vec<usize> = Vec::new();
        let roll = rng.below(100);
        if roll < 64 || oracle.is_empty() {
            // Mutation through the batch facade (see `check_sharded` for
            // why the oracle applies the op on both the Ok and the
            // fault paths).
            let mut batch = Batch::new();
            let mutation: Motion1D;
            let is_remove: bool;
            if roll < 30 || oracle.is_empty() {
                mutation = new_motion(&mut rng, next_id);
                next_id += 1;
                batch.insert(mutation);
                is_remove = false;
            } else if roll < 52 {
                // Update: fresh position and speed, so the object can
                // migrate to a different velocity band in place.
                let n = rng.below(oracle.len() as u64) as usize;
                let (&id, _) = oracle.iter().nth(n).expect("indexed oracle entry");
                mutation = new_motion(&mut rng, id);
                batch.update(mutation);
                is_remove = false;
            } else {
                let n = rng.below(oracle.len() as u64) as usize;
                let (&id, &old) = oracle.iter().nth(n).expect("indexed oracle entry");
                mutation = old;
                batch.remove(id);
                is_remove = true;
            }
            match db.apply(&batch) {
                Ok(()) => {}
                Err(e @ (ServeError::Duplicate(_) | ServeError::Unknown(_))) => {
                    return Err(diverge(
                        &report,
                        cfg,
                        op,
                        format!("valid batch rejected: {e}"),
                    ));
                }
                Err(ServeError::ShardFault { shard, .. } | ServeError::ShardPoisoned { shard }) => {
                    report.faults_surfaced += 1;
                    let retired = db.rebuild_shard(shard).map_err(|e| {
                        diverge(&report, cfg, op, format!("clean rebuild failed: {e}"))
                    })?;
                    absorb_vp_index(&mut report, &retired);
                    report.rebuilds += 1;
                    rebuilt.push(shard);
                }
                Err(e @ ServeError::ShardDown { .. }) => {
                    return Err(diverge(&report, cfg, op, format!("worker died: {e}")));
                }
            }
            if is_remove {
                oracle.remove(&mutation.id);
            } else {
                oracle.insert(mutation.id, mutation);
            }
        } else if roll < 66 && oracle.len() >= 8 {
            // Mid-sequence repartition of one shard: re-optimize the
            // band boundaries from the oracle's velocity histogram and
            // run the full protocol through the shard worker.
            let shard = rng.below(VP_SHARDS as u64) as usize;
            let mut hist = vec![0u64; VP_HIST_BINS];
            for m in oracle.values() {
                let s = m.v.abs().clamp(band.v_min, band.v_max);
                let frac = (s - band.v_min) / (band.v_max - band.v_min);
                let bin = ((frac * VP_HIST_BINS as f64) as usize).min(VP_HIST_BINS - 1);
                hist[bin] += 1;
            }
            let plan = optimize_boundaries(
                &hist,
                band.v_min,
                band.v_max,
                band,
                icfg.bands,
                icfg.band_cost,
            );
            let motions: Vec<Motion1D> = oracle
                .values()
                .filter(|m| IdHashShard.shard_of(m, VP_SHARDS) == shard)
                .copied()
                .collect();
            match db.with_shard(shard, move |idx: &mut VpDualIndex| {
                idx.repartition(plan, &motions);
            }) {
                Ok(()) => {}
                Err(ServeError::ShardFault { shard, .. } | ServeError::ShardPoisoned { shard }) => {
                    report.faults_surfaced += 1;
                    let retired = db.rebuild_shard(shard).map_err(|e| {
                        diverge(&report, cfg, op, format!("clean rebuild failed: {e}"))
                    })?;
                    absorb_vp_index(&mut report, &retired);
                    report.rebuilds += 1;
                    rebuilt.push(shard);
                }
                Err(e) => {
                    return Err(diverge(
                        &report,
                        cfg,
                        op,
                        format!("repartition returned a non-fault error: {e}"),
                    ));
                }
            }
        } else {
            // Fan-out MOR query vs brute force over the oracle table.
            let y1 = rng.below(terrain as u64) as f64 + 1.0 / 128.0;
            let y2 = y1 + rng.below(terrain as u64 / 5) as f64;
            let t1 = 300.0 + rng.below(60) as f64;
            let q = MorQuery1D {
                y1,
                y2,
                t1,
                t2: t1 + rng.below(60) as f64,
            };
            let objects: Vec<Motion1D> = oracle.values().copied().collect();
            let want = brute_force_1d(&objects, &q);
            let got = loop {
                match db.query(&QueryRequest::new(&q).queued()) {
                    Ok(v) => break v.into_ids(),
                    Err(
                        ServeError::ShardFault { shard, .. } | ServeError::ShardPoisoned { shard },
                    ) => {
                        report.faults_surfaced += 1;
                        let retired = db.rebuild_shard(shard).map_err(|e| {
                            diverge(&report, cfg, op, format!("clean rebuild failed: {e}"))
                        })?;
                        absorb_vp_index(&mut report, &retired);
                        report.rebuilds += 1;
                        rebuilt.push(shard);
                    }
                    Err(e) => {
                        return Err(diverge(
                            &report,
                            cfg,
                            op,
                            format!("query returned a non-fault error: {e}"),
                        ));
                    }
                }
            };
            report.queries += 1;
            if !got.windows(2).all(|w| w[0] < w[1]) {
                return Err(diverge(
                    &report,
                    cfg,
                    op,
                    format!("merge contract broken: answer not sorted-dedup ({got:?})"),
                ));
            }
            if got != want {
                let extra: Vec<u64> = got
                    .iter()
                    .filter(|id| !want.contains(id))
                    .copied()
                    .collect();
                let missing: Vec<u64> = want
                    .iter()
                    .filter(|id| !got.contains(id))
                    .copied()
                    .collect();
                return Err(diverge(
                    &report,
                    cfg,
                    op,
                    format!(
                        "query y=[{y1}, {y2}] t=[{t1}, {}]: vp_dual tier returned {} ids, \
                         oracle {} (extra {extra:?}, missing {missing:?})",
                        q.t2,
                        got.len(),
                        want.len()
                    ),
                ));
            }
        }
        // Re-arm the rebuilt shards with round-incremented fault plans.
        for shard in rebuilt {
            round += 1;
            arm_vp_shard(&db, shard, cfg.faults, mix(cfg.seed, 5000 + round))
                .expect("rebuilt shards accept a backend swap");
        }
        report.ops += 1;
    }
    for shard in 0..VP_SHARDS {
        if let Ok(stats) = db.with_shard(shard, |idx: &mut VpDualIndex| {
            let mut t = (0u64, 0u64, 0u64);
            idx.for_each_stats(&mut |s| {
                t.0 += s.faults_injected();
                t.1 += s.retries();
                t.2 += s.faults_recovered();
            });
            t
        }) {
            report.injected += stats.0;
            report.retries += stats.1;
            report.recovered += stats.2;
        }
    }
    Ok(report)
}

// ----------------------------------------------------------------------
// Durable B+-tree vs a two-level oracle (the commit contract)
// ----------------------------------------------------------------------

/// Key domain for the durable runs (the same duplicate-prone band as
/// `check_bptree`).
const DURABLE_KEYS: u64 = 64;

/// Opens (with recovery) the durable tree in `dir` on a fault-free
/// [`FileBackend`]. Errors are environmental (filesystem) or a broken
/// recovery image — both are reported as divergence details.
fn open_clean_durable(dir: &Path) -> Result<BPlusTree<u64, u64>, String> {
    let (backend, image) = FileBackend::open(dir, FsyncPolicy::Never)
        .map_err(|e| format!("filesystem error opening durable store: {e}"))?;
    BPlusTree::open_durable(bptree_cfg(), Box::new(backend), &image)
        .ok_or_else(|| "recovered image failed to decode".to_string())
}

/// Swaps the tree onto a [`DurableFaultStore`] armed with this round's
/// fault plans. The swap marks every live page dirty, so the next
/// sealed window re-journals the whole tree — idempotent under replay,
/// and it keeps the arming itself fault-free (the first allocation of
/// an empty tree never races a fault plan).
fn arm_durable_faults(
    tree: &mut BPlusTree<u64, u64>,
    dir: &Path,
    mode: FaultMode,
    seed: u64,
) -> Result<(), String> {
    let (page_plan, wal_plan) = mode.durable_plans(seed);
    let (backend, _image) = DurableFaultStore::open(dir, FsyncPolicy::Never, page_plan, wal_plan)
        .map_err(|e| format!("filesystem error arming durable store: {e}"))?;
    drop(tree.set_backend(Box::new(backend)));
    Ok(())
}

/// Drives a durable B+-tree through mutations, range queries, commit
/// windows, and checkpoints. Two oracles ride along: `pending` mirrors
/// the live tree (open window included), `committed` is what the last
/// sealed window promised to disk. Any surfaced fault triggers the
/// real recovery protocol — drop the tree (the "crash"), reopen the
/// directory fault-free, and require the recovered contents to be
/// *exactly* `committed`: uncommitted work is forgotten by contract,
/// never corrupted, and committed work is never lost.
fn check_durable(cfg: &CheckConfig) -> Result<Report, Divergence> {
    let mut report = Report::new("durable", cfg);
    let mut rng = SplitMix::new(mix(cfg.seed, 7));
    // Unique per run and removed when the run ends, however it ends.
    // The name never feeds back into checked behavior, so it does not
    // perturb determinism.
    let dir = ScratchDir::new("check-durable");

    let mut pending: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut committed: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut round = 0u64;
    let mut tree = open_clean_durable(&dir).map_err(|e| diverge(&report, cfg, 0, e))?;
    arm_durable_faults(&mut tree, &dir, cfg.faults, mix(cfg.seed, 3000))
        .map_err(|e| diverge(&report, cfg, 0, e))?;
    let mut next_val = 0u64;

    for op in 0..cfg.ops {
        let mut crashed = false;
        let roll = rng.below(100);
        if roll < 35 {
            let key = rng.below(DURABLE_KEYS);
            let val = next_val;
            next_val += 1;
            match tree.try_insert(key, val) {
                Ok(()) => {
                    pending.insert((key, val));
                }
                Err(_) => crashed = true,
            }
        } else if roll < 55 && !pending.is_empty() {
            let n = rng.below(pending.len() as u64) as usize;
            let &(key, val) = pending.iter().nth(n).expect("indexed oracle entry");
            match tree.try_remove(key, val) {
                Ok(true) => {
                    pending.remove(&(key, val));
                }
                Ok(false) => {
                    return Err(diverge(
                        &report,
                        cfg,
                        op,
                        format!("present pair ({key}, {val}) reported absent on remove"),
                    ));
                }
                Err(_) => crashed = true,
            }
        } else if roll < 75 {
            let lo = rng.below(DURABLE_KEYS);
            let hi = lo + rng.below(16);
            match tree.try_range(lo, hi) {
                Ok(mut got) => {
                    report.queries += 1;
                    got.sort_unstable();
                    let want: Vec<(u64, u64)> =
                        pending.range((lo, 0)..=(hi, u64::MAX)).copied().collect();
                    if got != want {
                        return Err(diverge(
                            &report,
                            cfg,
                            op,
                            format!(
                                "range [{lo}, {hi}]: index returned {} entries, oracle {}",
                                got.len(),
                                want.len()
                            ),
                        ));
                    }
                }
                Err(_) => crashed = true,
            }
        } else {
            // Seal the open window — or, occasionally, checkpoint,
            // which commits *and* truncates the log.
            let sealed = if roll >= 97 {
                tree.try_checkpoint()
            } else {
                tree.try_commit()
            };
            match sealed {
                Ok(()) => {
                    committed = pending.clone();
                }
                Err(_) => crashed = true,
            }
        }

        if crashed {
            report.faults_surfaced += 1;
            report.absorb(tree.stats());
            drop(tree);
            tree = open_clean_durable(&dir).map_err(|e| diverge(&report, cfg, op, e))?;
            let mut got = tree
                .try_range(0, DURABLE_KEYS - 1)
                .expect("FileBackend never faults");
            got.sort_unstable();
            report.queries += 1;
            let want: Vec<(u64, u64)> = committed.iter().copied().collect();
            if got != want {
                return Err(diverge(
                    &report,
                    cfg,
                    op,
                    format!(
                        "recovery broke the commit contract: recovered {} entries, \
                         last sealed window has {}",
                        got.len(),
                        want.len()
                    ),
                ));
            }
            // Uncommitted work is gone — by contract, not by accident.
            pending = committed.clone();
            round += 1;
            arm_durable_faults(&mut tree, &dir, cfg.faults, mix(cfg.seed, 3000 + round))
                .map_err(|e| diverge(&report, cfg, op, e))?;
            report.rebuilds += 1;
        }
        report.ops += 1;
    }
    report.absorb(tree.stats());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix::new(42);
        let mut b = SplitMix::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fault_mode_names_round_trip() {
        for mode in FaultMode::ALL {
            assert_eq!(FaultMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(FaultMode::parse("bogus"), None);
    }

    #[test]
    fn divergence_prints_reproducing_seed() {
        let d = Divergence {
            index: "bptree",
            mode: FaultMode::Torn,
            seed: 12345,
            ops: 500,
            at_op: 99,
            detail: "example".into(),
        };
        let s = d.to_string();
        assert!(s.contains("--seed 12345"), "missing seed in {s}");
        assert!(s.contains("--faults torn"), "missing mode in {s}");
    }

    #[test]
    fn smoke_every_index_no_faults() {
        for index in INDEXES {
            let cfg = CheckConfig {
                ops: 300,
                seed: 7,
                faults: FaultMode::None,
            };
            let report = check_index(index, &cfg).unwrap_or_else(|d| panic!("{d}"));
            assert_eq!(report.ops, 300, "{index}");
            assert!(report.queries > 0, "{index} ran no queries");
            assert_eq!(report.faults_surfaced, 0, "{index}");
        }
    }
}
