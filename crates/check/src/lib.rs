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
//!
//! One loop (`driver::drive`) runs every target; a target (`bptree`,
//! `spatial`, `persist`, `tier`, `durable`) is an implementation of
//! `driver::ModelTarget` and one row of the `TARGETS` table — see
//! DESIGN.md §4, "adding a target".

mod bptree;
mod driver;
mod durable;
mod persist;
mod spatial;
mod tier;

use driver::{drive, ModelTarget, Tally};
use mobidx_core::method::dual_bplus::DualBPlusIndex;
use mobidx_core::VpDualIndex;
use mobidx_interval::IntervalTree;
use mobidx_kdtree::KdTree;
use mobidx_pager::{Backend, FaultPlan, FaultStore, MemBackend};
use mobidx_rstar::RStarTree;
use std::fmt;

type Runner = fn(&CheckConfig) -> Result<Report, Divergence>;

/// One row per target: its CLI name and the driver instantiated for it.
/// The only list of targets there is — [`INDEXES`], [`check_index`] and
/// the CLI's `--index` parser and usage text all read it.
const TARGETS: &[(&str, Runner)] = &[
    target::<bptree::BptreeTarget>(),
    target::<spatial::SpatialTarget<IntervalTree<u64>>>(),
    target::<spatial::SpatialTarget<KdTree<2, u64>>>(),
    target::<spatial::SpatialTarget<RStarTree<u64>>>(),
    target::<persist::PersistTarget>(),
    target::<tier::TierTarget<DualBPlusIndex>>(),
    target::<durable::DurableTarget>(),
    target::<tier::TierTarget<VpDualIndex>>(),
];

const fn target<T: ModelTarget>() -> (&'static str, Runner) {
    (T::NAME, drive::<T>)
}

/// The indexes the harness knows how to drive. `sharded` is the serving
/// tier (`mobidx-serve`) over per-speed-band dual-B+ shards — the same
/// fault plans are armed *behind* the shard workers, so what the harness
/// exercises is the tier's typed-error surfacing and rebuild protocol.
/// `durable` is a B+-tree on the real-file [`mobidx_pager::FileBackend`]: faults hit
/// the page traffic and the write-ahead log independently, recovery is
/// reopening the directory, and the contract checked is the commit
/// contract — a recovered tree is exactly the last sealed window.
/// `vp_dual` is the serving tier over id-hash-sharded
/// velocity-partitioned dual-B+ indexes, with seeded *mid-sequence
/// repartitions* (the full begin/migrate/finish protocol against
/// boundaries re-optimized from the live velocity histogram) mixed into
/// the op stream.
pub const INDEXES: [&str; TARGETS.len()] = {
    let mut names = [""; TARGETS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = TARGETS[i].0;
        i += 1;
    }
    names
};

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
    /// durable store ([`mobidx_pager::DurableFaultStore`] arbitrates the two
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
    /// contract). The two serving-tier indexes, `sharded` and
    /// `vp_dual`, run these.
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
    fn absorb(&mut self, spent: Tally) {
        self.injected += spent.injected;
        self.retries += spent.retries;
        self.recovered += spent.recovered;
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
    let (_, run) = TARGETS
        .iter()
        .find(|(name, _)| *name == index)
        .unwrap_or_else(|| panic!("unknown index {index:?}; expected one of {INDEXES:?}"));
    run(cfg)
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
