//! Durable serving-tier benchmark: the price of the write-ahead log.
//!
//! [`run_durable_sweep`] builds one sharded dual-B+ database per
//! [`FsyncPolicy`], arms a [`FileBackend`] on every page store (each in
//! its own subdirectory of a temp root), replays the same seeded update
//! stream through the group-commit path, and measures:
//!
//! * update ops/sec with the WAL in the write path,
//! * WAL cost — records appended, `fsync`s issued (from the pager's
//!   [`IoTotals`] counters), on-disk log bytes, and the log bytes each
//!   update of the measured phase cost,
//! * recovery — after dropping the database, every store directory is
//!   reopened with [`FileBackend::open`] and the wall-clock replay time,
//!   replayed record count, and recovered live pages are summed.
//!
//! The sweep is the serving-tier analogue of the crash-matrix checker:
//! the checker proves the recovery contract, this module prices it.
//! `serve_bench --durable` prints the table (see EXPERIMENTS.md for the
//! schema of the recovery columns).

use crate::stack::{arm_file_backends, id_hash_stack, load_sim, step_batch};
use crate::Scale;
use mobidx_core::IoTotals;
use mobidx_pager::{FileBackend, FsyncPolicy, ScratchDir, WAL_FILE};
use std::time::Instant;

/// The policies a sweep compares, cheapest first.
pub const POLICIES: [FsyncPolicy; 3] = [
    FsyncPolicy::Never,
    FsyncPolicy::OnCommit,
    FsyncPolicy::Always,
];

/// Sizing of one durable sweep.
#[derive(Debug, Clone, Copy)]
pub struct DurableConfig {
    /// Initial mobile objects.
    pub n: usize,
    /// Update instants applied through the group-commit path.
    pub instants: usize,
    /// Shards (each shard's stores get their own directories).
    pub shards: usize,
    /// Workload seed.
    pub seed: u64,
}

impl DurableConfig {
    /// Derives a sweep from the benchmark [`Scale`]: the smallest N of
    /// the figure sweep, a quarter of its instants (group commit seals
    /// one window per drained batch, so even short runs append
    /// thousands of records).
    #[must_use]
    pub fn from_scale(scale: &Scale, seed: u64) -> Self {
        Self {
            n: scale.n_values()[0],
            instants: (scale.instants / 4).max(8),
            shards: 4,
            seed,
        }
    }
}

/// One measured row of the policy sweep.
#[derive(Debug, Clone)]
pub struct DurableCell {
    /// Fsync policy (CLI spelling).
    pub policy: &'static str,
    /// Page stores armed with a [`FileBackend`] across all shards.
    pub stores: usize,
    /// Net update ops applied in the measured phase.
    pub update_ops: u64,
    /// Measured-phase throughput.
    pub update_ops_per_sec: f64,
    /// WAL records appended during the measured phase.
    pub wal_records: u64,
    /// `fsync`s issued during the measured phase.
    pub wal_fsyncs: u64,
    /// On-disk `wal.log` bytes across all stores at shutdown.
    pub wal_bytes: u64,
    /// Log bytes the measured phase appended per update op (the
    /// initial load is excluded; nothing checkpoints, so the growth of
    /// the files is what was appended).
    pub wal_bytes_per_op: f64,
    /// Wall-clock milliseconds to reopen and replay every store.
    pub recovery_ms: f64,
    /// WAL records replayed across all stores during recovery.
    pub replayed_records: u64,
    /// Live pages recovered across all stores.
    pub recovered_pages: u64,
}

/// Runs the full policy sweep (see the module docs). Each policy gets
/// its own temp directory, removed before returning.
#[must_use]
pub fn run_durable_sweep(cfg: &DurableConfig) -> Vec<DurableCell> {
    POLICIES
        .iter()
        .map(|&policy| run_policy(cfg, policy))
        .collect()
}

fn run_policy(cfg: &DurableConfig, policy: FsyncPolicy) -> DurableCell {
    let root = ScratchDir::new(&format!("bench-durable-{}", policy.name()));
    let db = id_hash_stack(cfg.shards, policy);
    // One directory per store: `root/shard<i>/store<j>`.
    let stores_per_shard: Vec<usize> = (0..cfg.shards)
        .map(|shard| arm_file_backends(&db, shard, &root, policy))
        .collect();
    let stores: usize = stores_per_shard.iter().sum();
    let mut sim = load_sim(&db, cfg.n, cfg.seed);

    // Bytes in every `wal.log` under `root`.
    let log_bytes = || -> u64 {
        let mut total = 0;
        for (shard, &n) in stores_per_shard.iter().enumerate() {
            for store in 0..n {
                let wal = root
                    .join(format!("shard{shard}"))
                    .join(format!("store{store}"))
                    .join(WAL_FILE);
                total += std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
            }
        }
        total
    };

    // Measured phase: the WAL deltas below exclude the initial load.
    let loaded_wal_bytes = log_bytes();
    let before: IoTotals = db.io_totals().expect("stats before");
    let start = Instant::now();
    let mut update_ops = 0u64;
    for _ in 0..cfg.instants {
        let batch = step_batch(&mut sim);
        update_ops += batch.len() as u64;
        db.apply(&batch).expect("update batch");
    }
    let elapsed = start.elapsed();
    let delta = db.io_totals().expect("stats after").delta_since(before);
    drop(db);

    let wal_bytes = log_bytes();

    // Recovery: reopen every store the way a restarted server would.
    let mut replayed_records = 0u64;
    let mut recovered_pages = 0u64;
    let recover_start = Instant::now();
    for (shard, &n) in stores_per_shard.iter().enumerate() {
        for store in 0..n {
            let dir = root
                .join(format!("shard{shard}"))
                .join(format!("store{store}"));
            let (_backend, image) = FileBackend::open(&dir, policy).expect("recover store dir");
            replayed_records += image.replayed_records;
            recovered_pages += image.live_pages() as u64;
        }
    }
    let recovery = recover_start.elapsed();

    #[allow(clippy::cast_precision_loss)]
    DurableCell {
        policy: policy.name(),
        stores,
        update_ops,
        update_ops_per_sec: update_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        wal_records: delta.wal_records,
        wal_fsyncs: delta.wal_fsyncs,
        wal_bytes,
        wal_bytes_per_op: (wal_bytes - loaded_wal_bytes) as f64 / (update_ops as f64).max(1.0),
        recovery_ms: recovery.as_secs_f64() * 1e3,
        replayed_records,
        recovered_pages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DurableConfig {
        DurableConfig {
            n: 200,
            instants: 8,
            shards: 2,
            seed: 0xD00D,
        }
    }

    /// One sweep, both contracts: the cells price the WAL correctly,
    /// and no temp directory survives (CI's tmpdir-leak check enforces
    /// the same invariant workspace-wide). A single test owns the sweep
    /// so the leak scan cannot race a sibling's live directories.
    #[test]
    fn sweep_prices_the_wal_times_recovery_and_cleans_up() {
        let cells = run_durable_sweep(&tiny());
        assert_eq!(cells.len(), POLICIES.len());
        let by_policy = |name: &str| {
            cells
                .iter()
                .find(|c| c.policy == name)
                .unwrap_or_else(|| panic!("missing {name} row"))
        };

        let never = by_policy("never");
        assert_eq!(never.wal_records, 0, "Never must not seal windows");
        assert_eq!(never.wal_bytes, 0);
        assert_eq!(never.replayed_records, 0);

        let on_commit = by_policy("on-commit");
        assert!(on_commit.stores > 0);
        assert!(on_commit.update_ops > 0);
        assert!(
            on_commit.wal_records > 0,
            "group commit must append WAL records"
        );
        assert!(on_commit.wal_fsyncs > 0, "sealing issues fsyncs");
        assert!(on_commit.wal_bytes > 0);
        assert!(
            on_commit.replayed_records > 0,
            "recovery must replay the sealed windows"
        );
        assert!(on_commit.recovered_pages > 0);

        let always = by_policy("always");
        assert!(
            always.wal_fsyncs >= on_commit.wal_fsyncs,
            "Always ({}) cannot fsync less than OnCommit ({})",
            always.wal_fsyncs,
            on_commit.wal_fsyncs
        );

        // The log's diet, gated outside the perf ledger. With leaves
        // that hold hundreds of entries and a window that touches a few
        // of them, a commit journals what changed in each page, not the
        // page. (`tiny()` cannot show it: all of its 200 objects move at
        // every instant, so every leaf is rewritten whole.)
        //
        // The ceiling is one tenth of what the last commit that
        // journaled page images only appended on this configuration:
        // 13 394.9 B/op at b046af0, which has no per-op column — the
        // figure was read there by the same two `log_bytes()` readings
        // (after the load, at shutdown) patched into its `run_policy`,
        // with this very `DurableConfig`, by
        //   cargo test --release -p mobidx-bench --lib durable::tests -- --nocapture
        // This tree reads 643.1.
        let diet = run_policy(
            &DurableConfig {
                n: 20_000,
                instants: 4,
                shards: 2,
                seed: 0xD00D,
            },
            FsyncPolicy::OnCommit,
        );
        assert!(
            diet.wal_bytes_per_op <= 1_339.0,
            "the log grew back: {:.1} B per update",
            diet.wal_bytes_per_op
        );

        let marker = format!("-{}-", std::process::id());
        let leaked: Vec<String> = std::fs::read_dir(std::env::temp_dir())
            .expect("list temp dir")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("mobidx-bench-durable-") && n.contains(&marker))
            .collect();
        assert!(leaked.is_empty(), "sweep leaked temp dirs: {leaked:?}");
    }
}
