//! The worker's group-commit drain doubles as a durability group
//! commit: with durable backends armed, every drained apply group
//! seals one WAL commit window per store — and with
//! [`FsyncPolicy::Never`] the workers skip sealing entirely.

use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::{Motion1D, QueryRequest};
use mobidx_pager::{FileBackend, FsyncPolicy, ScratchDir, WAL_FILE};
use mobidx_serve::{Batch, IdHashShard, SamplerConfig, ServeConfig, ShardedDb};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn small_index() -> DualBPlusIndex {
    DualBPlusIndex::new(DualBPlusConfig {
        c: 2,
        ..DualBPlusConfig::default()
    })
}

/// Arms a [`FileBackend`] on every store of shard 0, each in its own
/// subdirectory of `root`. Returns the number of stores armed.
fn arm_durable(db: &ShardedDb<DualBPlusIndex>, root: &Path) -> usize {
    let root = root.to_path_buf();
    db.with_shard(0, move |index| {
        let counter = Arc::new(AtomicUsize::new(0));
        index.set_backends(&mut || {
            let store = counter.fetch_add(1, Ordering::SeqCst);
            let dir = root.join(format!("store{store}"));
            let (backend, image) =
                FileBackend::open(&dir, FsyncPolicy::OnCommit).expect("open store dir");
            assert!(image.is_empty(), "fresh dir must recover empty");
            Box::new(backend)
        });
        counter.load(Ordering::SeqCst)
    })
    .expect("arm shard 0")
}

fn motions(n: u64) -> Batch {
    let mut batch = Batch::new();
    for i in 0..n {
        batch.insert(Motion1D {
            id: i,
            t0: 0.0,
            #[allow(clippy::cast_precision_loss)]
            y0: (i as f64) % 1000.0,
            v: if i % 2 == 0 { 1.0 } else { -1.0 },
        });
    }
    batch
}

#[test]
fn apply_group_seals_wal_windows_on_durable_shards() {
    let root = ScratchDir::new("serve-commit");
    let db = ShardedDb::new(
        ServeConfig {
            shards: 1,
            queue_depth: 8,
            ..ServeConfig::default()
        },
        Box::new(IdHashShard),
        |_, _| small_index(),
    );
    let stores = arm_durable(&db, &root);
    assert!(stores >= 3, "dual-B+ has a static tree and c tree pairs");
    db.apply(&motions(64)).unwrap();
    // Every armed B+-tree store got its window sealed by the worker's
    // drain (the interval indices are absent at c=2 without
    // subterrain maintenance, so every store here is a tree).
    let mut sealed = 0;
    for store in 0..stores {
        let wal = root.join(format!("store{store}")).join(WAL_FILE);
        let len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        if len > 0 {
            sealed += 1;
        }
    }
    assert!(
        sealed >= 1,
        "at least the populated trees must have non-empty logs"
    );
    // The static tree (store 0) holds nothing, but its window was
    // still sealed — a commit record alone is a valid (if empty)
    // window, proving commit_group visited every store.
    let static_wal = root.join("store0").join(WAL_FILE);
    assert!(
        std::fs::metadata(&static_wal).unwrap().len() > 0,
        "even an empty tree's window is sealed with a commit record"
    );
    drop(db);
}

#[test]
fn fsync_never_skips_sealing() {
    let root = ScratchDir::new("serve-nosync");
    let db = ShardedDb::new(
        ServeConfig {
            shards: 1,
            queue_depth: 8,
            fsync: FsyncPolicy::Never,
            ..ServeConfig::default()
        },
        Box::new(IdHashShard),
        |_, _| small_index(),
    );
    let stores = arm_durable(&db, &root);
    db.apply(&motions(64)).unwrap();
    for store in 0..stores {
        let wal = root.join(format!("store{store}")).join(WAL_FILE);
        let len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        assert_eq!(len, 0, "store{store}: Never policy must not seal windows");
    }
    drop(db);
}

/// The continuous-telemetry sampler surfaces the WAL counters: with a
/// durable shard committing windows, the per-shard `wal_records` and
/// `wal_fsyncs` series record positive deltas, and the aggregate
/// `_total` series exist in the registry.
#[test]
fn sampler_publishes_wal_counters_for_durable_shards() {
    let root = ScratchDir::new("serve-telemetry");
    let db = ShardedDb::new(
        ServeConfig {
            shards: 1,
            queue_depth: 8,
            ..ServeConfig::default()
        },
        Box::new(IdHashShard),
        |_, _| small_index(),
    );
    arm_durable(&db, &root);
    let sampler = db.start_sampler(SamplerConfig {
        tick: Duration::from_millis(5),
        capacity: 256,
    });
    db.apply(&motions(64)).unwrap();
    assert!(
        sampler.wait_for_ticks(sampler.ticks() + 3, Duration::from_secs(10)),
        "sampler stalled"
    );
    let records = sampler.series_for("wal_records", 0);
    assert!(
        !records.is_empty(),
        "wal_records{{shard=\"0\"}} never sampled"
    );
    let appended: f64 = records.samples().iter().map(|s| s.value).sum();
    assert!(
        appended > 0.0,
        "a sealed commit window must surface as a wal_records delta"
    );
    let fsyncs: f64 = sampler
        .series_for("wal_fsyncs", 0)
        .samples()
        .iter()
        .map(|s| s.value)
        .sum();
    assert!(fsyncs > 0.0, "OnCommit sealing must surface fsyncs");
    assert!(
        sampler.telemetry().get("wal_records_total").is_some(),
        "aggregate series missing"
    );
    drop(sampler);
    drop(db);
}

#[test]
fn queries_match_after_durable_commits() {
    let root = ScratchDir::new("serve-query");
    let db = ShardedDb::new(
        ServeConfig {
            shards: 1,
            queue_depth: 8,
            ..ServeConfig::default()
        },
        Box::new(IdHashShard),
        |_, _| small_index(),
    );
    arm_durable(&db, &root);
    db.apply(&motions(100)).unwrap();
    let q = mobidx_core::MorQuery1D {
        y1: 0.0,
        y2: 1000.0,
        t1: 0.0,
        t2: 0.0,
    };
    let ids = db.query(&QueryRequest::new(&q)).unwrap();
    assert_eq!(ids.len(), 100, "durable commits must not perturb answers");
    drop(db);
}
