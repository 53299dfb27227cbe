//! The serving stacks `serve_bench`'s scenarios start from, each
//! assembled in exactly one place: the speed-band dual-B+ stack of the
//! throughput sweeps (built, loaded and warmed), the id-hash dual-B+
//! stack of the durable and diagnostic runs, and the arming of real
//! files behind a shard.

use crate::throughput::ThroughputConfig;
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::SpeedBand;
use mobidx_pager::{FileBackend, FsyncPolicy};
use mobidx_serve::{Batch, IdHashShard, ServeConfig, ShardedDb, SpeedBandShard};
use mobidx_workload::{Simulator1D, WorkloadConfig};
use std::path::Path;

/// Advances the simulator one instant and packages its updates.
pub(crate) fn step_batch(sim: &mut Simulator1D) -> Batch {
    let mut batch = Batch::new();
    for u in sim.step() {
        batch.update(u.new);
    }
    batch
}

/// A seeded simulator of `n` objects, loaded into `db` as one batch.
pub(crate) fn load_sim(db: &ShardedDb<DualBPlusIndex>, n: usize, seed: u64) -> Simulator1D {
    let sim = Simulator1D::new(WorkloadConfig {
        n,
        seed,
        ..WorkloadConfig::default()
    });
    let mut load = Batch::new();
    for m in sim.objects() {
        load.insert(*m);
    }
    db.apply(&load).expect("initial load");
    sim
}

/// The throughput scenarios' stack: `shards` dual-B+ shards by speed
/// band ([`SpeedBandShard`]), each configured with its narrow geometric
/// sub-band, loaded with the seeded population and warmed by
/// `cfg.warm_instants` instants of updates.
pub(crate) fn warm_speed_band_stack(
    cfg: &ThroughputConfig,
    shards: usize,
) -> (ShardedDb<DualBPlusIndex>, Simulator1D) {
    let shard_fn = SpeedBandShard::new(SpeedBand::paper());
    let db = ShardedDb::new(
        ServeConfig {
            shards,
            queue_depth: cfg.queue_depth,
            ..ServeConfig::default()
        },
        Box::new(shard_fn),
        move |i, s| {
            DualBPlusIndex::new(DualBPlusConfig {
                band: shard_fn.index_band(i, s),
                ..DualBPlusConfig::default()
            })
        },
    );
    let mut sim = load_sim(&db, cfg.n, cfg.seed);
    for _ in 0..cfg.warm_instants {
        db.apply(&step_batch(&mut sim)).expect("warm-up updates");
    }
    (db, sim)
}

/// The durable scenarios' stack: `shards` default dual-B+ shards by id
/// hash, group commits sealed under `fsync`.
pub(crate) fn id_hash_stack(shards: usize, fsync: FsyncPolicy) -> ShardedDb<DualBPlusIndex> {
    ShardedDb::new(
        ServeConfig {
            shards,
            queue_depth: 64,
            fsync,
            ..ServeConfig::default()
        },
        Box::new(IdHashShard),
        |_, _| DualBPlusIndex::new(DualBPlusConfig::default()),
    )
}

/// Arms a fresh [`FileBackend`] under `policy` on every store of
/// `shard`, rooted at `root/shard<i>/store<j>`. Returns the shard's
/// store count.
pub(crate) fn arm_file_backends(
    db: &ShardedDb<DualBPlusIndex>,
    shard: usize,
    root: &Path,
    policy: FsyncPolicy,
) -> usize {
    let shard_root = root.join(format!("shard{shard}"));
    db.with_shard(shard, move |index| {
        let mut next = 0usize;
        index.set_backends(&mut || {
            let dir = shard_root.join(format!("store{next}"));
            next += 1;
            let (backend, image) = FileBackend::open(&dir, policy).expect("open fresh store dir");
            assert!(image.is_empty(), "fresh store dir must recover empty");
            Box::new(backend)
        });
        next
    })
    .expect("arm shard with file backends")
}
