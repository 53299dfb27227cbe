//! End-to-end online-repartitioning tests: a live `ShardedDb` over
//! `VpDualIndex` answering `WorkloadProfile` drift events by replanning
//! band boundaries and migrating records incrementally — exact answers
//! throughout, progress counters surfaced, the drift reference
//! rebaselined, and the background scheduler starting and stopping
//! cleanly.

use mobidx_core::method::vp_dual::{VpDualConfig, VpDualIndex};
use mobidx_core::{merge_sorted_ids, Index1D, QueryRequest};
use mobidx_obs::telemetry::ProfileConfig;
use mobidx_serve::{
    start_repartitioner, Batch, IdHashShard, RepartitionConfig, RepartitionPolicy, ServeConfig,
    ShardedDb,
};
use mobidx_workload::{MorQuery1D, Simulator1D, VelocityModel, WorkloadConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WINDOW: u64 = 800;
const SHARDS: usize = 2;

fn build_db() -> ShardedDb<VpDualIndex> {
    ShardedDb::with_profile(
        ServeConfig {
            shards: SHARDS,
            queue_depth: 64,
            ..ServeConfig::default()
        },
        ProfileConfig {
            window: WINDOW,
            ..ProfileConfig::default()
        },
        Box::new(IdHashShard),
        |_, _| VpDualIndex::new(VpDualConfig::default()),
    )
}

/// The live indexes' answer: every shard's index searched on its worker
/// through its pager, the lists merged.
fn live_answer(db: &ShardedDb<VpDualIndex>, q: MorQuery1D) -> Vec<u64> {
    let lists: Vec<Vec<u64>> = (0..SHARDS)
        .map(|shard| {
            db.with_shard(shard, move |index| {
                let mut buf = Vec::new();
                index.search(&q, &mut buf);
                buf
            })
            .expect("live search")
        })
        .collect();
    let mut ids = Vec::new();
    merge_sorted_ids(&lists, &mut ids);
    ids
}

fn sim() -> Simulator1D {
    Simulator1D::new(WorkloadConfig {
        n: 800,
        updates_per_instant: 100,
        seed: 71,
        ..WorkloadConfig::default()
    })
}

fn load(db: &ShardedDb<VpDualIndex>, sim: &Simulator1D) {
    let mut batch = Batch::new();
    for m in sim.objects() {
        batch.insert(*m);
    }
    db.apply(&batch).expect("initial load");
}

fn step_into(db: &ShardedDb<VpDualIndex>, sim: &mut Simulator1D) {
    let updates = sim.step();
    if updates.is_empty() {
        return;
    }
    let mut batch = Batch::new();
    for u in updates {
        batch.update(u.new);
    }
    db.apply(&batch).expect("apply step batch");
}

/// Drives the two-band switch until the profile raises a drift event.
fn drive_drift(db: &ShardedDb<VpDualIndex>, sim: &mut Simulator1D) {
    sim.set_velocity_model(VelocityModel::TwoBand {
        fast_frac: 0.5,
        band_frac: 0.15,
    });
    let at_switch = db.profile().windows_closed();
    while db.profile().drift_events() == 0 {
        assert!(
            db.profile().windows_closed() < at_switch + 6,
            "no drift event within 6 windows of the switch"
        );
        step_into(db, sim);
    }
}

/// The acceptance path: a drift event makes `maybe_repartition` replan
/// the boundaries and migrate every shard, answers stay exact on both
/// read paths, every progress counter advances, and the handled drift
/// does not re-trigger the subscription.
#[test]
fn drift_event_triggers_exact_online_repartition() {
    let db = build_db();
    let mut sim = sim();
    load(&db, &sim);
    let policy = RepartitionPolicy::default();

    // No drift yet: the subscription has nothing to do and must not
    // spend a pass on it.
    assert_eq!(db.maybe_repartition(&policy).expect("no-op"), None);
    assert_eq!(db.repartition_stats().attempts(), 0);

    let initial_edges = db
        .with_shard(0, |idx| idx.band_edges().to_vec())
        .expect("edges");

    drive_drift(&db, &mut sim);

    // Reference answers through the live indexes, pre-migration.
    let queries: Vec<MorQuery1D> = (0..20).map(|_| sim.gen_query(150.0, 60.0)).collect();
    let before: Vec<Vec<u64>> = queries.iter().map(|&q| live_answer(&db, q)).collect();

    let report = db
        .maybe_repartition(&policy)
        .expect("repartition pass")
        .expect("pending drift event must trigger a pass");
    assert!(report.shards_changed >= 1, "{report:?}");
    assert!(report.moved > 0, "{report:?}");
    assert!(report.edges.len() >= 3, "at least two bands: {report:?}");
    assert_ne!(report.edges, initial_edges, "boundaries must move");

    // Every shard now carries the planned layout.
    for shard in 0..SHARDS {
        let edges = db
            .with_shard(shard, |idx| idx.band_edges().to_vec())
            .expect("edges");
        assert_eq!(edges, report.edges, "shard {shard} layout");
        assert_eq!(
            db.repartition_stats().bands(shard),
            (report.edges.len() - 1) as u64
        );
    }

    // Counters and the event log surface the pass.
    let stats = db.repartition_stats();
    assert_eq!(stats.attempts(), 1);
    assert_eq!(stats.completed(), 1);
    assert_eq!(stats.moved_total(), report.moved as u64);
    let span = db
        .recent_spans()
        .into_iter()
        .find(|s| s.name == "repartition")
        .expect("repartition span in the event log");
    assert_eq!(span.attr_u64("moved"), Some(report.moved as u64));

    // Exactness: the same queries answer identically after migration —
    // from the live indexes and on the republished snapshot path.
    for (q, expect) in queries.iter().zip(&before) {
        let live = live_answer(&db, *q);
        assert_eq!(&live, expect, "live answers must survive migration");
        let snap = db.query(&QueryRequest::new(q)).expect("snapshot").ids;
        assert_eq!(
            &snap, expect,
            "published snapshot must serve the new layout"
        );
    }

    // The handled drift is rebaselined away: the gauge is reset and the
    // subscription goes quiet.
    assert_eq!(db.profile().drift_millis(), 0);
    assert_eq!(db.maybe_repartition(&policy).expect("quiet"), None);
    assert_eq!(db.repartition_stats().attempts(), 1);
}

/// A repartition step retires the migrated shard's view instead of
/// publishing one shard's half of a snapshot: after a write-only stretch
/// (nothing published at all) and again with a snapshot published, the
/// next read gets a whole snapshot, frozen from the new layout, at the
/// commit epoch the writes left — a repartition moves records between
/// bands, it commits nothing.
#[test]
fn a_repartition_leaves_the_next_read_a_whole_snapshot() {
    let db = build_db();
    let mut sim = sim();
    load(&db, &sim);
    drive_drift(&db, &mut sim);
    let queries: Vec<MorQuery1D> = (0..10).map(|_| sim.gen_query(150.0, 60.0)).collect();
    // Every snapshot answer is exact and stamped with the commit epoch.
    let check_reads = |commits: u64| {
        assert_eq!(db.snapshot_epoch(), commits);
        let objects = db.objects();
        for q in &queries {
            let out = db.query(&QueryRequest::new(q)).expect("snapshot read");
            assert_eq!(out.epoch, Some(commits));
            assert_eq!(out.ids, mobidx_workload::brute_force_1d(&objects, q));
        }
    };
    let built = || -> u64 { db.health().shards.iter().map(|s| s.views_built).sum() };

    // Write-only so far: no view exists, and the pass builds none.
    let commits = db.snapshot_epoch();
    assert_eq!(built(), 0);
    let first = db
        .repartition_now(&RepartitionPolicy::default())
        .expect("first pass");
    assert!(first.shards_changed >= 1, "{first:?}");
    assert_eq!(built(), 0);
    check_reads(commits);
    assert_eq!(built(), SHARDS as u64, "one demand freeze a shard");

    // Read-active: a snapshot is published when the next pass starts,
    // and the read after it freezes exactly the shards that moved.
    let pinned = db.read_view().expect("published");
    let mut slow = Batch::new();
    for m in db.objects().iter().filter(|m| m.id < 600) {
        let v = m.v.signum() * 0.2;
        slow.update(mobidx_core::Motion1D { v, ..*m });
    }
    db.apply(&slow).expect("tilt the velocity histogram");
    let before = built();
    let second = db
        .repartition_now(&RepartitionPolicy::default())
        .expect("second pass");
    assert!(second.shards_changed >= 1, "{second:?}");
    check_reads(commits + 1);
    assert_eq!(built() - before, second.shards_changed as u64);
    assert_eq!(pinned.epoch(), commits, "a held view is untouched");
}

/// A layout already within tolerance is left untouched: the second
/// forced pass changes no shard, moves nothing, and counts as skipped.
#[test]
fn repartition_within_tolerance_is_skipped() {
    let db = build_db();
    let mut sim = sim();
    load(&db, &sim);
    drive_drift(&db, &mut sim);

    let first = db
        .repartition_now(&RepartitionPolicy::default())
        .expect("first pass");
    let second = db
        .repartition_now(&RepartitionPolicy::default())
        .expect("second pass");
    assert_eq!(second.shards_changed, 0, "{second:?}");
    assert_eq!(second.moved, 0, "{second:?}");
    assert_eq!(second.edges, first.edges, "plan is stable");
    let stats = db.repartition_stats();
    assert_eq!(stats.attempts(), 2);
    assert_eq!(stats.skipped(), 1);
}

/// The background scheduler answers a drift event on its own, keeps the
/// band gauges fresh, and reports its pass count on `stop()` — with the
/// database still serving afterwards.
#[test]
fn background_repartitioner_answers_drift_and_stops_cleanly() {
    let db = Arc::new(build_db());
    let mut sim = sim();
    load(&db, &sim);
    let scheduler = start_repartitioner(
        &db,
        RepartitionConfig {
            poll: Duration::from_millis(5),
            ..RepartitionConfig::default()
        },
    );

    drive_drift(&db, &mut sim);
    let deadline = Instant::now() + Duration::from_secs(20);
    while db.repartition_stats().completed() == 0 {
        assert!(
            Instant::now() < deadline,
            "scheduler never answered the drift event"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    for shard in 0..SHARDS {
        assert!(
            db.repartition_stats().bands(shard) >= 2,
            "band gauge for shard {shard} never refreshed"
        );
    }
    assert!(scheduler.stop() >= 1, "at least one pass must be counted");

    let q = sim.gen_query(150.0, 60.0);
    let _ = db
        .query(&QueryRequest::new(&q))
        .expect("query after scheduler stop");
}
