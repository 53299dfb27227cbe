//! End-to-end telemetry tests: the continuous pipeline over a live
//! `ShardedDb` — workload characterization and drift detection fed by
//! real update/query streams, the background sampler harvesting every
//! shard, the JSON exposition round-tripping, and span-drop accounting
//! surfacing in the health snapshot.

use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::method::vp_dual::{VpDualConfig, VpDualIndex};
use mobidx_core::QueryRequest;
use mobidx_obs::json::Value;
use mobidx_obs::telemetry::ProfileConfig;
use mobidx_serve::{Batch, IdHashShard, RepartitionPolicy, SamplerConfig, ServeConfig, ShardedDb};
use mobidx_workload::{Simulator1D, VelocityModel, WorkloadConfig};
use std::time::Duration;

fn build_db(profile_cfg: ProfileConfig, shards: usize) -> ShardedDb<DualBPlusIndex> {
    ShardedDb::with_profile(
        ServeConfig {
            shards,
            queue_depth: 64,
            ..ServeConfig::default()
        },
        profile_cfg,
        Box::new(IdHashShard),
        |_, _| DualBPlusIndex::new(DualBPlusConfig::default()),
    )
}

/// Feeds one simulator step into the database as an update batch.
fn step_into(db: &mut ShardedDb<DualBPlusIndex>, sim: &mut Simulator1D) {
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

/// The acceptance scenario: a uniform-velocity workload never trips the
/// drift detector, and switching to a two-band (highway-rush)
/// distribution mid-run crosses the threshold — raising the gauge and
/// landing a `drift` event in the facade's event log — within a bounded
/// number of windows.
#[test]
fn drift_fires_on_two_band_shift_and_never_on_stationary() {
    const WINDOW: u64 = 800;
    let profile_cfg = ProfileConfig {
        window: WINDOW,
        ..ProfileConfig::default()
    };
    let threshold = profile_cfg.drift_threshold;
    let mut db = build_db(profile_cfg, 2);
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 800,
        updates_per_instant: 100,
        seed: 71,
        ..WorkloadConfig::default()
    });

    // Initial load: exactly one window of uniform velocities becomes the
    // reference distribution (apply() waits on the workers, so profile
    // observation counts are deterministic here).
    let mut batch = Batch::new();
    for m in sim.objects() {
        batch.insert(*m);
    }
    db.apply(&batch).expect("initial load");
    assert_eq!(db.profile().updates(), WINDOW);
    assert_eq!(db.profile().windows_closed(), 1);
    assert!(
        db.profile().reference().is_some(),
        "first window = reference"
    );

    // Stationary phase: several more uniform windows — the detector must
    // stay quiet.
    while db.profile().windows_closed() < 4 {
        step_into(&mut db, &mut sim);
    }
    assert_eq!(
        db.profile().drift_events(),
        0,
        "stationary uniform workload must never fire (l1 = {})",
        db.profile().drift().l1
    );
    assert!(
        db.profile().drift().l1 < 0.25,
        "uniform windows should score low: {}",
        db.profile().drift().l1
    );

    // Rush hour: future velocity draws split into slow/fast bands. The
    // gauge must cross the threshold and a drift event must land in the
    // event log within a bounded number of windows (the first
    // post-switch window can be half-mixed; give it a few).
    sim.set_velocity_model(VelocityModel::TwoBand {
        fast_frac: 0.5,
        band_frac: 0.15,
    });
    let windows_at_switch = db.profile().windows_closed();
    while db.profile().drift_events() == 0 {
        assert!(
            db.profile().windows_closed() < windows_at_switch + 6,
            "no drift event within 6 windows of the distribution switch \
             (l1 = {})",
            db.profile().drift().l1
        );
        step_into(&mut db, &mut sim);
    }
    let drift = db.profile().drift();
    assert!(
        drift.l1 > threshold,
        "drift fired but the score is below threshold: {drift:?}"
    );
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let threshold_millis = (threshold * 1000.0) as u64;
    assert!(
        db.profile().drift_millis() > threshold_millis,
        "gauge did not cross: {}",
        db.profile().drift_millis()
    );
    let drift_span = db
        .recent_spans()
        .into_iter()
        .find(|s| s.name == "drift")
        .expect("a drift event span in the event log");
    assert!(drift_span.attr("l1").is_some());
    assert!(drift_span.attr("emd").is_some());
    assert!(drift_span.attr_u64("window").is_some());

    // The profile also characterizes the mix: all updates, no queries so
    // far, then a query records selectivity.
    assert!(db.profile().update_query_ratio().is_infinite());
    let q = sim.gen_query(150.0, 60.0);
    let _ = db.query(&QueryRequest::new(&q)).expect("query");
    assert_eq!(db.profile().queries(), 1);
    assert!(db.profile().update_query_ratio().is_finite());

    // After rebaselining, the two-band distribution becomes the new
    // normal and the detector goes quiet again.
    db.profile().rebaseline();
    assert_eq!(db.profile().drift_millis(), 0);
    let events_before = db.profile().drift_events();
    for _ in 0..20 {
        step_into(&mut db, &mut sim);
    }
    assert!(db.profile().windows_closed() >= windows_at_switch + 3);
    assert_eq!(
        db.profile().drift_events(),
        events_before,
        "rebaselined detector must not re-fire on the now-stationary mix"
    );
}

/// A completed repartition must `rebaseline()` the workload profile on
/// its own: the layout was just fitted to the drifted distribution, so
/// that distribution is the new reference — the drift gauge resets, the
/// now-stationary two-band mix never re-fires the detector, and the
/// drift subscription stays quiet instead of repartitioning in a loop.
#[test]
fn completed_repartition_rebaselines_the_drift_reference() {
    const WINDOW: u64 = 800;
    let db: ShardedDb<VpDualIndex> = ShardedDb::with_profile(
        ServeConfig {
            shards: 2,
            queue_depth: 64,
            ..ServeConfig::default()
        },
        ProfileConfig {
            window: WINDOW,
            ..ProfileConfig::default()
        },
        Box::new(IdHashShard),
        |_, _| VpDualIndex::new(VpDualConfig::default()),
    );
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 800,
        updates_per_instant: 100,
        seed: 71,
        ..WorkloadConfig::default()
    });
    let mut batch = Batch::new();
    for m in sim.objects() {
        batch.insert(*m);
    }
    db.apply(&batch).expect("initial load");

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
        let updates = sim.step();
        let mut batch = Batch::new();
        for u in updates {
            batch.update(u.new);
        }
        db.apply(&batch).expect("apply step batch");
    }

    let report = db
        .maybe_repartition(&RepartitionPolicy::default())
        .expect("repartition pass")
        .expect("pending drift event must trigger a pass");
    assert!(report.shards_changed >= 1);

    // The pass rebaselined the profile itself: gauge reset, no manual
    // `rebaseline()` call anywhere in this test.
    assert_eq!(db.profile().drift_millis(), 0, "gauge must reset");
    let events_before = db.profile().drift_events();
    let windows_before = db.profile().windows_closed();
    loop {
        let updates = sim.step();
        let mut batch = Batch::new();
        for u in updates {
            batch.update(u.new);
        }
        db.apply(&batch).expect("apply step batch");
        if db.profile().windows_closed() >= windows_before + 4 {
            break;
        }
    }
    assert_eq!(
        db.profile().drift_events(),
        events_before,
        "the rebaselined detector must not re-fire on the handled mix"
    );
    assert_eq!(
        db.maybe_repartition(&RepartitionPolicy::default())
            .expect("quiet subscription"),
        None,
        "the handled drift must not repartition in a loop"
    );
}

/// The background sampler harvests at least one sample per shard into
/// per-shard and aggregate series, the JSON report round-trips with
/// every series named, and dropping the sampler leaves the database
/// serving.
#[test]
fn sampler_harvests_every_shard_and_expositions_round_trip() {
    const SHARDS: usize = 3;
    let db = build_db(ProfileConfig::default(), SHARDS);
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 600,
        updates_per_instant: 60,
        seed: 5,
        ..WorkloadConfig::default()
    });
    let mut batch = Batch::new();
    for m in sim.objects() {
        batch.insert(*m);
    }
    db.apply(&batch).expect("load");
    for _ in 0..5 {
        let q = sim.gen_query(150.0, 60.0);
        let _ = db.query(&QueryRequest::new(&q)).expect("query");
    }

    let sampler = db.start_sampler(SamplerConfig {
        tick: Duration::from_millis(5),
        capacity: 128,
    });
    assert!(
        sampler.wait_for_ticks(3, Duration::from_secs(10)),
        "sampler never completed 3 ticks"
    );
    assert_eq!(sampler.shards(), SHARDS);

    for shard in 0..SHARDS {
        for base in [
            "queue_depth",
            "query_p50_us",
            "query_p95_us",
            "query_p99_us",
            "io_reads",
            "io_writes",
            "applied_ops",
            "queries",
            "poisoned",
        ] {
            let series = sampler.series_for(base, shard);
            assert!(
                series.recorded() >= 1,
                "no samples in {base} for shard {shard}"
            );
        }
    }
    let telemetry = sampler.telemetry();
    for aggregate in [
        "queue_depth_total",
        "io_reads_total",
        "spans_recorded",
        "spans_dropped",
        "updates_observed",
        "drift_l1_millis",
        "drift_events",
        "readpool_depth",
        "readpool_submitted",
        "readpool_stolen",
        "snapshot_age_ticks",
    ] {
        let series = telemetry.get(aggregate).expect(aggregate);
        assert!(series.recorded() >= 1, "no samples in {aggregate}");
    }
    // The default SLO engine evaluates every tick: one burn-rate and
    // one alert gauge per objective (two per shard plus the staleness
    // SLO), and the anomaly detector's z-score over the queue depth.
    for shard in 0..SHARDS {
        for slo in [
            format!("slo_burn_rate{{slo=\"query-p99-s{shard}\"}}"),
            format!("alert_active{{slo=\"query-p99-s{shard}\"}}"),
            format!("slo_burn_rate{{slo=\"shard-fault-s{shard}\"}}"),
            format!("alert_active{{slo=\"shard-fault-s{shard}\"}}"),
        ] {
            let series = telemetry.get(&slo).expect(&slo);
            assert!(series.recorded() >= 1, "no samples in {slo}");
        }
    }
    assert!(
        telemetry
            .get("slo_burn_rate{slo=\"snapshot-age\"}")
            .expect("staleness SLO series")
            .recorded()
            >= 1
    );
    assert!(
        telemetry
            .get("anomaly_z{series=\"queue_depth_total\"}")
            .expect("anomaly z series")
            .recorded()
            >= 1
    );
    // A healthy stationary run must not page anyone.
    assert_eq!(sampler.active_alerts().len(), 0, "spurious alert");
    assert_eq!(sampler.slo_engine().alerts_raised(), 0);
    // Every query latency sample is a plausible microsecond count.
    let p95 = sampler.series_for("query_p95_us", 0);
    assert!(p95.samples().iter().all(|s| s.value >= 0.0));

    // JSON report round-trips and carries the samples.
    let report = sampler.report_json();
    let doc = Value::parse(&report.render_pretty()).expect("report parses");
    assert_eq!(
        doc.get("kind").and_then(Value::as_str),
        Some("mobidx-telemetry")
    );
    assert_eq!(
        doc.get("shards").and_then(Value::as_u64),
        Some(SHARDS as u64)
    );
    let series = doc
        .get("telemetry")
        .and_then(|t| t.get("series"))
        .and_then(Value::as_array)
        .expect("series array");
    assert!(!series.is_empty());
    // The report also carries the SLO engine's state: all default
    // objectives (latency + fault per shard, plus staleness), none
    // active.
    let alerts = doc.get("alerts").expect("alerts section");
    let slos = alerts
        .get("slos")
        .and_then(Value::as_array)
        .expect("slos array");
    assert_eq!(slos.len(), 2 * SHARDS + 1);
    assert_eq!(
        alerts
            .get("active")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(0)
    );
    for s in series {
        let samples = s.get("samples").and_then(Value::as_array).expect("samples");
        for pair in samples {
            let pair = pair.as_array().expect("[t, v] pair");
            assert_eq!(pair.len(), 2);
            assert!(pair[0].as_u64().is_some(), "t_nanos is an integer");
        }
    }

    // The report names every series with its labels: one labelled
    // queue-depth series per shard, one burn-rate and one alert gauge
    // per objective (none firing), and the read-pool and anomaly series.
    fn name_of(s: &Value) -> &str {
        s.get("name").and_then(Value::as_str).expect("name")
    }
    let depth: Vec<&str> = series
        .iter()
        .map(name_of)
        .filter(|n| n.starts_with("queue_depth{"))
        .collect();
    let want: Vec<String> = (0..SHARDS)
        .map(|shard| format!("queue_depth{{shard=\"{shard}\"}}"))
        .collect();
    assert_eq!(depth, want, "one labelled series per shard");
    let slo_labels: Vec<&str> = series
        .iter()
        .map(name_of)
        .filter_map(|n| n.strip_prefix("slo_burn_rate{slo=\""))
        .filter_map(|n| n.strip_suffix("\"}"))
        .collect();
    assert_eq!(slo_labels.len(), 2 * SHARDS + 1, "{slo_labels:?}");
    assert!(slo_labels.contains(&"query-p99-s0"));
    assert!(slo_labels.contains(&"shard-fault-s2"));
    assert!(slo_labels.contains(&"snapshot-age"));
    let active: Vec<&Value> = series
        .iter()
        .filter(|s| name_of(s).starts_with("alert_active{slo=\""))
        .collect();
    assert_eq!(active.len(), 2 * SHARDS + 1);
    assert!(
        active.iter().all(|s| {
            let samples = s.get("samples").and_then(Value::as_array).expect("samples");
            let latest = samples.last().and_then(Value::as_array).expect("a sample");
            latest[1].as_f64() == Some(0.0)
        }),
        "no alert may fire on a stationary run"
    );
    for name in [
        "readpool_depth",
        "readpool_submitted",
        "anomaly_z{series=\"queue_depth_total\"}",
    ] {
        assert!(series.iter().any(|s| name_of(s) == name), "missing {name}");
    }

    // The sampler stops cleanly and the database keeps serving.
    let ticks = sampler.ticks();
    drop(sampler);
    let q = sim.gen_query(150.0, 60.0);
    let _ = db
        .query(&QueryRequest::new(&q))
        .expect("query after sampler drop");
    assert!(ticks >= 3);
}

/// `EventLog` overwrites silently once full; the serve-level health
/// snapshot must make that loss visible (satellite: surface
/// `EventLog::dropped()` in `ShardedDb::health()`).
#[test]
fn health_surfaces_span_drop_accounting() {
    let db = build_db(ProfileConfig::default(), 2);
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 200,
        updates_per_instant: 20,
        seed: 13,
        ..WorkloadConfig::default()
    });
    let mut batch = Batch::new();
    for m in sim.objects() {
        batch.insert(*m);
    }
    db.apply(&batch).expect("load");

    let before = db.health();
    assert_eq!(before.spans_recorded, 0);
    assert_eq!(before.spans_dropped, 0);

    // Push more traced queries than the event log retains (capacity
    // 256) so the ring wraps.
    for _ in 0..300 {
        let q = sim.gen_query(150.0, 60.0);
        let _ = db
            .query(&QueryRequest::new(&q).spanned(std::time::Instant::now()))
            .expect("traced query");
    }
    let after = db.health();
    assert_eq!(after.spans_recorded, 300);
    assert_eq!(after.spans_dropped, 300 - 256);
    assert_eq!(db.event_log().dropped(), after.spans_dropped);

    let doc = Value::parse(&after.to_json().render()).expect("health JSON");
    assert_eq!(doc.get("spans_recorded").and_then(Value::as_u64), Some(300));
    assert_eq!(
        doc.get("spans_dropped").and_then(Value::as_u64),
        Some(300 - 256)
    );
}
