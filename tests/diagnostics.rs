//! End-to-end diagnostics tests: the flight recorder, SLO engine, and
//! `mobidx-doctor` working as one chain over a live `ShardedDb` —
//! manual bundle dumps without a sampler, the bounded bundle ring,
//! SLO-breach-triggered captures, and the doctor re-deriving the same
//! report from serialized bundle text alone.

use mobidx_bench::diagnose::{run_diagnose, DiagnoseConfig};
use mobidx_bench::doctor::{diagnose, validate_bundle, Scope};
use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::QueryRequest;
use mobidx_obs::json::Value;
use mobidx_obs::slo::{SloEngine, SloSpec};
use mobidx_obs::telemetry::ProfileConfig;
use mobidx_serve::{Batch, IdHashShard, SamplerConfig, ServeConfig, ShardedDb};
use mobidx_workload::{Simulator1D, WorkloadConfig};
use std::time::Duration;

fn build_db(shards: usize) -> ShardedDb<DualBPlusIndex> {
    ShardedDb::with_profile(
        ServeConfig {
            shards,
            queue_depth: 64,
            ..ServeConfig::default()
        },
        ProfileConfig::default(),
        Box::new(IdHashShard),
        |_, _| DualBPlusIndex::new(DualBPlusConfig::default()),
    )
}

/// A manual bundle works with no sampler attached: the telemetry and
/// alerts sections are null, everything else is live, and the bundle
/// still validates (the doctor just has less to attribute).
#[test]
fn manual_dump_needs_no_sampler() {
    let db = build_db(2);
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 300,
        updates_per_instant: 30,
        seed: 41,
        ..WorkloadConfig::default()
    });
    let mut batch = Batch::new();
    for m in sim.objects() {
        batch.insert(*m);
    }
    db.apply(&batch).expect("load");
    let q = sim.gen_query(150.0, 60.0);
    let _ = db.query(&QueryRequest::new(&q)).expect("query");

    let bundle = db.dump_bundle();
    assert_eq!(
        bundle.get("trigger").and_then(Value::as_str),
        Some("manual")
    );
    assert!(matches!(bundle.get("telemetry"), Some(Value::Null)));
    assert!(matches!(bundle.get("alerts"), Some(Value::Null)));
    validate_bundle(&bundle).expect("sampler-less bundle is well-formed");
    let report = diagnose(&bundle).expect("diagnosable");
    assert!(
        !report.findings.iter().any(|f| f.phase == "shard_poisoned"),
        "healthy database must not report poison"
    );
    assert_eq!(db.flight_recorder().captures(), 1);
}

/// The recorder's ring is bounded: capture more bundles than
/// `max_bundles` and only the most recent survive, sequence numbers
/// intact.
#[test]
fn bundle_ring_is_bounded() {
    let db = build_db(1);
    let mut batch = Batch::new();
    let sim = Simulator1D::new(WorkloadConfig {
        n: 50,
        seed: 9,
        ..WorkloadConfig::default()
    });
    for m in sim.objects() {
        batch.insert(*m);
    }
    db.apply(&batch).expect("load");

    for _ in 0..7 {
        let _ = db.dump_bundle();
    }
    let recorder = db.flight_recorder();
    assert_eq!(recorder.captures(), 7);
    let bundles = recorder.bundles();
    assert_eq!(bundles.len(), 4, "default ring keeps 4");
    let seqs: Vec<u64> = bundles
        .iter()
        .map(|b| b.get("seq").and_then(Value::as_u64).expect("seq"))
        .collect();
    assert_eq!(seqs, vec![4, 5, 6, 7], "oldest evicted first");
    assert_eq!(
        recorder
            .last_bundle()
            .and_then(|b| b.get("seq").and_then(Value::as_u64)),
        Some(7)
    );
    assert_eq!(recorder.trigger_counts(), vec![("manual".to_owned(), 7)]);
}

/// An SLO breach alone (no poison, no drift) triggers an automatic
/// capture: a custom engine with an impossible latency objective fires
/// on the first evaluated tick, and the recorder's bundle says
/// `slo_breach`.
#[test]
fn slo_breach_triggers_automatic_capture() {
    let db = build_db(2);
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 400,
        updates_per_instant: 40,
        seed: 23,
        ..WorkloadConfig::default()
    });
    let mut batch = Batch::new();
    for m in sim.objects() {
        batch.insert(*m);
    }
    db.apply(&batch).expect("load");

    // Any nonzero p99 violates a 0.0µs bound; min_samples on the fault
    // constructor is 1, so the latency spec is tightened by hand.
    let engine = SloEngine::new().slo(SloSpec {
        min_samples: 1,
        burn_threshold: 1.0,
        ..SloSpec::latency("impossible", "query_p99_us{shard=\"0\"}", 0.0)
    });
    let sampler = db.start_sampler_with(
        SamplerConfig {
            tick: Duration::from_millis(5),
            capacity: 64,
        },
        engine,
    );
    // Keep querying shard 0 until its p99 series carries nonzero
    // samples and the breach lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while db.flight_recorder().captures() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no slo_breach capture within 10s"
        );
        let q = sim.gen_query(150.0, 60.0);
        let _ = db.query(&QueryRequest::new(&q)).expect("query");
        std::thread::sleep(Duration::from_millis(2));
    }
    let bundle = db.flight_recorder().last_bundle().expect("captured bundle");
    assert_eq!(
        bundle.get("trigger").and_then(Value::as_str),
        Some("slo_breach")
    );
    assert!(sampler.slo_engine().alerts_raised() >= 1);
    assert_eq!(
        sampler.active_alerts()[0].name,
        "impossible",
        "the breach names its SLO"
    );
    validate_bundle(&bundle).expect("auto-captured bundle is well-formed");
}

/// The acceptance chain end to end, over serialized text: run the
/// induced-fault scenario, write the bundle out as JSON, parse it back,
/// and require the doctor to (a) reproduce the identical report and
/// (b) attribute each planted fault to the right shard and phase.
#[test]
fn doctor_report_survives_serialization_and_names_both_causes() {
    let cfg = DiagnoseConfig {
        seed: 0xE2E,
        ..DiagnoseConfig::default()
    };
    let out = run_diagnose(&cfg);

    // Round-trip: bundle → text → parsed → identical report.
    let text = out.bundle.render_pretty();
    let reparsed = Value::parse(&text).expect("bundle text parses");
    let report2 = diagnose(&reparsed).expect("reparsed bundle diagnoses");
    assert_eq!(out.report.render(), report2.render());
    assert_eq!(
        out.report.to_json().render_pretty(),
        report2.to_json().render_pretty()
    );

    // Attribution: poison on the fault shard tops the ranking,
    // wal_fsync tops the stall shard.
    assert_eq!(report2.findings[0].phase, "shard_poisoned");
    assert_eq!(report2.findings[0].scope, Scope::Shard(cfg.fault_shard));
    assert_eq!(
        report2
            .top_for_shard(cfg.stall_shard)
            .expect("stall finding")
            .phase,
        "wal_fsync"
    );
    // The recorder noticed the poisoning without being asked.
    assert!(out.auto_triggers.iter().any(|(t, _)| t == "shard_poison"));
}
