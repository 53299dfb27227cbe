//! Induced-fault diagnostic run: the end-to-end proof that the flight
//! recorder + SLO engine + `mobidx-doctor` chain attributes real
//! failures to the right phase.
//!
//! [`run_diagnose`] builds a sharded dual-B+ database and plants two
//! *known* root causes:
//!
//! * the **stall shard** gets a [`mobidx_pager::FileBackend`] on every store under
//!   [`FsyncPolicy::Always`] — each WAL record costs a real `fsync`,
//!   so that shard's per-batch apply latency is fsync-bound by
//!   construction;
//! * the **fault shard** gets a [`FaultStore`] armed mid-run with an
//!   immediate crash point — its next write panics the worker and
//!   poisons the shard.
//!
//! With the telemetry sampler (and its default SLOs) attached, the run
//! drives seeded update batches and traced snapshot queries, springs the
//! fault, waits for the flight recorder's automatic `shard_poison`
//! capture, and finally dumps a manual bundle. The doctor must then
//! rank `shard_poisoned` on the fault shard and `wal_fsync` as the
//! stall shard's top finding — from the bundle alone. The whole run is
//! seeded; `serve_bench --diagnose OUT` writes the bundle for CI to
//! re-diagnose via `mobidx-doctor --check`.

use crate::doctor::{diagnose, DoctorReport};
use crate::stack::{arm_file_backends, id_hash_stack, load_sim, step_batch};
use mobidx_core::QueryRequest;
use mobidx_obs::json::Value;
use mobidx_pager::{FaultPlan, FaultStore, FsyncPolicy, ScratchDir};
use mobidx_serve::{SamplerConfig, ServeError};
use std::time::{Duration, Instant};

/// Sizing of one induced-fault run.
#[derive(Debug, Clone, Copy)]
pub struct DiagnoseConfig {
    /// Initial mobile objects.
    pub n: usize,
    /// Update instants driven while healthy.
    pub instants: usize,
    /// Shards in the serving tier.
    pub shards: usize,
    /// The shard armed with `FsyncPolicy::Always` file stores.
    pub stall_shard: usize,
    /// The shard poisoned mid-run.
    pub fault_shard: usize,
    /// Workload seed.
    pub seed: u64,
    /// Sampler tick.
    pub tick: Duration,
}

impl Default for DiagnoseConfig {
    fn default() -> Self {
        Self {
            n: 600,
            instants: 10,
            shards: 4,
            stall_shard: 0,
            fault_shard: 2,
            seed: 0xD0C7,
            tick: Duration::from_millis(10),
        }
    }
}

/// Everything one run produces.
#[derive(Debug)]
pub struct DiagnoseOutcome {
    /// The final (manual) diagnostic bundle.
    pub bundle: Value,
    /// The doctor's report over that bundle.
    pub report: DoctorReport,
    /// Bundles the flight recorder captured automatically during the
    /// run, by trigger.
    pub auto_triggers: Vec<(String, u64)>,
}

/// Runs the induced-fault scenario (see the module docs).
///
/// # Panics
/// Panics if the serving tier misbehaves outside the planted faults —
/// a failed initial load, a sampler that never ticks, or a flight
/// recorder that never captures the poisoning.
#[must_use]
pub fn run_diagnose(cfg: &DiagnoseConfig) -> DiagnoseOutcome {
    assert!(
        cfg.stall_shard != cfg.fault_shard
            && cfg.stall_shard < cfg.shards
            && cfg.fault_shard < cfg.shards,
        "stall and fault shards must be distinct and in range"
    );
    let root = ScratchDir::new("bench-diagnose");
    let db = id_hash_stack(cfg.shards, FsyncPolicy::Always);

    // Root cause #1: real files + fsync-per-record on the stall shard.
    arm_file_backends(&db, cfg.stall_shard, &root, FsyncPolicy::Always);

    let mut sim = load_sim(&db, cfg.n, cfg.seed);

    let sampler = db.start_sampler(SamplerConfig {
        tick: cfg.tick,
        capacity: 512,
    });

    // Healthy phase: seeded update batches and traced snapshot queries,
    // so the bundle carries real query span trees and the stall shard's
    // WAL counters accumulate fsync-per-record evidence.
    let span_epoch = Instant::now();
    for _ in 0..cfg.instants {
        db.apply(&step_batch(&mut sim))
            .expect("healthy update batch");
        for _ in 0..2 {
            let q = sim.gen_query(150.0, 60.0);
            let _ = db
                .query(&QueryRequest::new(&q).spanned(span_epoch))
                .expect("healthy traced query");
        }
    }
    assert!(
        sampler.wait_for_ticks(3, Duration::from_secs(10)),
        "sampler never warmed up"
    );

    // Root cause #2: spring the crash point on the fault shard — its
    // very next write dies, the worker panics, the shard poisons.
    let fault_seed = cfg.seed;
    db.with_shard(cfg.fault_shard, move |index| {
        let mut store = 0u64;
        index.set_backends(&mut || {
            store += 1;
            Box::new(FaultStore::new(FaultPlan::crash_after_writes(
                fault_seed ^ store,
                1,
            )))
        });
    })
    .expect("arm fault shard");
    match db.apply(&step_batch(&mut sim)) {
        Err(ServeError::ShardFault { shard, .. }) => {
            assert_eq!(shard, cfg.fault_shard, "wrong shard faulted");
        }
        other => panic!("planted fault did not fire: {other:?}"),
    }

    // The flight recorder must notice the poisoning on its own — wait
    // for the automatic `shard_poison` capture (the SLO engine's fault
    // objective fires on the same tick, but poison outranks it).
    let recorder = db.flight_recorder();
    let deadline = Instant::now() + Duration::from_secs(10);
    while recorder.captures() == 0 {
        assert!(
            Instant::now() < deadline,
            "flight recorder never captured the shard poisoning"
        );
        std::thread::sleep(cfg.tick);
    }
    // Let the SLO windows absorb a few more poisoned ticks so the
    // bundle's alert section shows the fault objective firing.
    let ticks_now = sampler.ticks();
    let _ = sampler.wait_for_ticks(ticks_now + 3, Duration::from_secs(10));

    let bundle = db.dump_bundle();
    let auto_triggers = recorder.trigger_counts();
    drop(sampler);
    drop(db);
    drop(root);

    let report = diagnose(&bundle).expect("the dumped bundle must diagnose");
    DiagnoseOutcome {
        bundle,
        report,
        auto_triggers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doctor::Scope;

    /// The acceptance scenario: a seeded run with a WAL-fsync stall on
    /// one shard and a poisoned worker on another must come back from
    /// the doctor with the correct per-shard attribution — poison tops
    /// the ranking, fsync tops the stall shard — and the recorder must
    /// have captured the poisoning automatically.
    #[test]
    fn doctor_attributes_planted_faults_to_the_right_phases() {
        let cfg = DiagnoseConfig::default();
        let out = run_diagnose(&cfg);

        assert!(
            out.auto_triggers
                .iter()
                .any(|(t, n)| t == "shard_poison" && *n >= 1),
            "no automatic shard_poison capture: {:?}",
            out.auto_triggers
        );

        let top = &out.report.findings[0];
        assert_eq!(top.phase, "shard_poisoned", "{}", out.report.render());
        assert_eq!(top.scope, Scope::Shard(cfg.fault_shard));

        let stall_top = out
            .report
            .top_for_shard(cfg.stall_shard)
            .expect("stall shard must have a finding");
        assert_eq!(
            stall_top.phase,
            "wal_fsync",
            "stall shard's top cause:\n{}",
            out.report.render()
        );

        // The bundle's alert section must show the fault objective on
        // the poisoned shard actively firing.
        let active = out
            .bundle
            .get("alerts")
            .and_then(|a| a.get("active"))
            .and_then(Value::as_array)
            .expect("active alert list");
        let fault_alert = format!("shard-fault-s{}", cfg.fault_shard);
        assert!(
            active
                .iter()
                .any(|a| a.get("name").and_then(Value::as_str) == Some(fault_alert.as_str())),
            "fault SLO not active in {}",
            out.bundle.render_pretty()
        );

        // No temp directories survive the run.
        let marker = format!("-{}-", std::process::id());
        let leaked: Vec<String> = std::fs::read_dir(std::env::temp_dir())
            .expect("list temp dir")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("mobidx-bench-diagnose-") && n.contains(&marker))
            .collect();
        assert!(leaked.is_empty(), "run leaked temp dirs: {leaked:?}");
    }
}
