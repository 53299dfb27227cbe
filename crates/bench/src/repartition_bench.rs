//! Drift → online-repartition end-to-end benchmark (the acceptance
//! scenario for velocity-partitioned serving).
//!
//! The run replays the telemetry suite's two-band drift recipe against a
//! live [`ShardedDb<VpDualIndex>`] and measures cold query I/O — the
//! paper's §5 cost metric, counted through the pager so the result is
//! deterministic — at four points:
//!
//! 1. **uniform** — the freshly loaded uniform-velocity population on
//!    the default band layout;
//! 2. **drifted** — after the velocity distribution switches to the
//!    two-band (highway-rush) mix and the workload profile raises a
//!    drift event: the old layout now splits both rush bands across
//!    partitions, so per-query enlargement (and with it leaf I/O)
//!    degrades;
//! 3. **repartitioned** — after [`ShardedDb::maybe_repartition`] answers
//!    the drift event by replanning boundaries from the live velocity
//!    histogram and migrating every shard incrementally;
//! 4. **fresh** — a brand-new database built from scratch over the very
//!    same final population with [`VpDualIndex::with_edges`] pinned to
//!    the planned boundaries: the best the online path could possibly
//!    reach.
//!
//! The gate is `repartitioned / fresh ≤ budget` (default 1.10): online
//! repartitioning must recover query I/O to within 10 % of a
//! from-scratch rebuild. Phases 2–4 share one seeded query set and the
//! identical population, so the ratio is exact, not statistical. Both
//! arms run with root pinning off — at this scale the pinned roots
//! would absorb nearly every cold read and hide the band layout the
//! scenario exists to compare.

use mobidx_core::method::vp_dual::{VpDualConfig, VpDualIndex};
use mobidx_core::Index1D;
use mobidx_obs::json::Value;
use mobidx_obs::telemetry::ProfileConfig;
use mobidx_serve::{Batch, IdHashShard, RepartitionPolicy, SamplerConfig, ServeConfig, ShardedDb};
use mobidx_workload::{MorQuery1D, Simulator1D, Update1D, VelocityModel, WorkloadConfig};
use std::time::Duration;

/// Sizing of one drift → repartition run. The defaults are the
/// telemetry suite's deterministic drift recipe: one profile window of
/// uniform load becomes the reference distribution, then the two-band
/// switch crosses the drift threshold within a bounded number of
/// windows.
#[derive(Debug, Clone, Copy)]
pub struct RepartitionE2eConfig {
    /// Mobile objects.
    pub n: usize,
    /// Motion updates per simulated instant.
    pub updates_per_instant: usize,
    /// Workload-profile window (updates per closed window). The initial
    /// load closes `n / window` uniform windows; the first becomes the
    /// drift reference.
    pub window: u64,
    /// Serving shards.
    pub shards: usize,
    /// Cold queries per measured phase.
    pub queries: usize,
    /// Extra instants simulated after the drift event fires, so the
    /// two-band mix saturates the population before the degraded phase
    /// is measured.
    pub settle_instants: usize,
    /// Workload seed.
    pub seed: u64,
    /// Allowed `repartitioned / fresh` I/O ratio (the gate).
    pub budget: f64,
    /// Attach the continuous-telemetry sampler for the duration of the
    /// online phases and return its JSON report (the CI artifact).
    pub telemetry: bool,
}

impl Default for RepartitionE2eConfig {
    fn default() -> Self {
        RepartitionE2eConfig {
            n: 4000,
            updates_per_instant: 100,
            window: 800,
            shards: 2,
            queries: 50,
            settle_instants: 40,
            seed: 71,
            budget: 1.10,
            telemetry: false,
        }
    }
}

/// What one end-to-end run measured.
#[derive(Debug, Clone)]
pub struct RepartitionE2eResult {
    /// Cold page reads per query on the uniform load (phase 1).
    pub uniform_reads_per_query: f64,
    /// Cold page reads per query after the drift settled (phase 2).
    pub drifted_reads_per_query: f64,
    /// Cold page reads per query after online repartitioning (phase 3).
    pub repartitioned_reads_per_query: f64,
    /// Cold page reads per query on the from-scratch rebuild (phase 4).
    pub fresh_reads_per_query: f64,
    /// `repartitioned / fresh` — what the gate compares to `budget`.
    pub ratio: f64,
    /// The configured gate.
    pub budget: f64,
    /// Profile windows closed between the distribution switch and the
    /// drift event.
    pub drift_windows: u64,
    /// Band edges the optimizer planned from the live histogram.
    pub edges: Vec<f64>,
    /// Records migrated band-to-band during the online pass.
    pub moved: usize,
    /// Shards whose layout changed.
    pub shards_changed: usize,
    /// Wall-clock milliseconds of the online pass (informational; the
    /// gate is I/O-count based).
    pub repartition_millis: u64,
    /// Telemetry JSON report covering the online phases, when requested.
    pub telemetry_json: Option<String>,
}

impl RepartitionE2eResult {
    /// Whether online repartitioning recovered query I/O to within the
    /// configured budget of the from-scratch rebuild.
    #[must_use]
    pub fn within_budget(&self) -> bool {
        self.ratio <= self.budget
    }

    /// The phase table the `serve_bench --repartition` mode prints.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:>16} {:>9}\n", "phase", "reads/q"));
        for (name, v) in [
            ("uniform", self.uniform_reads_per_query),
            ("drifted", self.drifted_reads_per_query),
            ("repartitioned", self.repartitioned_reads_per_query),
            ("fresh rebuild", self.fresh_reads_per_query),
        ] {
            out.push_str(&format!("{name:>16} {v:>9.2}\n"));
        }
        out.push_str(&format!(
            "drift fired after {} window(s); {} record(s) migrated across {} shard(s) in {} ms\n",
            self.drift_windows, self.moved, self.shards_changed, self.repartition_millis
        ));
        out.push_str(&format!(
            "repartitioned / fresh = {:.3} (budget {:.2}): {}\n",
            self.ratio,
            self.budget,
            if self.within_budget() {
                "WITHIN BUDGET"
            } else {
                "OVER BUDGET"
            }
        ));
        out
    }
}

fn build_db(cfg: &RepartitionE2eConfig) -> ShardedDb<VpDualIndex> {
    ShardedDb::with_profile(
        ServeConfig {
            shards: cfg.shards,
            queue_depth: 64,
            ..ServeConfig::default()
        },
        ProfileConfig {
            window: cfg.window,
            ..ProfileConfig::default()
        },
        Box::new(IdHashShard),
        |_, _| {
            VpDualIndex::new(VpDualConfig {
                pin_roots: false,
                ..VpDualConfig::default()
            })
        },
    )
}

fn apply_step(db: &ShardedDb<VpDualIndex>, updates: &[Update1D]) {
    if updates.is_empty() {
        return;
    }
    let mut batch = Batch::new();
    for u in updates {
        batch.update(u.new);
    }
    db.apply(&batch).expect("apply step batch");
}

/// Cold reads per query through the live indexes' pager read path:
/// buffers cleared before every query, each shard's index searched on
/// its worker, physical reads counted by the stores — the §5 protocol,
/// so the number is deterministic.
fn cold_reads_per_query(db: &ShardedDb<VpDualIndex>, queries: &[MorQuery1D]) -> f64 {
    db.reset_io().expect("reset I/O counters");
    for &q in queries {
        db.clear_buffers().expect("clear buffer pools");
        for shard in 0..db.shards() {
            db.with_shard(shard, move |index| index.search(&q, &mut Vec::new()))
                .expect("cold query");
        }
    }
    let reads = db.io_totals().expect("I/O totals").reads;
    #[allow(clippy::cast_precision_loss)]
    let per_query = reads as f64 / queries.len() as f64;
    per_query
}

/// Runs the drift → repartition scenario end to end.
///
/// # Panics
/// Panics on a serve error (the scenario injects no faults), if the
/// drift detector fails to fire within six windows of the distribution
/// switch, or if the pending drift event does not trigger a repartition
/// pass — each of those is an acceptance failure, not a measurement.
#[must_use]
pub fn run_repartition_e2e(cfg: &RepartitionE2eConfig) -> RepartitionE2eResult {
    let db = build_db(cfg);
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: cfg.n,
        updates_per_instant: cfg.updates_per_instant,
        seed: cfg.seed,
        ..WorkloadConfig::default()
    });

    // Phase 1: uniform load — `n / window` uniform profile windows, the
    // first of which becomes the drift detector's reference.
    let mut batch = Batch::new();
    for m in sim.objects() {
        batch.insert(*m);
    }
    db.apply(&batch).expect("initial load");
    let sampler = cfg.telemetry.then(|| {
        db.start_sampler(SamplerConfig {
            tick: Duration::from_millis(10),
            capacity: 4096,
        })
    });
    let warm_queries: Vec<MorQuery1D> = (0..cfg.queries)
        .map(|_| sim.gen_query(150.0, 60.0))
        .collect();
    let uniform = cold_reads_per_query(&db, &warm_queries);

    // Phase 2: rush hour — future velocity draws split into slow/fast
    // bands. Step until the profile raises a drift event, then keep
    // stepping so the mix saturates the population.
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
        apply_step(&db, &sim.step());
    }
    let drift_windows = db.profile().windows_closed() - windows_at_switch;
    for _ in 0..cfg.settle_instants {
        apply_step(&db, &sim.step());
    }
    let queries: Vec<MorQuery1D> = (0..cfg.queries)
        .map(|_| sim.gen_query(150.0, 60.0))
        .collect();
    let drifted = cold_reads_per_query(&db, &queries);

    // Phase 3: the drift subscription answers the pending event —
    // boundaries replanned from the live histogram, every shard migrated
    // incrementally, profile rebaselined.
    let report = db
        .maybe_repartition(&RepartitionPolicy::default())
        .expect("repartition pass")
        .expect("pending drift event must trigger a pass");
    let repartitioned = cold_reads_per_query(&db, &queries);
    let telemetry_json = sampler.map(|s| {
        // Wait out one more harvest so the post-repartition gauges
        // (bands, repartition_* aggregates) are guaranteed sampled.
        assert!(
            s.wait_for_ticks(s.ticks() + 2, Duration::from_secs(30)),
            "sampler stalled"
        );
        let Value::Obj(mut members) = s.report_json() else {
            unreachable!("report_json always renders an object");
        };
        // Mark the artifact as a scenario capture: `mobidx-top --check`
        // then requires the repartition floor instead of the paired
        // bare/sampled overhead measurement (which this run never
        // performs).
        members.push(("scenario".to_owned(), Value::from("repartition")));
        Value::Obj(members).render_pretty()
    });

    // Phase 4: the offline yardstick — a brand-new database over the
    // same final population, its band layout pinned to the planned
    // edges from birth.
    let edges = report.edges.clone();
    let fresh_db = ShardedDb::with_profile(
        ServeConfig {
            shards: cfg.shards,
            queue_depth: 64,
            ..ServeConfig::default()
        },
        ProfileConfig {
            window: cfg.window,
            ..ProfileConfig::default()
        },
        Box::new(IdHashShard),
        move |_, _| {
            VpDualIndex::with_edges(
                VpDualConfig {
                    pin_roots: false,
                    ..VpDualConfig::default()
                },
                edges.clone(),
            )
        },
    );
    let mut batch = Batch::new();
    for m in sim.objects() {
        batch.insert(*m);
    }
    fresh_db.apply(&batch).expect("fresh rebuild load");
    let fresh = cold_reads_per_query(&fresh_db, &queries);

    RepartitionE2eResult {
        uniform_reads_per_query: uniform,
        drifted_reads_per_query: drifted,
        repartitioned_reads_per_query: repartitioned,
        fresh_reads_per_query: fresh,
        ratio: repartitioned / fresh,
        budget: cfg.budget,
        drift_windows,
        edges: report.edges,
        moved: report.moved,
        shards_changed: report.shards_changed,
        repartition_millis: u64::try_from(report.elapsed.as_millis()).unwrap_or(u64::MAX),
        telemetry_json,
    }
}
