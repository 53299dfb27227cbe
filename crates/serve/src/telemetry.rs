//! Continuous telemetry for a running [`ShardedDb`].
//!
//! [`ShardedDb::start_sampler`] spawns a [`Sampler`] thread that, every
//! tick, harvests each shard's [`ShardHealth`] state, the per-shard
//! `IoTotals` deltas (via a `Stats` round-trip on the worker queue), the
//! facade [`EventLog`]'s drop counter, and the [`WorkloadProfile`]'s
//! drift state into per-shard and aggregate [`TimeSeries`]. The result
//! is a [`ServeSampler`] handle that owns the thread and exposes the
//! registry: render it as a JSON telemetry report, or poll individual
//! series (that is what `mobidx-top` does).
//!
//! The harvest path is deliberately cheap: reading health state touches
//! relaxed atomics only, and the single `Stats` message per shard per
//! tick is noise next to a serving workload (the benchmark suite bounds
//! the overhead under 2 % at a 100 ms tick; see EXPERIMENTS.md).
//!
//! Series naming: per-shard series carry a Prometheus-style label —
//! `queue_depth{shard="2"}` — and aggregates a `_total` suffix.

use crate::db::ShardedDb;
use crate::flight::FlightRecorder;
use crate::health::ShardHealth;
use crate::snapshot::{ReadPoolMetrics, SnapshotRegistry};
use crate::worker::Request;
use mobidx_core::{Index1D, IoTotals};
use mobidx_obs::json::Value;
use mobidx_obs::slo::{ActiveAlert, AnomalySpec, SloEngine, SloSpec};
use mobidx_obs::telemetry::{Sampler, Telemetry, TimeSeries, WorkloadProfile};
use mobidx_obs::EventLog;
use std::sync::mpsc::{channel, SyncSender};
use std::sync::Arc;
use std::time::Duration;

/// Sizing of a [`ServeSampler`].
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Harvest interval.
    pub tick: Duration,
    /// Samples retained per series (ring capacity). At the default
    /// 100 ms tick, 600 samples keep one minute of history.
    pub capacity: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(100),
            capacity: 600,
        }
    }
}

/// A running telemetry harvester over a [`ShardedDb`] (see the module
/// docs). Dropping it stops the sampling thread.
///
/// The handle is independent of the database's lifetime in the borrow
/// sense (it holds clones of the shared state), but harvesting degrades
/// gracefully once the database is gone: health atomics remain readable
/// and the I/O round-trips are skipped when the worker queues close.
#[derive(Debug)]
pub struct ServeSampler {
    telemetry: Arc<Telemetry>,
    slo: Arc<SloEngine>,
    flight: Arc<FlightRecorder>,
    shards: usize,
    sampler: Sampler,
}

impl ServeSampler {
    /// Completed harvest ticks.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.sampler.ticks()
    }

    /// Blocks until at least `ticks` harvests have completed (test and
    /// report-capture convenience; gives up after `timeout`).
    ///
    /// Returns `true` when the tick target was reached.
    #[must_use]
    pub fn wait_for_ticks(&self, ticks: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.ticks() < ticks {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// The underlying series registry.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Number of shards being harvested.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// One shard's series, by base name: `series_for("queue_depth", 2)`
    /// returns `queue_depth{shard="2"}` (creating it empty if the
    /// sampler has not recorded it yet).
    #[must_use]
    pub fn series_for(&self, base: &str, shard: usize) -> Arc<TimeSeries> {
        self.telemetry.series(&shard_series(base, shard))
    }

    /// The SLO engine this sampler evaluates every tick (default
    /// objectives unless the sampler was started with
    /// [`ShardedDb::start_sampler_with`]).
    #[must_use]
    pub fn slo_engine(&self) -> &Arc<SloEngine> {
        &self.slo
    }

    /// The currently firing alerts (convenience for
    /// [`SloEngine::active_alerts`] — what `mobidx-top`'s alert column
    /// polls).
    #[must_use]
    pub fn active_alerts(&self) -> Vec<ActiveAlert> {
        self.slo.active_alerts()
    }

    /// The database's flight recorder (the same handle
    /// [`ShardedDb::flight_recorder`] returns; exposed here because the
    /// sampler's tick is what drives its automatic triggers).
    #[must_use]
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// The full JSON telemetry report: sampler metadata plus the
    /// registry dump of [`Telemetry::to_json`] and the SLO engine's
    /// verdict.
    #[must_use]
    pub fn report_json(&self) -> Value {
        Value::Obj(vec![
            ("kind".to_owned(), Value::from("mobidx-telemetry")),
            ("shards".to_owned(), Value::from(self.shards)),
            ("ticks".to_owned(), Value::from(self.ticks())),
            ("alerts".to_owned(), self.slo.to_json()),
            ("telemetry".to_owned(), self.telemetry.to_json()),
        ])
    }
}

/// `base{shard="i"}`.
fn shard_series(base: &str, shard: usize) -> String {
    format!("{base}{{shard=\"{shard}\"}}")
}

/// The default serving-tier objective set a plain
/// [`ShardedDb::start_sampler`] installs:
///
/// * `query-p99-s<i>` — per-shard query p99 at or below 50 ms (5 %
///   budget, 12/60-tick windows, 2× burn);
/// * `shard-fault-s<i>` — per-shard poisoned gauge must read 0 (pages
///   on the first poisoned tick);
/// * `snapshot-age` — the commit epoch must advance at least once per
///   600 ticks (one minute at the default 100 ms tick) — write stalls
///   and paused publication (a poisoned shard holds the epoch) surface
///   here;
/// * one anomaly detector over `queue_depth_total` for congestion
///   steps no fixed threshold was told about.
///
/// Deployments with different targets build their own engine and pass
/// it to [`ShardedDb::start_sampler_with`].
#[must_use]
pub fn default_slos(shards: usize) -> SloEngine {
    let mut engine = SloEngine::new();
    for shard in 0..shards {
        engine = engine
            .slo(SloSpec::latency(
                &format!("query-p99-s{shard}"),
                &shard_series("query_p99_us", shard),
                50_000.0,
            ))
            .slo(SloSpec::fault(
                &format!("shard-fault-s{shard}"),
                &shard_series("poisoned", shard),
            ));
    }
    engine
        .slo(SloSpec::staleness(
            "snapshot-age",
            "snapshot_age_ticks",
            600.0,
        ))
        .anomaly(AnomalySpec::over("queue_depth_total"))
}

impl<I: Index1D + Send + 'static> ShardedDb<I> {
    /// Starts a background telemetry harvester over this database (see
    /// the [module docs](crate::telemetry)) with the [`default_slos`]
    /// objective set. The returned handle owns the sampling thread;
    /// drop it to stop sampling. Multiple samplers may run concurrently
    /// (each owns its registry; the flight recorder follows the most
    /// recently started one).
    #[must_use]
    pub fn start_sampler(&self, cfg: SamplerConfig) -> ServeSampler {
        self.start_sampler_with(cfg, default_slos(self.shards()))
    }

    /// [`ShardedDb::start_sampler`] with an explicit objective set.
    /// The engine is wired to the database's event log (alert events
    /// land next to drift events and query spans) and evaluated once
    /// per tick, after the harvest; its raise edges drive the flight
    /// recorder's `slo_breach` trigger.
    #[must_use]
    pub fn start_sampler_with(&self, cfg: SamplerConfig, engine: SloEngine) -> ServeSampler {
        let slo = Arc::new(engine.with_event_log(Arc::clone(self.telemetry_events())));
        start(
            cfg,
            self.telemetry_senders().to_vec(),
            self.telemetry_health().to_vec(),
            Arc::clone(self.telemetry_events()),
            Arc::clone(self.profile()),
            Arc::clone(self.telemetry_registry()),
            Arc::clone(self.telemetry_read_pool()),
            slo,
            Arc::clone(self.flight_recorder()),
            Arc::clone(self.repartition_stats()),
        )
    }
}

/// Builds the harvest closure and spawns the sampler thread.
#[allow(clippy::too_many_arguments)]
fn start<I: Index1D + Send + 'static>(
    cfg: SamplerConfig,
    senders: Vec<SyncSender<Request<I>>>,
    health: Vec<Arc<ShardHealth>>,
    events: Arc<EventLog>,
    profile: Arc<WorkloadProfile>,
    registry: Arc<SnapshotRegistry>,
    read_pool: Arc<ReadPoolMetrics>,
    slo: Arc<SloEngine>,
    flight: Arc<FlightRecorder>,
    repartition: Arc<crate::repartition::RepartitionStats>,
) -> ServeSampler {
    let shards = senders.len();
    let telemetry = Arc::new(Telemetry::new(cfg.capacity));
    flight.attach(Arc::clone(&telemetry), Arc::clone(&slo));
    let t = Arc::clone(&telemetry);
    let tick_slo = Arc::clone(&slo);
    let tick_flight = Arc::clone(&flight);
    let mut last_io: Vec<IoTotals> = vec![IoTotals::default(); shards];
    let mut last_ops: Vec<u64> = vec![0; shards];
    let mut last_queries: Vec<u64> = vec![0; shards];
    let mut last_views_built: Vec<u64> = vec![0; shards];
    let mut last_pool = (0u64, 0u64, vec![0u64; read_pool.snapshot().threads]);
    // Snapshot-age bookkeeping: ticks since the commit epoch last
    // advanced (the sampler derives age from epoch *changes*, so it
    // needs no clock plumbed out of the registry).
    let mut last_epoch = registry.epoch();
    let mut age_ticks = 0u64;
    // Repartition-age bookkeeping, same derivation: per-shard ticks
    // since the shard's completed-repartition counter last advanced.
    let mut last_repartitions: Vec<u64> = vec![0; shards];
    let mut repartition_age: Vec<u64> = vec![0; shards];
    let harvest = move || {
        let now = t.now_nanos();
        let mut depth_total = 0u64;
        let mut queries_total = 0u64;
        let mut reads_total = 0u64;
        let mut writes_total = 0u64;
        let mut wal_records_total = 0u64;
        let mut wal_fsyncs_total = 0u64;
        let mut polled: Vec<Option<IoTotals>> = vec![None; shards];
        #[allow(clippy::cast_precision_loss)]
        for (shard, h) in health.iter().enumerate() {
            let snap = h.snapshot(shard);
            let rec = |base: &str, v: f64| t.series(&shard_series(base, shard)).push(now, v);
            rec("queue_depth", snap.queue_depth as f64);
            rec("query_p50_us", snap.query_latency_us.p50 as f64);
            rec("query_p95_us", snap.query_latency_us.p95 as f64);
            rec("query_p99_us", snap.query_latency_us.p99 as f64);
            rec("poisoned", f64::from(u8::from(snap.poisoned)));
            depth_total += snap.queue_depth;
            let ops_delta = snap.applied_ops.saturating_sub(last_ops[shard]);
            last_ops[shard] = snap.applied_ops;
            rec("applied_ops", ops_delta as f64);
            let q_delta = snap.queries.saturating_sub(last_queries[shard]);
            last_queries[shard] = snap.queries;
            rec("queries", q_delta as f64);
            queries_total += q_delta;
            let built_delta = snap.views_built.saturating_sub(last_views_built[shard]);
            last_views_built[shard] = snap.views_built;
            rec("views_built", built_delta as f64);
            // The I/O counters live inside the worker-owned index, so
            // they take one queue round-trip; the deltas saturate so a
            // mid-run `reset_io` reads as a quiet tick, not a panic.
            if let Some(totals) = poll_stats(&senders[shard], h) {
                polled[shard] = Some(totals);
                let reads = totals.reads.saturating_sub(last_io[shard].reads);
                let writes = totals.writes.saturating_sub(last_io[shard].writes);
                let wal_records = totals
                    .wal_records
                    .saturating_sub(last_io[shard].wal_records);
                let wal_fsyncs = totals.wal_fsyncs.saturating_sub(last_io[shard].wal_fsyncs);
                last_io[shard] = totals;
                rec("io_reads", reads as f64);
                rec("io_writes", writes as f64);
                rec("wal_records", wal_records as f64);
                rec("wal_fsyncs", wal_fsyncs as f64);
                reads_total += reads;
                writes_total += writes;
                wal_records_total += wal_records;
                wal_fsyncs_total += wal_fsyncs;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        {
            t.series("queue_depth_total").push(now, depth_total as f64);
            t.series("io_reads_total").push(now, reads_total as f64);
            t.series("io_writes_total").push(now, writes_total as f64);
            t.series("wal_records_total")
                .push(now, wal_records_total as f64);
            t.series("wal_fsyncs_total")
                .push(now, wal_fsyncs_total as f64);
            t.series("spans_recorded")
                .push(now, events.recorded() as f64);
            t.series("spans_dropped").push(now, events.dropped() as f64);
            t.series("updates_observed")
                .push(now, profile.updates() as f64);
            t.series("drift_l1_millis")
                .push(now, profile.drift_millis() as f64);
            t.series("drift_events")
                .push(now, profile.drift_events() as f64);
            t.series("queries_total").push(now, queries_total as f64);
            // The snapshot read pool: backlog gauge, submit/steal
            // deltas, and per-worker executed-leg deltas.
            let pool = read_pool.snapshot();
            t.series("readpool_depth").push(now, pool.depth as f64);
            t.series("readpool_submitted")
                .push(now, pool.submitted.saturating_sub(last_pool.0) as f64);
            t.series("readpool_stolen")
                .push(now, pool.stolen.saturating_sub(last_pool.1) as f64);
            for (worker, &executed) in pool.executed.iter().enumerate() {
                let prev = last_pool.2.get(worker).copied().unwrap_or(0);
                t.series(&format!("readpool_executed{{worker=\"{worker}\"}}"))
                    .push(now, executed.saturating_sub(prev) as f64);
            }
            last_pool = (pool.submitted, pool.stolen, pool.executed);
            let epoch = registry.epoch();
            if epoch == last_epoch {
                age_ticks += 1;
            } else {
                last_epoch = epoch;
                age_ticks = 0;
            }
            t.series("snapshot_epoch").push(now, epoch as f64);
            t.series("snapshot_age_ticks").push(now, age_ticks as f64);
            t.series("snapshots_on_demand")
                .push(now, registry.snapshots_on_demand.get() as f64);
            t.series("applies_unpublished")
                .push(now, registry.applies_unpublished.get() as f64);
            // Online repartitioning: per-shard band-count gauges and
            // ticks-since-last-repartition, plus the pass aggregates.
            for shard in 0..shards {
                let done = repartition.shard_completed(shard);
                if done == last_repartitions[shard] {
                    repartition_age[shard] += 1;
                } else {
                    last_repartitions[shard] = done;
                    repartition_age[shard] = 0;
                }
                t.series(&shard_series("bands", shard))
                    .push(now, repartition.bands(shard) as f64);
                t.series(&shard_series("repartitions", shard))
                    .push(now, done as f64);
                t.series(&shard_series("repartition_age_ticks", shard))
                    .push(now, repartition_age[shard] as f64);
            }
            t.series("repartition_events")
                .push(now, repartition.completed() as f64);
            t.series("repartition_attempts")
                .push(now, repartition.attempts() as f64);
            t.series("repartition_skipped")
                .push(now, repartition.skipped() as f64);
            t.series("repartition_moved_total")
                .push(now, repartition.moved_total() as f64);
            t.series("repartition_last_ms")
                .push(now, repartition.last_millis() as f64);
        }
        // Judgment rides the same tick: the SLO engine reads the
        // windows just harvested, then the flight recorder checks its
        // trigger edges (poison / new alerts / drift) and captures at
        // most one bundle from the polled totals.
        tick_slo.evaluate(&t);
        tick_flight.on_tick(&polled);
    };
    ServeSampler {
        telemetry,
        slo,
        flight,
        shards,
        sampler: Sampler::spawn(cfg.tick, harvest),
    }
}

/// One `Stats` round-trip on a worker queue, honoring the queue-depth
/// gauge contract (the facade increments before a send, the worker
/// decrements at dequeue). Returns `None` when the worker is gone.
fn poll_stats<I: Index1D>(
    sender: &SyncSender<Request<I>>,
    health: &Arc<ShardHealth>,
) -> Option<IoTotals> {
    let (reply, rx) = channel();
    let depth = health.queue_depth.incr();
    health.queue_high_water.set_max(depth);
    match sender.send(Request::Stats { reply }) {
        Ok(()) => {
            health.enqueued.incr();
            rx.recv().ok().map(|(totals, _)| totals)
        }
        Err(_) => {
            let _ = health.queue_depth.decr();
            None
        }
    }
}
