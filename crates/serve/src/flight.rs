//! The flight recorder: an always-on black box over a [`ShardedDb`].
//!
//! Every piece of observable state in the serving tier — recent span
//! trees, per-shard health, the telemetry window, WAL/I/O counter
//! deltas, the workload profile, and the SLO engine's active alerts —
//! already lives in shared, cheaply readable structures. The
//! [`FlightRecorder`] holds `Arc`s to all of them and, on a *trigger*,
//! serializes a single self-contained JSON **diagnostic bundle** into a
//! bounded in-memory ring. Nothing is written on the hot path: the
//! recorder piggybacks on the telemetry sampler's tick
//! (`FlightRecorder::on_tick` runs on the sampler thread, after the
//! harvest), so a capture costs a few hundred microseconds of
//! serialization *on the sampler thread* and zero on serving threads.
//!
//! ## Triggers
//!
//! * `shard_poison` — a shard's poisoned gauge rose since the last
//!   tick;
//! * `slo_breach` — the [`SloEngine`] raised a new alert (burn-rate or
//!   anomaly);
//! * `drift` — the workload profile's drift detector fired;
//! * `manual` — an explicit [`ShardedDb::dump_bundle`] call.
//!
//! At most one bundle is captured per tick (poison outranks SLO
//! outranks drift), and the ring keeps the most recent
//! [`FlightConfig::max_bundles`] — a crashed-over-and-over shard cannot
//! grow memory without bound.
//!
//! ## Bundle schema
//!
//! A bundle is one JSON object, `kind: "mobidx-bundle"`, and is fully
//! self-contained: `mobidx-doctor` parses it back (spans via
//! `Span::from_json`, series via the telemetry section) with no access
//! to the process that wrote it. See EXPERIMENTS.md for the full field
//! list and DESIGN.md §11 for the semantics.

use crate::db::ShardedDb;
use crate::health::{HealthSnapshot, ShardHealth};
use crate::snapshot::{ReadPoolMetrics, SnapshotRegistry};
use mobidx_core::{Index1D, IoTotals};
use mobidx_obs::json::Value;
use mobidx_obs::slo::SloEngine;
use mobidx_obs::telemetry::{Telemetry, WorkloadProfile};
use mobidx_obs::EventLog;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bounds of the flight recorder's black box.
#[derive(Debug, Clone, Copy)]
pub struct FlightConfig {
    /// Diagnostic bundles retained (ring; oldest evicted first).
    pub max_bundles: usize,
    /// Span trees serialized into each bundle (the most recent ones
    /// from the event log).
    pub max_spans: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self {
            max_bundles: 4,
            max_spans: 48,
        }
    }
}

/// Everything the sampler attaches once it starts: the series registry
/// and the SLO engine whose alert edges drive the `slo_breach` trigger.
#[derive(Default)]
struct Attached {
    telemetry: Option<Arc<Telemetry>>,
    slo: Option<Arc<SloEngine>>,
}

/// Trigger edge-detection state, advanced once per tick.
struct TriggerState {
    poisoned: Vec<bool>,
    alerts_raised: u64,
    drift_events: u64,
}

/// Per-trigger capture counters plus the bundle ring.
struct RecorderState {
    bundles: VecDeque<Value>,
    seq: u64,
    captures: u64,
    by_trigger: Vec<(String, u64)>,
    /// Per-shard I/O totals at the last capture, for the bundle's
    /// `delta` section.
    last_io: Vec<IoTotals>,
}

/// The always-on black box (see the module docs). One per
/// [`ShardedDb`], created at construction; triggers are evaluated on
/// the telemetry sampler's tick, and [`ShardedDb::dump_bundle`]
/// captures on demand.
pub struct FlightRecorder {
    cfg: FlightConfig,
    shards: usize,
    /// The facade's span time base — bundle timestamps share the span
    /// timeline.
    epoch: Instant,
    events: Arc<EventLog>,
    health: Vec<Arc<ShardHealth>>,
    read_pool: Arc<ReadPoolMetrics>,
    profile: Arc<WorkloadProfile>,
    registry: Arc<SnapshotRegistry>,
    attached: Mutex<Attached>,
    triggers: Mutex<TriggerState>,
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cfg: FlightConfig,
        shards: usize,
        epoch: Instant,
        events: Arc<EventLog>,
        health: Vec<Arc<ShardHealth>>,
        read_pool: Arc<ReadPoolMetrics>,
        profile: Arc<WorkloadProfile>,
        registry: Arc<SnapshotRegistry>,
    ) -> Self {
        Self {
            cfg,
            shards,
            epoch,
            events,
            health,
            read_pool,
            profile,
            registry,
            attached: Mutex::new(Attached::default()),
            triggers: Mutex::new(TriggerState {
                poisoned: vec![false; shards],
                alerts_raised: 0,
                drift_events: 0,
            }),
            state: Mutex::new(RecorderState {
                bundles: VecDeque::new(),
                seq: 0,
                captures: 0,
                by_trigger: Vec::new(),
                last_io: vec![IoTotals::default(); shards],
            }),
        }
    }

    /// Wires the sampler-owned registry and SLO engine in (called by
    /// `start_sampler`; the last started sampler wins).
    pub(crate) fn attach(&self, telemetry: Arc<Telemetry>, slo: Arc<SloEngine>) {
        let mut a = self.attached.lock().expect("recorder attachments");
        a.telemetry = Some(telemetry);
        a.slo = Some(slo);
    }

    /// Evaluates the automatic triggers against the current state and
    /// captures at most one bundle. Runs on the sampler thread, once
    /// per tick, after the harvest and the SLO evaluation; `io` is the
    /// sampler's freshly polled per-shard totals (`None` where a worker
    /// did not answer).
    pub(crate) fn on_tick(&self, io: &[Option<IoTotals>]) {
        let trigger = {
            let mut t = self.triggers.lock().expect("recorder triggers");
            let mut fired: Option<&'static str> = None;
            for (shard, h) in self.health.iter().enumerate() {
                let poisoned = h.poisoned.get() != 0;
                if poisoned && !t.poisoned[shard] {
                    fired = Some("shard_poison");
                }
                t.poisoned[shard] = poisoned;
            }
            let raised = self
                .attached
                .lock()
                .expect("recorder attachments")
                .slo
                .as_ref()
                .map_or(0, |s| s.alerts_raised());
            if raised > t.alerts_raised && fired.is_none() {
                fired = Some("slo_breach");
            }
            t.alerts_raised = raised;
            let drift = self.profile.drift_events();
            if drift > t.drift_events && fired.is_none() {
                fired = Some("drift");
            }
            t.drift_events = drift;
            fired
        };
        if let Some(trigger) = trigger {
            self.capture(trigger, io);
        }
    }

    /// A point-in-time summary of the shared health state — every shard,
    /// the read pool, the snapshot registry's mode counters and the event
    /// log's accounting (what [`ShardedDb::health`] returns).
    pub(crate) fn health(&self) -> HealthSnapshot {
        HealthSnapshot {
            shards: self
                .health
                .iter()
                .enumerate()
                .map(|(shard, h)| h.snapshot(shard))
                .collect(),
            read_pool: self.read_pool.snapshot(),
            snapshots_on_demand: self.registry.snapshots_on_demand.get(),
            applies_unpublished: self.registry.applies_unpublished.get(),
            spans_recorded: self.events.recorded(),
            spans_dropped: self.events.dropped(),
        }
    }

    /// Serializes one diagnostic bundle from the shared state and
    /// pushes it into the ring (evicting the oldest past
    /// [`FlightConfig::max_bundles`]). Returns the bundle.
    pub(crate) fn capture(&self, trigger: &str, io: &[Option<IoTotals>]) -> Value {
        let t_nanos = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let health = self.health();
        let spans: Vec<Value> = {
            let all = self.events.snapshot();
            let skip = all.len().saturating_sub(self.cfg.max_spans);
            all[skip..].iter().map(|s| s.to_json()).collect()
        };
        let (telemetry_json, alerts_json) = {
            let a = self.attached.lock().expect("recorder attachments");
            (
                a.telemetry.as_ref().map_or(Value::Null, |t| t.to_json()),
                a.slo.as_ref().map_or(Value::Null, |s| s.to_json()),
            )
        };
        let mut st = self.state.lock().expect("recorder state");
        let io_json: Vec<Value> = (0..self.shards)
            .map(|shard| {
                let totals = io
                    .get(shard)
                    .copied()
                    .flatten()
                    .unwrap_or(st.last_io[shard]);
                let prev = st.last_io[shard];
                st.last_io[shard] = totals;
                let delta = totals.delta_since(prev);
                Value::Obj(vec![
                    ("shard".to_owned(), Value::from(shard)),
                    ("totals".to_owned(), io_totals_json(totals)),
                    ("delta".to_owned(), io_totals_json(delta)),
                ])
            })
            .collect();
        st.seq += 1;
        st.captures += 1;
        match st.by_trigger.iter_mut().find(|(t, _)| t == trigger) {
            Some(slot) => slot.1 += 1,
            None => st.by_trigger.push((trigger.to_owned(), 1)),
        }
        let bundle = Value::Obj(vec![
            ("kind".to_owned(), Value::from("mobidx-bundle")),
            ("version".to_owned(), Value::from(1u64)),
            ("seq".to_owned(), Value::from(st.seq)),
            ("trigger".to_owned(), Value::from(trigger)),
            ("t_nanos".to_owned(), Value::from(t_nanos)),
            ("shards".to_owned(), Value::from(self.shards)),
            (
                "snapshot_epoch".to_owned(),
                Value::from(self.registry.epoch()),
            ),
            ("health".to_owned(), health.to_json()),
            ("io".to_owned(), Value::Arr(io_json)),
            ("alerts".to_owned(), alerts_json),
            ("events".to_owned(), Value::Arr(spans)),
            ("telemetry".to_owned(), telemetry_json),
            ("profile".to_owned(), self.profile.to_json()),
        ]);
        st.bundles.push_back(bundle.clone());
        while st.bundles.len() > self.cfg.max_bundles.max(1) {
            st.bundles.pop_front();
        }
        drop(st);
        bundle
    }

    /// Bundles captured since startup (captures, not retained bundles).
    #[must_use]
    pub fn captures(&self) -> u64 {
        self.state.lock().expect("recorder state").captures
    }

    /// Capture counts per trigger, in first-seen order.
    #[must_use]
    pub fn trigger_counts(&self) -> Vec<(String, u64)> {
        self.state
            .lock()
            .expect("recorder state")
            .by_trigger
            .clone()
    }

    /// The retained bundles, oldest first.
    #[must_use]
    pub fn bundles(&self) -> Vec<Value> {
        self.state
            .lock()
            .expect("recorder state")
            .bundles
            .iter()
            .cloned()
            .collect()
    }

    /// The most recent bundle, if any was captured.
    #[must_use]
    pub fn last_bundle(&self) -> Option<Value> {
        self.state
            .lock()
            .expect("recorder state")
            .bundles
            .back()
            .cloned()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("shards", &self.shards)
            .field("captures", &self.captures())
            .finish_non_exhaustive()
    }
}

/// Serializes [`IoTotals`] for the bundle's `io` section.
fn io_totals_json(t: IoTotals) -> Value {
    Value::Obj(vec![
        ("reads".to_owned(), Value::from(t.reads)),
        ("writes".to_owned(), Value::from(t.writes)),
        ("pages".to_owned(), Value::from(t.pages)),
        ("hits".to_owned(), Value::from(t.hits)),
        ("wal_records".to_owned(), Value::from(t.wal_records)),
        ("wal_fsyncs".to_owned(), Value::from(t.wal_fsyncs)),
    ])
}

impl<I: Index1D + Send + 'static> ShardedDb<I> {
    /// Captures a diagnostic bundle *now* (trigger `manual`) and
    /// returns it. The bundle also lands in the recorder's ring, next
    /// to any automatically triggered ones. Worker I/O totals are
    /// polled best-effort: a poisoned shard still answers, a dead
    /// worker's totals freeze at their last captured value.
    #[must_use]
    pub fn dump_bundle(&self) -> Value {
        let io = self.stats_best_effort();
        self.flight_recorder().capture("manual", &io)
    }
}
