//! Service-level objectives, multi-window burn-rate alerting, and
//! EWMA anomaly detection over the telemetry registry.
//!
//! The telemetry pipeline measures; this module *judges*. An
//! [`SloEngine`] holds a set of declarative objectives ([`SloSpec`]:
//! latency percentile targets, error/fault budgets, snapshot-age
//! staleness bounds — anything expressible as a per-sample pass/fail
//! over a registered [`TimeSeries`](crate::TimeSeries)) plus optional
//! [`AnomalySpec`] detectors, and is evaluated once per sampler tick
//! against the [`Telemetry`] registry.
//!
//! ## Burn-rate semantics
//!
//! Each SLO grants an *error budget*: the fraction of samples allowed
//! to violate the objective ([`SloSpec::budget`]). On every evaluation
//! the engine computes the violating fraction over two trailing
//! windows — a short *fast* window that reacts within a few ticks and
//! a longer *slow* window that filters blips — and divides each by the
//! budget to get a *burn rate* (1.0 = burning the budget exactly as
//! fast as granted). An alert is raised only when **both** windows burn
//! at or above [`SloSpec::burn_threshold`], the standard SRE
//! multi-window rule: the fast window gives low detection latency, the
//! slow window keeps one bad tick from paging. Windows shorter than
//! their configured size (early in a run) are evaluated over whatever
//! samples exist once [`SloSpec::min_samples`] have arrived.
//!
//! ## What an evaluation emits
//!
//! * `slo_burn_rate{slo="<name>"}` — the fast-window burn rate, every
//!   tick, per SLO;
//! * `alert_active{slo="<name>"}` — 0/1 gauge per SLO;
//! * `anomaly_z{series="<name>"}` — the robust z-score per detector;
//! * on every raise/resolve edge, a typed `alert` event — a leaf
//!   [`Span`] with `slo`/`kind`/`state` and the triggering numbers as
//!   attrs — into the shared [`EventLog`], next to the drift events the
//!   workload profile already emits. Downstream consumers (the flight
//!   recorder, `mobidx-doctor`) correlate on those events.
//!
//! ## Anomaly detection
//!
//! [`AnomalySpec`] watches one series with an exponentially weighted
//! moving average of the value and of its absolute deviation (a cheap
//! MAD stand-in). Each new sample scores a robust z
//! (`|x − ewma| / (1.4826 · ewma_dev)`, with a relative floor on the
//! denominator so a near-constant series does not divide by zero);
//! crossing [`AnomalySpec::z_threshold`] raises an `anomaly` alert.
//! This is deliberately lightweight — one multiply-add per tick per
//! detector — and catches step changes the fixed-threshold SLOs were
//! not told about.

use crate::json::Value;
use crate::telemetry::Telemetry;
use crate::{EventLog, Span, SpanIo};
use std::sync::{Arc, Mutex};

/// The per-sample pass/fail criterion of an SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// The sample must stay at or below the bound (latency targets,
    /// staleness bounds, fault gauges that should read 0).
    AtMost(f64),
    /// The sample must stay at or above the bound (hit rates,
    /// throughput floors).
    AtLeast(f64),
}

impl Objective {
    /// Whether `v` violates the objective.
    #[must_use]
    pub fn is_bad(self, v: f64) -> bool {
        match self {
            Objective::AtMost(max) => v > max,
            Objective::AtLeast(min) => v < min,
        }
    }

    /// The numeric bound.
    #[must_use]
    pub fn bound(self) -> f64 {
        match self {
            Objective::AtMost(b) | Objective::AtLeast(b) => b,
        }
    }

    fn kind(self) -> &'static str {
        match self {
            Objective::AtMost(_) => "at_most",
            Objective::AtLeast(_) => "at_least",
        }
    }
}

/// One declarative service-level objective over a registered series
/// (see the module docs for the burn-rate semantics).
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Alert name — becomes the `slo` label of the emitted series and
    /// the `slo` attr of alert events.
    pub name: String,
    /// The full series name this SLO watches, including any labels
    /// (e.g. `query_p99_us{shard="0"}` or `snapshot_age_ticks`).
    pub series: String,
    /// The per-sample pass/fail criterion.
    pub objective: Objective,
    /// Error budget: the allowed violating fraction of samples, in
    /// (0, 1]. A burn rate of 1.0 means violations arrive exactly at
    /// the budgeted rate.
    pub budget: f64,
    /// Fast (reactive) trailing window, in samples.
    pub fast_window: usize,
    /// Slow (confirming) trailing window, in samples; usually several
    /// times the fast window.
    pub slow_window: usize,
    /// Alert when both windows burn at or above this rate.
    pub burn_threshold: f64,
    /// Samples required in the series before the SLO is judged at all
    /// (warm-up guard).
    pub min_samples: usize,
}

impl SloSpec {
    /// A latency-percentile objective: `series` (a percentile gauge
    /// like `query_p99_us{shard="0"}`) must stay at or below `max`,
    /// with a 5 % error budget, 12/60-sample windows, and a 2× burn
    /// threshold.
    #[must_use]
    pub fn latency(name: &str, series: &str, max: f64) -> SloSpec {
        SloSpec {
            name: name.to_owned(),
            series: series.to_owned(),
            objective: Objective::AtMost(max),
            budget: 0.05,
            fast_window: 12,
            slow_window: 60,
            burn_threshold: 2.0,
            min_samples: 3,
        }
    }

    /// A fault-budget objective: `series` (a fault gauge or per-tick
    /// fault delta, e.g. `poisoned{shard="1"}`) should read 0; any
    /// violating sample overspends the 1 % budget immediately, so the
    /// alert raises on the first tick that observes the fault.
    #[must_use]
    pub fn fault(name: &str, series: &str) -> SloSpec {
        SloSpec {
            name: name.to_owned(),
            series: series.to_owned(),
            objective: Objective::AtMost(0.0),
            budget: 0.01,
            fast_window: 6,
            slow_window: 30,
            burn_threshold: 1.0,
            min_samples: 1,
        }
    }

    /// A snapshot-staleness objective: `series` (an age gauge like
    /// `snapshot_age_ticks`) must stay at or below `max_age`, with a
    /// 10 % budget and 12/60-sample windows — a snapshot allowed to
    /// briefly pause during a rebuild, but not to stall.
    #[must_use]
    pub fn staleness(name: &str, series: &str, max_age: f64) -> SloSpec {
        SloSpec {
            name: name.to_owned(),
            series: series.to_owned(),
            objective: Objective::AtMost(max_age),
            budget: 0.1,
            fast_window: 12,
            slow_window: 60,
            burn_threshold: 2.0,
            min_samples: 3,
        }
    }
}

/// One EWMA/robust-z anomaly detector over a registered series (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct AnomalySpec {
    /// The full series name to watch.
    pub series: String,
    /// EWMA smoothing factor in (0, 1]; higher tracks faster.
    pub alpha: f64,
    /// Raise when the robust z-score reaches this value.
    pub z_threshold: f64,
    /// Samples consumed before the detector starts judging (the EWMA
    /// needs history for its deviation estimate to mean anything).
    pub min_samples: u64,
}

impl AnomalySpec {
    /// A detector with the default smoothing (α = 0.2), threshold
    /// (z ≥ 4) and warm-up (12 samples).
    #[must_use]
    pub fn over(series: &str) -> AnomalySpec {
        AnomalySpec {
            series: series.to_owned(),
            alpha: 0.2,
            z_threshold: 4.0,
            min_samples: 12,
        }
    }
}

/// Why an alert is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// A multi-window SLO burn-rate breach.
    BurnRate,
    /// A robust-z anomaly on a watched series.
    Anomaly,
}

impl AlertKind {
    /// The kind as the string used in event attrs and JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AlertKind::BurnRate => "burn_rate",
            AlertKind::Anomaly => "anomaly",
        }
    }
}

/// One currently firing alert.
#[derive(Debug, Clone)]
pub struct ActiveAlert {
    /// The SLO name, or `anomaly:<series>` for detector alerts.
    pub name: String,
    /// What raised it.
    pub kind: AlertKind,
    /// The watched series.
    pub series: String,
    /// The current burn rate (SLO) or z-score (anomaly).
    pub value: f64,
    /// The configured threshold that was crossed.
    pub threshold: f64,
    /// When the alert was raised, in nanoseconds on the registry's
    /// time base.
    pub since_nanos: u64,
}

impl ActiveAlert {
    /// The alert as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("name".to_owned(), Value::from(self.name.as_str())),
            ("kind".to_owned(), Value::from(self.kind.as_str())),
            ("series".to_owned(), Value::from(self.series.as_str())),
            ("value".to_owned(), Value::Num(self.value)),
            ("threshold".to_owned(), Value::Num(self.threshold)),
            ("since_nanos".to_owned(), Value::from(self.since_nanos)),
        ])
    }
}

/// Per-SLO mutable evaluation state.
#[derive(Debug, Clone, Default)]
struct SloState {
    active: bool,
    since_nanos: u64,
    last_burn_fast: f64,
    last_burn_slow: f64,
}

/// Per-detector mutable evaluation state.
#[derive(Debug, Clone)]
struct AnomalyState {
    mean: f64,
    dev: f64,
    seen: u64,
    consumed: u64,
    active: bool,
    since_nanos: u64,
    last_z: f64,
}

impl Default for AnomalyState {
    fn default() -> Self {
        AnomalyState {
            mean: 0.0,
            dev: 0.0,
            seen: 0,
            consumed: 0,
            active: false,
            since_nanos: 0,
            last_z: 0.0,
        }
    }
}

#[derive(Debug, Default)]
struct EngineState {
    slos: Vec<SloState>,
    anomalies: Vec<AnomalyState>,
    evaluations: u64,
    raised: u64,
}

/// The objective evaluator: a set of [`SloSpec`]s and [`AnomalySpec`]s
/// judged against a [`Telemetry`] registry once per sampler tick (see
/// the module docs). All state lives behind a mutex taken only by
/// [`SloEngine::evaluate`] and the read accessors — the serving hot
/// path never touches it.
#[derive(Debug, Default)]
pub struct SloEngine {
    slos: Vec<SloSpec>,
    anomalies: Vec<AnomalySpec>,
    events: Option<Arc<EventLog>>,
    state: Mutex<EngineState>,
}

impl SloEngine {
    /// An engine with no objectives (add them with [`SloEngine::slo`]
    /// / [`SloEngine::anomaly`]).
    #[must_use]
    pub fn new() -> SloEngine {
        SloEngine::default()
    }

    /// Adds one SLO (builder style).
    #[must_use]
    pub fn slo(mut self, spec: SloSpec) -> SloEngine {
        self.slos.push(spec);
        self.state
            .get_mut()
            .expect("engine state")
            .slos
            .push(SloState::default());
        self
    }

    /// Adds one anomaly detector (builder style).
    #[must_use]
    pub fn anomaly(mut self, spec: AnomalySpec) -> SloEngine {
        self.anomalies.push(spec);
        self.state
            .get_mut()
            .expect("engine state")
            .anomalies
            .push(AnomalyState::default());
        self
    }

    /// Wires the event log alert events are pushed into (builder
    /// style). Without one, breaches still drive the emitted series but
    /// no events are recorded.
    #[must_use]
    pub fn with_event_log(mut self, events: Arc<EventLog>) -> SloEngine {
        self.events = Some(events);
        self
    }

    /// The configured SLOs.
    #[must_use]
    pub fn specs(&self) -> &[SloSpec] {
        &self.slos
    }

    /// The configured anomaly detectors.
    #[must_use]
    pub fn anomaly_specs(&self) -> &[AnomalySpec] {
        &self.anomalies
    }

    /// Whether the engine has anything to evaluate.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slos.is_empty() && self.anomalies.is_empty()
    }

    /// Completed evaluations.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.state.lock().expect("engine state").evaluations
    }

    /// Alerts raised since construction (rising edges; resolutions do
    /// not decrement).
    #[must_use]
    pub fn alerts_raised(&self) -> u64 {
        self.state.lock().expect("engine state").raised
    }

    /// The currently firing alerts, SLOs first, in spec order.
    #[must_use]
    pub fn active_alerts(&self) -> Vec<ActiveAlert> {
        let st = self.state.lock().expect("engine state");
        let mut out = Vec::new();
        for (spec, s) in self.slos.iter().zip(&st.slos) {
            if s.active {
                out.push(ActiveAlert {
                    name: spec.name.clone(),
                    kind: AlertKind::BurnRate,
                    series: spec.series.clone(),
                    value: s.last_burn_fast,
                    threshold: spec.burn_threshold,
                    since_nanos: s.since_nanos,
                });
            }
        }
        for (spec, s) in self.anomalies.iter().zip(&st.anomalies) {
            if s.active {
                out.push(ActiveAlert {
                    name: format!("anomaly:{}", spec.series),
                    kind: AlertKind::Anomaly,
                    series: spec.series.clone(),
                    value: s.last_z,
                    threshold: spec.z_threshold,
                    since_nanos: s.since_nanos,
                });
            }
        }
        out
    }

    /// Evaluates every objective against the registry: computes the
    /// multi-window burn rates, feeds the anomaly detectors, records
    /// the `slo_burn_rate{slo=...}` / `alert_active{slo=...}` /
    /// `anomaly_z{series=...}` series, and pushes `alert` events on
    /// every raise/resolve edge. Called once per sampler tick, off the
    /// serving hot path.
    ///
    /// # Panics
    /// Panics if a prior evaluation panicked while holding the state
    /// lock.
    #[allow(clippy::cast_precision_loss)]
    pub fn evaluate(&self, t: &Telemetry) {
        let now = t.now_nanos();
        let mut st = self.state.lock().expect("engine state");
        st.evaluations += 1;
        for (i, spec) in self.slos.iter().enumerate() {
            let samples = t.get(&spec.series).map(|s| s.samples()).unwrap_or_default();
            let budget = spec.budget.max(1e-9);
            let bad_frac = |window: usize| -> f64 {
                let n = samples.len().min(window.max(1));
                if n == 0 {
                    return 0.0;
                }
                let slice = &samples[samples.len() - n..];
                let bad = slice
                    .iter()
                    .filter(|s| spec.objective.is_bad(s.value))
                    .count();
                bad as f64 / n as f64
            };
            let warm = samples.len() >= spec.min_samples.max(1);
            let burn_fast = if warm {
                bad_frac(spec.fast_window) / budget
            } else {
                0.0
            };
            let burn_slow = if warm {
                bad_frac(spec.slow_window) / budget
            } else {
                0.0
            };
            let breached =
                warm && burn_fast >= spec.burn_threshold && burn_slow >= spec.burn_threshold;
            t.record(
                &format!("slo_burn_rate{{slo=\"{}\"}}", spec.name),
                burn_fast,
            );
            t.record(
                &format!("alert_active{{slo=\"{}\"}}", spec.name),
                f64::from(u8::from(breached)),
            );
            let s = &mut st.slos[i];
            s.last_burn_fast = burn_fast;
            s.last_burn_slow = burn_slow;
            if breached != s.active {
                s.active = breached;
                if breached {
                    s.since_nanos = now;
                    st.raised += 1;
                }
                self.push_event(
                    Span::leaf("alert", now, SpanIo::default())
                        .with_attr("slo", spec.name.as_str())
                        .with_attr("kind", AlertKind::BurnRate.as_str())
                        .with_attr("state", if breached { "raised" } else { "resolved" })
                        .with_attr("series", spec.series.as_str())
                        .with_attr("objective", spec.objective.kind())
                        .with_attr("bound", spec.objective.bound())
                        .with_attr("burn_fast", burn_fast)
                        .with_attr("burn_slow", burn_slow)
                        .with_attr("burn_threshold", spec.burn_threshold),
                );
            }
        }
        for (i, spec) in self.anomalies.iter().enumerate() {
            let Some(series) = t.get(&spec.series) else {
                continue;
            };
            let recorded = series.recorded();
            let latest = series.latest();
            let s = &mut st.anomalies[i];
            if recorded == s.consumed {
                continue;
            }
            s.consumed = recorded;
            let Some(sample) = latest else { continue };
            let x = sample.value;
            let denom = (1.4826 * s.dev).max(0.01 * s.mean.abs()).max(1e-9);
            let z = if s.seen >= spec.min_samples.max(1) {
                (x - s.mean).abs() / denom
            } else {
                0.0
            };
            s.last_z = z;
            t.record(&format!("anomaly_z{{series=\"{}\"}}", spec.series), z);
            let firing = z >= spec.z_threshold;
            let edge = firing != s.active;
            let ewma = s.mean;
            if edge {
                s.active = firing;
                if firing {
                    s.since_nanos = now;
                }
            }
            // The EWMA updates after judging, so an outlier is scored
            // against the history it deviates from, then absorbed —
            // a sustained step change therefore alerts once and
            // becomes the new normal (the rebaseline-by-decay analogue
            // of WorkloadProfile::rebaseline).
            if s.seen == 0 {
                s.mean = x;
            } else {
                let a = spec.alpha.clamp(1e-6, 1.0);
                s.dev = (1.0 - a) * s.dev + a * (x - s.mean).abs();
                s.mean = (1.0 - a) * s.mean + a * x;
            }
            s.seen += 1;
            if edge {
                if firing {
                    st.raised += 1;
                }
                self.push_event(
                    Span::leaf("alert", now, SpanIo::default())
                        .with_attr("slo", format!("anomaly:{}", spec.series).as_str())
                        .with_attr("kind", AlertKind::Anomaly.as_str())
                        .with_attr("state", if firing { "raised" } else { "resolved" })
                        .with_attr("series", spec.series.as_str())
                        .with_attr("z", z)
                        .with_attr("value", x)
                        .with_attr("ewma", ewma)
                        .with_attr("z_threshold", spec.z_threshold),
                );
            }
        }
    }

    /// The engine as a JSON object: specs, counters, and the active
    /// alert list — the `alerts` section of a diagnostic bundle.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let st = self.state.lock().expect("engine state");
        let slos = self
            .slos
            .iter()
            .zip(&st.slos)
            .map(|(spec, s)| {
                Value::Obj(vec![
                    ("name".to_owned(), Value::from(spec.name.as_str())),
                    ("series".to_owned(), Value::from(spec.series.as_str())),
                    ("objective".to_owned(), Value::from(spec.objective.kind())),
                    ("bound".to_owned(), Value::Num(spec.objective.bound())),
                    ("budget".to_owned(), Value::Num(spec.budget)),
                    ("fast_window".to_owned(), Value::from(spec.fast_window)),
                    ("slow_window".to_owned(), Value::from(spec.slow_window)),
                    ("burn_threshold".to_owned(), Value::Num(spec.burn_threshold)),
                    ("burn_fast".to_owned(), Value::Num(s.last_burn_fast)),
                    ("burn_slow".to_owned(), Value::Num(s.last_burn_slow)),
                    ("active".to_owned(), Value::Bool(s.active)),
                ])
            })
            .collect();
        drop(st);
        Value::Obj(vec![
            ("slos".to_owned(), Value::Arr(slos)),
            ("evaluations".to_owned(), Value::from(self.evaluations())),
            ("raised".to_owned(), Value::from(self.alerts_raised())),
            (
                "active".to_owned(),
                Value::Arr(
                    self.active_alerts()
                        .iter()
                        .map(ActiveAlert::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    fn push_event(&self, span: Span) {
        if let Some(events) = &self.events {
            events.push(Arc::new(span));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with_log(engine: SloEngine) -> (SloEngine, Arc<EventLog>) {
        let log = Arc::new(EventLog::new(64));
        (engine.with_event_log(Arc::clone(&log)), log)
    }

    fn push_n(t: &Telemetry, name: &str, n: usize, v: f64) {
        let s = t.series(name);
        for _ in 0..n {
            s.push(t.now_nanos(), v);
        }
    }

    #[test]
    fn latency_slo_fires_on_sustained_breach_not_on_blip() {
        let t = Telemetry::new(128);
        let (engine, log) = engine_with_log(SloEngine::new().slo(SloSpec::latency(
            "query-p99",
            "query_p99_us",
            1000.0,
        )));
        // Healthy steady state.
        push_n(&t, "query_p99_us", 30, 200.0);
        engine.evaluate(&t);
        assert!(engine.active_alerts().is_empty());
        assert_eq!(engine.alerts_raised(), 0);
        // One blip: the fast window burns hot but the slow window
        // dilutes it below 2x the 5% budget (1/31 ≈ 3.2% < 10%).
        push_n(&t, "query_p99_us", 1, 5000.0);
        engine.evaluate(&t);
        assert!(engine.active_alerts().is_empty(), "one blip must not page");
        // Sustained regression: both windows saturate.
        push_n(&t, "query_p99_us", 12, 5000.0);
        engine.evaluate(&t);
        let alerts = engine.active_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].name, "query-p99");
        assert_eq!(alerts[0].kind, AlertKind::BurnRate);
        assert!(alerts[0].value >= 2.0, "burn {}", alerts[0].value);
        assert_eq!(engine.alerts_raised(), 1);
        // The emitted series carry the verdict.
        assert!(
            t.get("slo_burn_rate{slo=\"query-p99\"}")
                .expect("burn series")
                .latest()
                .expect("sample")
                .value
                >= 2.0
        );
        assert_eq!(
            t.get("alert_active{slo=\"query-p99\"}")
                .expect("active series")
                .latest()
                .expect("sample")
                .value,
            1.0
        );
        // And the raise landed as a typed event.
        let raise = log
            .snapshot()
            .into_iter()
            .find(|s| s.name == "alert")
            .expect("alert event");
        assert_eq!(raise.attr_str("slo"), Some("query-p99"));
        assert_eq!(raise.attr_str("kind"), Some("burn_rate"));
        assert_eq!(raise.attr_str("state"), Some("raised"));
        // Recovery resolves (the windows drain as good samples push
        // the bad ones out of both windows).
        push_n(&t, "query_p99_us", 128, 100.0);
        engine.evaluate(&t);
        assert!(engine.active_alerts().is_empty());
        let resolved = log
            .snapshot()
            .into_iter()
            .filter(|s| s.name == "alert" && s.attr_str("state") == Some("resolved"))
            .count();
        assert_eq!(resolved, 1);
        assert_eq!(engine.alerts_raised(), 1, "resolve is not a raise");
    }

    #[test]
    fn fault_slo_fires_on_first_poisoned_sample() {
        let t = Telemetry::new(64);
        let engine = SloEngine::new().slo(SloSpec::fault("shard-fault", "poisoned{shard=\"1\"}"));
        push_n(&t, "poisoned{shard=\"1\"}", 5, 0.0);
        engine.evaluate(&t);
        assert!(engine.active_alerts().is_empty());
        push_n(&t, "poisoned{shard=\"1\"}", 1, 1.0);
        engine.evaluate(&t);
        let alerts = engine.active_alerts();
        assert_eq!(alerts.len(), 1, "fault budget must page on one sample");
        assert_eq!(alerts[0].name, "shard-fault");
    }

    #[test]
    fn warm_up_guard_suppresses_empty_and_short_series() {
        let t = Telemetry::new(64);
        let engine = SloEngine::new().slo(SloSpec::latency("query-p99", "query_p99_us", 1000.0));
        // Missing series: burn reads 0, nothing fires.
        engine.evaluate(&t);
        assert!(engine.active_alerts().is_empty());
        assert_eq!(
            t.get("slo_burn_rate{slo=\"query-p99\"}")
                .expect("recorded even when the watched series is absent")
                .latest()
                .expect("sample")
                .value,
            0.0
        );
        // Below min_samples: still quiet, even though every sample is bad.
        push_n(&t, "query_p99_us", 2, 9000.0);
        engine.evaluate(&t);
        assert!(engine.active_alerts().is_empty());
        // At min_samples the judgment starts.
        push_n(&t, "query_p99_us", 1, 9000.0);
        engine.evaluate(&t);
        assert_eq!(engine.active_alerts().len(), 1);
    }

    #[test]
    fn anomaly_detector_scores_step_change_and_absorbs_it() {
        let t = Telemetry::new(256);
        let (engine, log) =
            engine_with_log(SloEngine::new().anomaly(AnomalySpec::over("queue_depth_total")));
        let series = t.series("queue_depth_total");
        // Stable phase: feed one sample per evaluation, like the sampler.
        for i in 0..30 {
            series.push(t.now_nanos(), 10.0 + f64::from(i % 2));
            engine.evaluate(&t);
        }
        assert!(engine.active_alerts().is_empty(), "stable series is quiet");
        // Step change: 10 -> 200.
        series.push(t.now_nanos(), 200.0);
        engine.evaluate(&t);
        let alerts = engine.active_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Anomaly);
        assert!(alerts[0].value >= 4.0, "z = {}", alerts[0].value);
        let event = log
            .snapshot()
            .into_iter()
            .find(|s| s.name == "alert")
            .expect("anomaly event");
        assert_eq!(event.attr_str("kind"), Some("anomaly"));
        assert_eq!(event.attr_str("series"), Some("queue_depth_total"));
        // The z series was recorded.
        assert!(t.get("anomaly_z{series=\"queue_depth_total\"}").is_some());
        // The new level becomes normal again (EWMA absorbs it).
        for _ in 0..40 {
            series.push(t.now_nanos(), 200.0);
            engine.evaluate(&t);
        }
        assert!(
            engine.active_alerts().is_empty(),
            "sustained level must be absorbed"
        );
    }

    #[test]
    fn anomaly_detector_consumes_each_sample_once() {
        let t = Telemetry::new(64);
        let engine = SloEngine::new().anomaly(AnomalySpec {
            min_samples: 2,
            ..AnomalySpec::over("g")
        });
        let series = t.series("g");
        series.push(t.now_nanos(), 5.0);
        // Re-evaluating without new samples must not re-feed the EWMA.
        for _ in 0..10 {
            engine.evaluate(&t);
        }
        series.push(t.now_nanos(), 5.0);
        engine.evaluate(&t);
        series.push(t.now_nanos(), 5.0);
        engine.evaluate(&t);
        // Three samples consumed, three seen: a fourth identical one
        // scores z = 0.
        series.push(t.now_nanos(), 5.0);
        engine.evaluate(&t);
        assert_eq!(
            t.get("anomaly_z{series=\"g\"}")
                .expect("z series")
                .latest()
                .expect("sample")
                .value,
            0.0
        );
        assert!(engine.active_alerts().is_empty());
    }

    #[test]
    fn engine_json_round_trips() {
        let t = Telemetry::new(64);
        let engine = SloEngine::new()
            .slo(SloSpec::fault("shard-fault", "poisoned{shard=\"0\"}"))
            .slo(SloSpec::staleness("snap-age", "snapshot_age_ticks", 50.0));
        push_n(&t, "poisoned{shard=\"0\"}", 2, 1.0);
        engine.evaluate(&t);
        let doc = Value::parse(&engine.to_json().render_pretty()).expect("engine JSON parses");
        let slos = doc.get("slos").and_then(Value::as_array).expect("slos");
        assert_eq!(slos.len(), 2);
        assert_eq!(
            slos[0].get("name").and_then(Value::as_str),
            Some("shard-fault")
        );
        assert_eq!(slos[0].get("active").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("raised").and_then(Value::as_u64), Some(1));
        let active = doc.get("active").and_then(Value::as_array).expect("active");
        assert_eq!(active.len(), 1);
        assert_eq!(
            active[0].get("kind").and_then(Value::as_str),
            Some("burn_rate")
        );
    }
}
