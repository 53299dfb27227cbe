//! Continuous telemetry: time series, a sampling thread, workload
//! characterization, and exposition.
//!
//! Everything before this module observes one *instant* (a
//! `ShardHealth`-style snapshot) or one *operation* (a span tree). A
//! serving tier also needs the axis nobody was watching: **time**. This
//! module provides the pieces:
//!
//! * [`TimeSeries`] — a lock-free fixed-capacity ring of timestamped
//!   samples with min/max/mean/quantile reduction over the retained
//!   window;
//! * [`Telemetry`] — a named registry of series sharing one epoch, with
//!   a JSON report ([`Telemetry::to_json`]);
//! * [`Sampler`] — a background thread invoking a harvest closure on a
//!   configurable tick (the serve tier points it at every shard's
//!   health state);
//! * [`WorkloadProfile`] — an online characterizer of the update/query
//!   stream (velocity histogram, query selectivity, update:query mix)
//!   with windowed drift detection: the L1 and earth-mover's distances
//!   between the current velocity window and a reference window, exposed
//!   as a gauge and as `drift` events in an [`EventLog`]. This is the
//!   signal the speed-partitioned index family needs to decide *when*
//!   to repartition (Speed Partitioning for Indexing Moving Objects).
//!
//! The sampling discipline mirrors the rest of the crate: writers touch
//! relaxed atomics only, readers snapshot best-effort, and nothing on a
//! hot path takes a lock (the only mutexes guard the cold
//! window-close/registry paths).

use crate::event_log::EventLog;
use crate::json::Value;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::span::Span;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One timestamped observation of a [`TimeSeries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Offset from the owning registry's epoch, in nanoseconds.
    pub t_nanos: u64,
    /// The observed value.
    pub value: f64,
}

/// A lock-free, fixed-capacity ring of timestamped samples.
///
/// Writers claim a slot with one relaxed `fetch_add` and store the
/// sample's two words; old samples are overwritten, never reallocated,
/// so the footprint is `capacity` slots regardless of how long the
/// series runs. Reads are best-effort like [`EventLog`]: a slot
/// mid-overwrite may pair the old timestamp with the new value (or vice
/// versa), which is acceptable for monitoring and avoided in practice
/// by the single-writer [`Sampler`] discipline.
#[derive(Debug)]
pub struct TimeSeries {
    t: Box<[AtomicU64]>,
    v: Box<[AtomicU64]>,
    head: AtomicU64,
}

impl TimeSeries {
    /// Creates a series retaining the most recent `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> TimeSeries {
        assert!(capacity > 0, "TimeSeries capacity must be nonzero");
        TimeSeries {
            t: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            v: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.t.len()
    }

    /// Total samples ever pushed (exceeds `capacity` once wrapped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Relaxed)
    }

    /// Samples overwritten by wrap-around.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.t.len() as u64)
    }

    /// Samples currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::try_from(self.recorded())
            .unwrap_or(usize::MAX)
            .min(self.t.len())
    }

    /// `true` when nothing has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.recorded() == 0
    }

    /// Appends a sample, overwriting the oldest when full.
    pub fn push(&self, t_nanos: u64, value: f64) {
        let seq = self.head.fetch_add(1, Relaxed);
        let slot = usize::try_from(seq % self.t.len() as u64).expect("mod of usize capacity");
        self.t[slot].store(t_nanos, Relaxed);
        self.v[slot].store(value.to_bits(), Relaxed);
    }

    /// The retained window, oldest first (best-effort under a concurrent
    /// writer).
    #[must_use]
    pub fn samples(&self) -> Vec<Sample> {
        let head = self.recorded();
        let cap = self.t.len() as u64;
        let oldest = head.saturating_sub(cap);
        (oldest..head)
            .map(|seq| {
                let slot = usize::try_from(seq % cap).expect("mod of usize capacity");
                Sample {
                    t_nanos: self.t[slot].load(Relaxed),
                    value: f64::from_bits(self.v[slot].load(Relaxed)),
                }
            })
            .collect()
    }

    /// The most recent sample, if any.
    #[must_use]
    pub fn latest(&self) -> Option<Sample> {
        let head = self.recorded();
        if head == 0 {
            return None;
        }
        let slot =
            usize::try_from((head - 1) % self.t.len() as u64).expect("mod of usize capacity");
        Some(Sample {
            t_nanos: self.t[slot].load(Relaxed),
            value: f64::from_bits(self.v[slot].load(Relaxed)),
        })
    }

    /// Min/max/mean/last reduction over the retained window.
    #[must_use]
    pub fn summary(&self) -> SeriesSummary {
        let samples = self.samples();
        if samples.is_empty() {
            return SeriesSummary::default();
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for s in &samples {
            min = min.min(s.value);
            max = max.max(s.value);
            sum += s.value;
        }
        #[allow(clippy::cast_precision_loss)]
        SeriesSummary {
            count: samples.len() as u64,
            min,
            max,
            mean: sum / samples.len() as f64,
            last: samples.last().expect("nonempty").value,
        }
    }

    /// Exact `q`-quantile (`q` in `[0, 1]`, nearest-rank with clamping)
    /// over the retained window; 0.0 when empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let mut values: Vec<f64> = self.samples().iter().map(|s| s.value).collect();
        if values.is_empty() {
            return 0.0;
        }
        values.sort_by(f64::total_cmp);
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_sign_loss,
            clippy::cast_possible_truncation
        )]
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        values[rank - 1]
    }
}

/// A point-in-time reduction of a [`TimeSeries`] window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SeriesSummary {
    /// Retained samples.
    pub count: u64,
    /// Smallest retained value (0.0 when empty).
    pub min: f64,
    /// Largest retained value (0.0 when empty).
    pub max: f64,
    /// Mean retained value (0.0 when empty).
    pub mean: f64,
    /// Most recent value (0.0 when empty).
    pub last: f64,
}

impl SeriesSummary {
    /// The summary as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("count".to_owned(), Value::from(self.count)),
            ("min".to_owned(), Value::Num(self.min)),
            ("max".to_owned(), Value::Num(self.max)),
            ("mean".to_owned(), Value::Num(self.mean)),
            ("last".to_owned(), Value::Num(self.last)),
        ])
    }
}

/// A named registry of [`TimeSeries`] sharing one epoch.
///
/// Series names follow the Prometheus convention with optional labels:
/// `queue_depth{shard="0"}`. [`Telemetry::series`] get-or-creates, so
/// harvest code never checks registration; the registry lock guards only
/// the name table (pushes to an already-obtained series are lock-free).
#[derive(Debug)]
pub struct Telemetry {
    series: Mutex<Vec<(String, Arc<TimeSeries>)>>,
    capacity: usize,
    epoch: Instant,
}

impl Telemetry {
    /// Creates an empty registry whose series retain `capacity` samples
    /// each, measuring time from now.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Telemetry {
        assert!(capacity > 0, "Telemetry capacity must be nonzero");
        Telemetry {
            series: Mutex::new(Vec::new()),
            capacity,
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the registry's epoch.
    #[must_use]
    pub fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The registry's time base.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Get-or-creates the series named `name`.
    #[must_use]
    pub fn series(&self, name: &str) -> Arc<TimeSeries> {
        let mut table = self.series.lock().expect("telemetry registry");
        if let Some((_, s)) = table.iter().find(|(n, _)| n == name) {
            return Arc::clone(s);
        }
        let s = Arc::new(TimeSeries::new(self.capacity));
        table.push((name.to_owned(), Arc::clone(&s)));
        s
    }

    /// The series named `name`, if registered.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<TimeSeries>> {
        self.series
            .lock()
            .expect("telemetry registry")
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| Arc::clone(s))
    }

    /// Registered series names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.series
            .lock()
            .expect("telemetry registry")
            .iter()
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Pushes `value` into `name`, stamped with the current epoch
    /// offset.
    pub fn record(&self, name: &str, value: f64) {
        self.series(name).push(self.now_nanos(), value);
    }

    /// The full registry as a JSON value: per-series samples (as
    /// `[t_nanos, value]` pairs) and window summaries.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let table = self.series.lock().expect("telemetry registry");
        Value::Obj(vec![
            ("capacity".to_owned(), Value::from(self.capacity)),
            (
                "series".to_owned(),
                Value::Arr(
                    table
                        .iter()
                        .map(|(name, s)| {
                            Value::Obj(vec![
                                ("name".to_owned(), Value::Str(name.clone())),
                                ("recorded".to_owned(), Value::from(s.recorded())),
                                ("dropped".to_owned(), Value::from(s.dropped())),
                                ("summary".to_owned(), s.summary().to_json()),
                                (
                                    "samples".to_owned(),
                                    Value::Arr(
                                        s.samples()
                                            .iter()
                                            .map(|p| {
                                                Value::Arr(vec![
                                                    Value::from(p.t_nanos),
                                                    Value::Num(p.value),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Shared stop signal of a [`Sampler`] thread.
#[derive(Debug, Default)]
struct SamplerSignal {
    stopped: Mutex<bool>,
    wake: Condvar,
}

/// A background thread invoking a harvest closure every `tick`.
///
/// The closure runs on the sampler thread; it is expected to read shared
/// atomics (health snapshots, I/O counters) and push into [`Telemetry`]
/// series. Dropping the sampler stops the thread promptly (the sleep is
/// a condvar wait, not a hard `sleep`) and joins it.
#[derive(Debug)]
pub struct Sampler {
    signal: Arc<SamplerSignal>,
    ticks: Arc<Counter>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Spawns the sampling thread: `harvest` runs once per `tick` until
    /// the sampler is dropped (first run after one tick).
    ///
    /// # Panics
    /// Panics if the thread cannot be spawned.
    #[must_use]
    pub fn spawn(tick: Duration, mut harvest: impl FnMut() + Send + 'static) -> Sampler {
        let signal = Arc::new(SamplerSignal::default());
        let ticks = Arc::new(Counter::new());
        let thread_signal = Arc::clone(&signal);
        let thread_ticks = Arc::clone(&ticks);
        let handle = std::thread::Builder::new()
            .name("mobidx-sampler".to_owned())
            .spawn(move || loop {
                let mut stopped = thread_signal.stopped.lock().expect("sampler signal");
                while !*stopped {
                    let (guard, timeout) = thread_signal
                        .wake
                        .wait_timeout(stopped, tick)
                        .expect("sampler signal");
                    stopped = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
                if *stopped {
                    return;
                }
                drop(stopped);
                harvest();
                thread_ticks.incr();
            })
            .expect("spawn sampler thread");
        Sampler {
            signal,
            ticks,
            handle: Some(handle),
        }
    }

    /// Completed harvest ticks.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.get()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        *self.signal.stopped.lock().expect("sampler signal") = true;
        self.signal.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Sizing and thresholds of a [`WorkloadProfile`].
#[derive(Debug, Clone, Copy)]
pub struct ProfileConfig {
    /// Velocity-histogram bins over `[v_min, v_max]`.
    pub bins: usize,
    /// Smallest expected speed (|v|); slower observations clamp to the
    /// first bin.
    pub v_min: f64,
    /// Largest expected speed; faster observations clamp to the last
    /// bin.
    pub v_max: f64,
    /// Update observations per drift window.
    pub window: u64,
    /// L1 distance (in `[0, 2]`) above which a completed window raises a
    /// drift event.
    pub drift_threshold: f64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        // The paper's speed band (10–100 mph in miles/minute); 8 bins
        // keep per-window sampling noise at ~0.05 L1 for the default
        // 2000-observation window, an order of magnitude under the
        // threshold.
        Self {
            bins: 8,
            v_min: 0.16,
            v_max: 1.66,
            window: 2000,
            drift_threshold: 0.35,
        }
    }
}

/// The two drift distances between the current and reference velocity
/// windows (both over normalized histograms).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DriftScore {
    /// Total variation ×2: `Σ |p_i − q_i|`, in `[0, 2]`.
    pub l1: f64,
    /// Earth-mover's distance on the binned line, normalized by the
    /// histogram span so it lands in `[0, 1]`.
    pub emd: f64,
}

/// An online characterizer of the update/query stream with windowed
/// drift detection.
///
/// Updates feed the current window's velocity histogram through relaxed
/// atomics; every `window` observations the window closes (under a cold
/// mutex): the **first** completed window becomes the *reference*
/// distribution, and every later one is compared against it. The L1
/// distance lands in [`WorkloadProfile::drift_millis`] (a gauge, in
/// thousandths) and, when it crosses the threshold, a `drift` event
/// [`Span`] is pushed into the attached [`EventLog`]. A repartitioner
/// that has adapted to the new distribution calls
/// [`WorkloadProfile::rebaseline`] to make the next completed window the
/// new reference.
///
/// Queries feed a selectivity histogram (per-mille of the population)
/// so the profile also answers "what do queries look like" — the other
/// axis the index-advisor papers condition on.
#[derive(Debug)]
pub struct WorkloadProfile {
    cfg: ProfileConfig,
    /// Current-window velocity counts.
    bins: Box<[AtomicU64]>,
    /// Observations in the current window.
    window_obs: AtomicU64,
    /// Lifetime update observations.
    updates: Counter,
    /// Lifetime query observations.
    queries: Counter,
    /// Query selectivity in per-mille of the population.
    selectivity_pm: Histogram,
    /// Cold state: the reference distribution and rebaseline flag.
    state: Mutex<ProfileState>,
    /// Latest drift L1 distance, in thousandths (gauge exposition).
    drift_millis: Gauge,
    /// Latest scores, as bits (atomic f64).
    last_l1: AtomicU64,
    last_emd: AtomicU64,
    /// Completed windows.
    windows: Counter,
    /// Threshold crossings.
    drift_events: Counter,
    /// Sink for drift event spans.
    events: Option<Arc<EventLog>>,
    epoch: Instant,
}

#[derive(Debug, Default)]
struct ProfileState {
    reference: Option<Vec<f64>>,
    rebaseline: bool,
}

impl WorkloadProfile {
    /// Creates an empty profile measuring event times from now.
    ///
    /// # Panics
    /// Panics unless `bins ≥ 2`, `v_min < v_max`, and `window > 0`.
    #[must_use]
    pub fn new(cfg: ProfileConfig) -> WorkloadProfile {
        assert!(cfg.bins >= 2, "need at least two velocity bins");
        assert!(cfg.v_min < cfg.v_max, "empty speed band");
        assert!(cfg.window > 0, "empty drift window");
        WorkloadProfile {
            cfg,
            bins: (0..cfg.bins).map(|_| AtomicU64::new(0)).collect(),
            window_obs: AtomicU64::new(0),
            updates: Counter::new(),
            queries: Counter::new(),
            selectivity_pm: Histogram::new(),
            state: Mutex::new(ProfileState::default()),
            drift_millis: Gauge::new(),
            last_l1: AtomicU64::new(0f64.to_bits()),
            last_emd: AtomicU64::new(0f64.to_bits()),
            windows: Counter::new(),
            drift_events: Counter::new(),
            events: None,
            epoch: Instant::now(),
        }
    }

    /// Attaches an [`EventLog`] that receives a `drift` span whenever a
    /// completed window crosses the threshold (builder-style).
    #[must_use]
    pub fn with_event_log(mut self, events: Arc<EventLog>) -> WorkloadProfile {
        self.events = Some(events);
        self
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ProfileConfig {
        &self.cfg
    }

    /// Records one motion update's velocity (sign is ignored — the
    /// partitioning papers band by speed). Closes the window when it
    /// fills.
    pub fn record_update(&self, velocity: f64) {
        self.updates.incr();
        self.bins[self.bin_of(velocity.abs())].fetch_add(1, Relaxed);
        let n = self.window_obs.fetch_add(1, Relaxed) + 1;
        if n % self.cfg.window == 0 {
            self.close_window();
        }
    }

    /// Records one answered query: `results` of `population` objects
    /// matched (selectivity tracked in per-mille).
    pub fn record_query(&self, results: u64, population: u64) {
        self.queries.incr();
        if let Some(pm) = (results * 1000).checked_div(population) {
            self.selectivity_pm.record(pm);
        }
    }

    /// Lifetime update observations.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates.get()
    }

    /// Lifetime query observations.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.queries.get()
    }

    /// Updates per query (`f64::INFINITY` before the first query).
    #[must_use]
    pub fn update_query_ratio(&self) -> f64 {
        let q = self.queries();
        #[allow(clippy::cast_precision_loss)]
        if q == 0 {
            f64::INFINITY
        } else {
            self.updates() as f64 / q as f64
        }
    }

    /// The query-selectivity histogram (per-mille of the population).
    #[must_use]
    pub fn selectivity_per_mille(&self) -> &Histogram {
        &self.selectivity_pm
    }

    /// Current-window per-band observation counts (the live velocity
    /// histogram; resets every window close).
    #[must_use]
    pub fn band_counts(&self) -> Vec<u64> {
        self.bins.iter().map(|b| b.load(Relaxed)).collect()
    }

    /// The reference distribution (normalized), once the first window
    /// has completed.
    #[must_use]
    pub fn reference(&self) -> Option<Vec<f64>> {
        self.state.lock().expect("profile state").reference.clone()
    }

    /// Latest drift scores (zero until the second window completes).
    #[must_use]
    pub fn drift(&self) -> DriftScore {
        DriftScore {
            l1: f64::from_bits(self.last_l1.load(Relaxed)),
            emd: f64::from_bits(self.last_emd.load(Relaxed)),
        }
    }

    /// Latest L1 drift in thousandths — the gauge the serving tier
    /// exposes.
    #[must_use]
    pub fn drift_millis(&self) -> u64 {
        self.drift_millis.get()
    }

    /// Completed drift windows.
    #[must_use]
    pub fn windows_closed(&self) -> u64 {
        self.windows.get()
    }

    /// Windows whose drift crossed the threshold.
    #[must_use]
    pub fn drift_events(&self) -> u64 {
        self.drift_events.get()
    }

    /// Makes the next completed window the new reference (call after
    /// adapting — e.g. repartitioning — to the drifted distribution).
    /// Also clears the drift gauge.
    pub fn rebaseline(&self) {
        let mut state = self.state.lock().expect("profile state");
        state.reference = None;
        state.rebaseline = false;
        self.drift_millis.set(0);
        self.last_l1.store(0f64.to_bits(), Relaxed);
        self.last_emd.store(0f64.to_bits(), Relaxed);
    }

    /// The profile as a JSON value (configuration, mix, selectivity
    /// percentiles, band counts, drift state).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let sel = self.selectivity_pm.snapshot();
        let drift = self.drift();
        let ratio = self.update_query_ratio();
        Value::Obj(vec![
            ("bins".to_owned(), Value::from(self.cfg.bins)),
            ("v_min".to_owned(), Value::Num(self.cfg.v_min)),
            ("v_max".to_owned(), Value::Num(self.cfg.v_max)),
            ("window".to_owned(), Value::from(self.cfg.window)),
            (
                "drift_threshold".to_owned(),
                Value::Num(self.cfg.drift_threshold),
            ),
            ("updates".to_owned(), Value::from(self.updates())),
            ("queries".to_owned(), Value::from(self.queries())),
            (
                "update_query_ratio".to_owned(),
                if ratio.is_finite() {
                    Value::Num(ratio)
                } else {
                    Value::Null
                },
            ),
            (
                "selectivity_per_mille".to_owned(),
                Value::Obj(vec![
                    ("count".to_owned(), Value::from(sel.count)),
                    ("mean".to_owned(), Value::Num(sel.mean)),
                    ("p50".to_owned(), Value::from(sel.p50)),
                    ("p95".to_owned(), Value::from(sel.p95)),
                    ("p99".to_owned(), Value::from(sel.p99)),
                    ("max".to_owned(), Value::from(sel.max)),
                ]),
            ),
            (
                "band_counts".to_owned(),
                Value::Arr(self.band_counts().into_iter().map(Value::from).collect()),
            ),
            (
                "reference".to_owned(),
                match self.reference() {
                    Some(r) => Value::Arr(r.into_iter().map(Value::Num).collect()),
                    None => Value::Null,
                },
            ),
            ("drift_l1".to_owned(), Value::Num(drift.l1)),
            ("drift_emd".to_owned(), Value::Num(drift.emd)),
            (
                "windows_closed".to_owned(),
                Value::from(self.windows_closed()),
            ),
            ("drift_events".to_owned(), Value::from(self.drift_events())),
        ])
    }

    /// The bin holding speed `s` (clamped to the configured band).
    fn bin_of(&self, s: f64) -> usize {
        let span = self.cfg.v_max - self.cfg.v_min;
        #[allow(clippy::cast_precision_loss)]
        let frac = ((s - self.cfg.v_min) / span).clamp(0.0, 1.0) * self.cfg.bins as f64;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        (frac as usize).min(self.cfg.bins - 1)
    }

    /// Closes the current window: snapshot + reset the bins, then either
    /// adopt the window as the reference or score it against the
    /// reference.
    fn close_window(&self) {
        let mut state = self.state.lock().expect("profile state");
        let counts: Vec<u64> = self.bins.iter().map(|b| b.swap(0, Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return;
        }
        #[allow(clippy::cast_precision_loss)]
        let current: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
        self.windows.incr();
        let window_no = self.windows.get();
        match &state.reference {
            None => state.reference = Some(current),
            Some(reference) => {
                let score = histogram_distance(reference, &current);
                self.last_l1.store(score.l1.to_bits(), Relaxed);
                self.last_emd.store(score.emd.to_bits(), Relaxed);
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                self.drift_millis.set((score.l1 * 1000.0).round() as u64);
                if score.l1 > self.cfg.drift_threshold {
                    self.drift_events.incr();
                    if let Some(events) = &self.events {
                        let t = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        events.push(Arc::new(
                            Span::leaf("drift", t, crate::span::SpanIo::default())
                                .with_attr("l1", score.l1)
                                .with_attr("emd", score.emd)
                                .with_attr("threshold", self.cfg.drift_threshold)
                                .with_attr("window", window_no),
                        ));
                    }
                }
            }
        }
    }
}

/// L1 and normalized earth-mover's distances between two normalized
/// histograms of equal length.
///
/// # Panics
/// Panics if the lengths differ.
#[must_use]
pub fn histogram_distance(p: &[f64], q: &[f64]) -> DriftScore {
    assert_eq!(p.len(), q.len(), "histogram arity mismatch");
    let mut l1 = 0.0;
    let mut cdf = 0.0;
    let mut emd = 0.0;
    for (a, b) in p.iter().zip(q) {
        l1 += (a - b).abs();
        cdf += a - b;
        emd += cdf.abs();
    }
    // On the unit-spaced binned line the EMD is the summed |CDF|
    // difference; dividing by (bins − 1) normalizes the span to 1, so a
    // full shift from the first to the last bin scores exactly 1.0.
    #[allow(clippy::cast_precision_loss)]
    DriftScore {
        l1,
        emd: if p.len() > 1 {
            emd / (p.len() - 1) as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_series_panics() {
        let _ = TimeSeries::new(0);
    }

    #[test]
    fn series_fills_wraps_and_reduces() {
        let s = TimeSeries::new(4);
        assert!(s.is_empty());
        assert_eq!(s.latest(), None);
        assert_eq!(s.summary(), SeriesSummary::default());
        for i in 0..6u64 {
            #[allow(clippy::cast_precision_loss)]
            s.push(i * 100, i as f64);
        }
        assert_eq!(s.recorded(), 6);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.len(), 4);
        let w = s.samples();
        assert_eq!(
            w.iter().map(|p| p.t_nanos).collect::<Vec<_>>(),
            [200, 300, 400, 500]
        );
        let sum = s.summary();
        assert_eq!(sum.count, 4);
        assert!((sum.min - 2.0).abs() < 1e-12);
        assert!((sum.max - 5.0).abs() < 1e-12);
        assert!((sum.mean - 3.5).abs() < 1e-12);
        assert!((sum.last - 5.0).abs() < 1e-12);
        assert!((s.quantile(0.0) - 2.0).abs() < 1e-12);
        assert!((s.quantile(0.5) - 3.0).abs() < 1e-12);
        assert!((s.quantile(1.0) - 5.0).abs() < 1e-12);
        assert_eq!(s.latest().expect("nonempty").t_nanos, 500);
    }

    #[test]
    fn series_quantile_empty_is_zero() {
        let s = TimeSeries::new(2);
        assert!(s.quantile(0.9).abs() < 1e-12);
    }

    #[test]
    fn concurrent_pushes_never_lose_count() {
        let s = Arc::new(TimeSeries::new(64));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        #[allow(clippy::cast_precision_loss)]
                        s.push(t * 1000 + i, i as f64);
                    }
                });
            }
        });
        assert_eq!(s.recorded(), 800);
        assert_eq!(s.len(), 64);
        assert!(s.samples().iter().all(|p| p.value >= 0.0));
    }

    #[test]
    fn registry_get_or_creates_and_records() {
        let t = Telemetry::new(8);
        let a = t.series("queue_depth{shard=\"0\"}");
        let b = t.series("queue_depth{shard=\"0\"}");
        assert!(Arc::ptr_eq(&a, &b), "same name, same series");
        t.record("queue_depth{shard=\"0\"}", 3.0);
        t.record("io_reads", 17.0);
        assert_eq!(a.len(), 1);
        assert_eq!(t.names().len(), 2);
        assert!(t.get("io_reads").is_some());
        assert!(t.get("missing").is_none());
    }

    #[test]
    fn telemetry_json_parses_and_carries_samples() {
        let t = Telemetry::new(4);
        t.record("x", 1.5);
        t.record("x", 2.5);
        let doc = Value::parse(&t.to_json().render_pretty()).expect("valid JSON");
        let series = doc.get("series").and_then(Value::as_array).expect("series");
        assert_eq!(series.len(), 1);
        let samples = series[0]
            .get("samples")
            .and_then(Value::as_array)
            .expect("samples");
        assert_eq!(samples.len(), 2);
        let pair = samples[1].as_array().expect("pair");
        assert!((pair[1].as_f64().expect("value") - 2.5).abs() < 1e-12);
        let summary = series[0].get("summary").expect("summary");
        assert_eq!(summary.get("count").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn sampler_ticks_and_stops() {
        let t = Arc::new(Telemetry::new(64));
        let series = t.series("tick");
        let sampler = {
            let series = Arc::clone(&series);
            let t = Arc::clone(&t);
            Sampler::spawn(Duration::from_millis(5), move || {
                series.push(t.now_nanos(), 1.0);
            })
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while sampler.ticks() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(sampler.ticks() >= 3, "sampler never ticked");
        drop(sampler);
        let after = series.recorded();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(series.recorded(), after, "sampler kept running after drop");
    }

    fn profile_cfg(window: u64) -> ProfileConfig {
        ProfileConfig {
            bins: 4,
            v_min: 0.0,
            v_max: 4.0,
            window,
            drift_threshold: 0.5,
        }
    }

    #[test]
    fn stationary_profile_never_fires() {
        let p = WorkloadProfile::new(profile_cfg(40));
        for round in 0..10 {
            for i in 0..40 {
                #[allow(clippy::cast_precision_loss)]
                p.record_update(((i + round) % 4) as f64 + 0.5);
            }
        }
        assert_eq!(p.windows_closed(), 10);
        assert_eq!(p.drift_events(), 0, "uniform stream must not drift");
        assert!(p.drift().l1 < 0.1, "l1 = {}", p.drift().l1);
    }

    #[test]
    fn shifted_distribution_fires_and_rebaseline_clears() {
        let log = Arc::new(EventLog::new(8));
        let p = WorkloadProfile::new(profile_cfg(40)).with_event_log(Arc::clone(&log));
        // Reference window: everything in bin 0.
        for _ in 0..40 {
            p.record_update(0.5);
        }
        assert_eq!(p.windows_closed(), 1);
        assert_eq!(p.drift_events(), 0, "first window only sets the reference");
        // Drifted window: everything in bin 3.
        for _ in 0..40 {
            p.record_update(3.5);
        }
        let d = p.drift();
        assert!(
            (d.l1 - 2.0).abs() < 1e-9,
            "disjoint histograms: l1 = {}",
            d.l1
        );
        assert!((d.emd - 1.0).abs() < 1e-9, "full shift: emd = {}", d.emd);
        assert_eq!(p.drift_millis(), 2000);
        assert_eq!(p.drift_events(), 1);
        let spans = log.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "drift");
        assert!(spans[0].attr("l1").is_some());
        assert_eq!(spans[0].attr_u64("window"), Some(2));
        // After rebaseline the next window becomes the new reference and
        // an identical follow-up window scores zero.
        p.rebaseline();
        assert_eq!(p.drift_millis(), 0);
        for _ in 0..80 {
            p.record_update(3.5);
        }
        assert_eq!(p.drift_events(), 1, "no new event after rebaseline");
        assert!(p.drift().l1 < 1e-9);
    }

    #[test]
    fn profile_tracks_mix_and_selectivity() {
        let p = WorkloadProfile::new(profile_cfg(1000));
        assert!(p.update_query_ratio().is_infinite());
        for _ in 0..30 {
            p.record_update(1.0);
        }
        p.record_query(100, 1000); // 10 % ⇒ 100 per-mille
        p.record_query(10, 1000);
        p.record_query(5, 0); // empty population: counted, not recorded
        assert_eq!(p.updates(), 30);
        assert_eq!(p.queries(), 3);
        assert!((p.update_query_ratio() - 10.0).abs() < 1e-12);
        assert_eq!(p.selectivity_per_mille().count(), 2);
        assert_eq!(p.selectivity_per_mille().max(), 100);
        assert_eq!(p.band_counts().iter().sum::<u64>(), 30);
    }

    #[test]
    fn profile_json_parses() {
        let p = WorkloadProfile::new(profile_cfg(10));
        for i in 0..25 {
            #[allow(clippy::cast_precision_loss)]
            p.record_update(f64::from(i % 4) + 0.1);
        }
        p.record_query(7, 100);
        let doc = Value::parse(&p.to_json().render_pretty()).expect("valid JSON");
        assert_eq!(doc.get("windows_closed").and_then(Value::as_u64), Some(2));
        assert_eq!(doc.get("updates").and_then(Value::as_u64), Some(25));
        let bands = doc
            .get("band_counts")
            .and_then(Value::as_array)
            .expect("band_counts");
        assert_eq!(bands.len(), 4);
        assert!(doc.get("reference").and_then(Value::as_array).is_some());
    }

    #[test]
    fn distance_identities() {
        let d = histogram_distance(&[0.5, 0.5], &[0.5, 0.5]);
        assert!(d.l1.abs() < 1e-12 && d.emd.abs() < 1e-12);
        let d = histogram_distance(&[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]);
        assert!((d.l1 - 2.0).abs() < 1e-12);
        assert!((d.emd - 1.0).abs() < 1e-12);
        // A one-bin shift moves half as far as a two-bin shift.
        let d = histogram_distance(&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]);
        assert!((d.emd - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn distance_rejects_mismatched_arity() {
        let _ = histogram_distance(&[1.0], &[0.5, 0.5]);
    }
}
