//! # mobidx-obs — observability for the mobile-object index stack
//!
//! The reproduction's primary metric is the I/O count of the
//! external-memory model, but diagnosing *why* a method costs what it
//! costs needs more: buffer hit rates, candidate-vs-result ratios (the
//! §3.5.2 approximation's false hits), and wall-clock latency
//! distributions. This crate provides the shared, dependency-free
//! vocabulary for all of that:
//!
//! * [`Counter`] / [`Gauge`] — relaxed-atomic scalars, safe to update
//!   through `&self` (no `Cell`, so instrumented types stay [`Sync`]);
//! * [`Histogram`] — a log-bucketed latency/value histogram with
//!   percentile estimation ([`Histogram::percentile`]) and cheap
//!   snapshots;
//! * [`Span`] / [`OpenSpan`] — hierarchical trace spans, the one
//!   per-query trace: one tree per query, `query → shard leg → index
//!   method → per-store I/O`, with wall-clock offsets from a shared
//!   epoch, leaf-attributed I/O deltas that reconcile with the I/O
//!   counters, and the candidates examined vs results returned on the
//!   root's attributes;
//! * [`EventLog`] — a bounded overwrite-on-wrap ring of recent spans;
//! * [`json`] — a minimal JSON emitter + parser so the bench harness can
//!   write machine-readable `BENCH_*.json` reports without external
//!   crates, plus the Perfetto-loadable [`json::chrome_trace`] exporter;
//! * [`telemetry`] — the time axis: lock-free [`TimeSeries`] rings, a
//!   [`Sampler`] thread harvesting health state on a tick, the
//!   [`WorkloadProfile`] characterizer with windowed velocity-drift
//!   detection, and JSON exposition ([`Telemetry`]);
//! * [`slo`] — the judgment layer: declarative objectives with
//!   multi-window burn-rate alerting and EWMA anomaly detection over
//!   any registered series ([`SloEngine`]), emitting typed `alert`
//!   events into the [`EventLog`].

#![deny(missing_docs)]

mod event_log;
pub mod json;
mod metrics;
pub mod slo;
mod span;
pub mod telemetry;

pub use event_log::EventLog;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use slo::{ActiveAlert, AlertKind, AnomalySpec, Objective, SloEngine, SloSpec};
pub use span::{OpenSpan, Span, SpanIo};
pub use telemetry::{
    DriftScore, ProfileConfig, Sample, Sampler, SeriesSummary, Telemetry, TimeSeries,
    WorkloadProfile,
};
