//! Drift-driven online repartitioning for a velocity-partitioned
//! serving tier.
//!
//! A [`ShardedDb`] over [`VpDualIndex`] gains three capabilities here:
//!
//! * [`ShardedDb::repartition_now`] — recompute optimal band
//!   boundaries from the live [`WorkloadProfile`](mobidx_obs::telemetry::WorkloadProfile) velocity histogram
//!   and migrate every shard to them **incrementally**: records move
//!   band-to-band in bounded chunks through the batched-update path on
//!   the shard's own worker thread, interleaved with live traffic, so
//!   serving never stalls. Reads stay exact throughout (the index
//!   widens its per-band query windows for the duration — see
//!   `mobidx_core::method::vp_dual`), and the published snapshot keeps
//!   serving the old layout until the migrated shard's step ends: that
//!   retires the shard's view, and the next snapshot read has the new
//!   layout frozen (same contents, so the commit epoch stands).
//! * [`ShardedDb::maybe_repartition`] — the drift subscription: runs
//!   `repartition_now` only when the profile has raised `drift` events
//!   not yet handled, and afterwards
//!   [`rebaseline`](mobidx_obs::telemetry::WorkloadProfile::rebaseline)s the profile's
//!   reference window so the *same* drift does not re-fire the trigger
//!   in a loop.
//! * [`start_repartitioner`] — a background scheduler thread polling
//!   `maybe_repartition` (and refreshing the per-shard band gauges the
//!   telemetry sampler exports).
//!
//! All progress is counted in [`RepartitionStats`], which the telemetry
//! sampler turns into `repartition_*` series and per-shard `bands`
//! gauges (what `mobidx-top` renders).

use crate::db::ShardedDb;
use crate::ServeError;
use mobidx_core::VpDualIndex;
use mobidx_obs::{Span, SpanIo};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of one repartition pass.
#[derive(Debug, Clone, Copy)]
pub struct RepartitionPolicy {
    /// Records migrated per worker-queue message. Each chunk is one
    /// bounded occupancy of the shard's worker thread; live applies and
    /// queries interleave between chunks.
    pub chunk: usize,
    /// Relative per-edge tolerance under which a planned layout counts
    /// as "already in place" and the shard is left untouched.
    pub edge_tolerance: f64,
}

impl Default for RepartitionPolicy {
    fn default() -> Self {
        RepartitionPolicy {
            chunk: 512,
            edge_tolerance: 0.02,
        }
    }
}

/// What one [`ShardedDb::repartition_now`] pass did.
#[derive(Debug, Clone, PartialEq)]
pub struct RepartitionReport {
    /// The band edges the optimizer planned from the current histogram.
    pub edges: Vec<f64>,
    /// Shards whose layout actually changed (the rest already matched
    /// within tolerance).
    pub shards_changed: usize,
    /// Records migrated band-to-band across all shards.
    pub moved: usize,
    /// Wall-clock duration of the pass.
    pub elapsed: Duration,
}

/// Shared, lock-free progress counters for online repartitioning.
/// One instance lives inside every [`ShardedDb`] (the counters stay at
/// zero for non-partitioned index types); the telemetry sampler
/// harvests it every tick.
#[derive(Debug)]
pub struct RepartitionStats {
    attempts: AtomicU64,
    completed: AtomicU64,
    skipped: AtomicU64,
    moved: AtomicU64,
    last_millis: AtomicU64,
    handled_drift: AtomicU64,
    bands: Vec<AtomicU64>,
    shard_completed: Vec<AtomicU64>,
}

impl RepartitionStats {
    pub(crate) fn new(shards: usize) -> RepartitionStats {
        RepartitionStats {
            attempts: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            moved: AtomicU64::new(0),
            last_millis: AtomicU64::new(0),
            handled_drift: AtomicU64::new(0),
            bands: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_completed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Repartition passes started.
    #[must_use]
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Passes that changed at least one shard's layout.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Passes that found every shard already within tolerance.
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Records migrated band-to-band, lifetime total.
    #[must_use]
    pub fn moved_total(&self) -> u64 {
        self.moved.load(Ordering::Relaxed)
    }

    /// Wall-clock milliseconds of the most recent completed pass.
    #[must_use]
    pub fn last_millis(&self) -> u64 {
        self.last_millis.load(Ordering::Relaxed)
    }

    /// Drift events already answered by a repartition attempt.
    #[must_use]
    pub fn handled_drift(&self) -> u64 {
        self.handled_drift.load(Ordering::Relaxed)
    }

    /// Last observed band count of `shard` (0 until first refreshed —
    /// an unpartitioned or never-polled shard).
    #[must_use]
    pub fn bands(&self, shard: usize) -> u64 {
        self.bands[shard].load(Ordering::Relaxed)
    }

    /// Layout changes applied to `shard`.
    #[must_use]
    pub fn shard_completed(&self, shard: usize) -> u64 {
        self.shard_completed[shard].load(Ordering::Relaxed)
    }

    pub(crate) fn set_bands(&self, shard: usize, bands: u64) {
        self.bands[shard].store(bands, Ordering::Relaxed);
    }
}

/// `true` when the two edge vectors describe the same layout within
/// `tol` relative error per edge.
fn edges_close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| (x - y).abs() <= tol * x.abs().max(y.abs()))
}

impl ShardedDb<VpDualIndex> {
    /// Recomputes optimal band boundaries from the live workload
    /// profile's velocity histogram and migrates every shard to them
    /// incrementally (see the [module docs](crate::repartition) for the
    /// protocol). Shards already within `policy.edge_tolerance` of the
    /// plan are left untouched. Always `rebaseline`s the profile
    /// afterwards — the layout now reflects the current distribution,
    /// so it is the new reference.
    ///
    /// # Errors
    /// Any [`ServeError`] from the per-shard round-trips; a shard that
    /// faults mid-migration is left to the normal poison/rebuild path
    /// (a rebuild constructs a fresh index, so no records are lost).
    pub fn repartition_now(
        &self,
        policy: &RepartitionPolicy,
    ) -> Result<RepartitionReport, ServeError> {
        let started = Instant::now();
        let stats = self.repartition_stats();
        stats.attempts.fetch_add(1, Ordering::Relaxed);
        let profile = self.profile();
        let hist = profile.band_counts();
        let (hist_lo, hist_hi) = {
            let cfg = profile.config();
            (cfg.v_min, cfg.v_max)
        };
        let mut planned = Vec::new();
        let mut moved = 0usize;
        let mut shards_changed = 0usize;
        for shard in 0..self.shards() {
            let plan_hist = hist.clone();
            let (plan, current) = self.with_shard(shard, move |idx| {
                (
                    idx.plan_boundaries(&plan_hist, hist_lo, hist_hi),
                    idx.band_edges().to_vec(),
                )
            })?;
            if planned.is_empty() {
                planned.clone_from(&plan);
            }
            if edges_close(&plan, &current, policy.edge_tolerance) {
                stats.set_bands(shard, (current.len() - 1) as u64);
                continue;
            }
            // Step 1: widen + install pending routing. Everything
            // applied after this point lands in its final band.
            self.with_shard(shard, move |idx| idx.begin_repartition(plan))?;
            // Step 2: snapshot the shard's population *after* begin (the
            // protocol's ordering requirement) and drain it in chunks,
            // each one bounded stay on the worker thread.
            let motions = self.shard_motions(shard);
            let chunk = policy.chunk.max(1);
            for piece in motions.chunks(chunk) {
                let piece = piece.to_vec();
                moved += self.with_shard(shard, move |idx| idx.migrate_chunk(&piece))?;
            }
            // Step 3: switch to the new layout — the old snapshot serves
            // reads until this lands, the next read freezes the new one.
            let bands = self.with_shard(shard, |idx| {
                idx.finish_repartition();
                idx.bands() as u64
            })?;
            self.telemetry_registry().invalidate(shard);
            stats.set_bands(shard, bands);
            stats.shard_completed[shard].fetch_add(1, Ordering::Relaxed);
            shards_changed += 1;
        }
        let elapsed = started.elapsed();
        if shards_changed > 0 {
            stats.completed.fetch_add(1, Ordering::Relaxed);
            stats.moved.fetch_add(moved as u64, Ordering::Relaxed);
            stats.last_millis.store(
                elapsed.as_millis().try_into().unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        } else {
            stats.skipped.fetch_add(1, Ordering::Relaxed);
        }
        // The new layout was fitted to the current distribution, so it
        // becomes the drift detector's reference — without this the
        // drift that triggered us would re-fire every window and the
        // scheduler would loop.
        profile.rebaseline();
        let t = u64::try_from(self.telemetry_epoch().elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.telemetry_events().push(Arc::new(
            Span::leaf("repartition", t, SpanIo::default())
                .with_attr("shards_changed", shards_changed as u64)
                .with_attr("moved", moved as u64)
                .with_attr("millis", elapsed.as_millis().try_into().unwrap_or(u64::MAX)),
        ));
        Ok(RepartitionReport {
            edges: planned,
            shards_changed,
            moved,
            elapsed,
        })
    }

    /// The drift subscription: if the workload profile has raised
    /// `drift` events not yet handled by a repartition attempt, marks
    /// them handled and runs [`repartition_now`](Self::repartition_now).
    /// Returns `None` when there was nothing to do.
    ///
    /// # Errors
    /// As [`repartition_now`](Self::repartition_now).
    pub fn maybe_repartition(
        &self,
        policy: &RepartitionPolicy,
    ) -> Result<Option<RepartitionReport>, ServeError> {
        let drift = self.profile().drift_events();
        let stats = self.repartition_stats();
        if drift <= stats.handled_drift() {
            return Ok(None);
        }
        stats.handled_drift.store(drift, Ordering::Relaxed);
        self.repartition_now(policy).map(Some)
    }

    /// Refreshes the per-shard band-count gauges in
    /// [`RepartitionStats`] from the live indexes (one worker
    /// round-trip per shard). The scheduler calls this each poll so
    /// `mobidx-top`'s `bands` column is live even before the first
    /// repartition.
    ///
    /// # Errors
    /// Any [`ServeError`] from the round-trips.
    pub fn refresh_band_gauges(&self) -> Result<(), ServeError> {
        for shard in 0..self.shards() {
            let bands = self.with_shard(shard, |idx| idx.bands() as u64)?;
            self.repartition_stats().set_bands(shard, bands);
        }
        Ok(())
    }
}

/// Scheduling of the background [`Repartitioner`].
#[derive(Debug, Clone, Copy)]
pub struct RepartitionConfig {
    /// How often to poll the profile's drift-event counter.
    pub poll: Duration,
    /// Per-pass migration knobs.
    pub policy: RepartitionPolicy,
}

impl Default for RepartitionConfig {
    fn default() -> Self {
        RepartitionConfig {
            poll: Duration::from_millis(50),
            policy: RepartitionPolicy::default(),
        }
    }
}

/// A background thread answering [`WorkloadProfile`](mobidx_obs::telemetry::WorkloadProfile) drift events with
/// incremental repartitions (see [`start_repartitioner`]). Dropping the
/// handle stops the thread.
#[derive(Debug)]
pub struct Repartitioner {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl Repartitioner {
    /// Signals the scheduler to stop and waits for it; returns how many
    /// repartition passes it ran. Called automatically on drop (which
    /// discards the count).
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .map_or(0, |h| h.join().expect("repartitioner thread"))
    }
}

impl Drop for Repartitioner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Spawns the drift-subscription scheduler over a shared database
/// handle: every `cfg.poll` it refreshes the band gauges and runs
/// [`ShardedDb::maybe_repartition`]; shard errors (a poisoned shard
/// mid-pass) are left to the owner's normal rebuild path and retried on
/// the next drift event.
#[must_use]
pub fn start_repartitioner(
    db: &Arc<ShardedDb<VpDualIndex>>,
    cfg: RepartitionConfig,
) -> Repartitioner {
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let db = Arc::clone(db);
    let handle = std::thread::Builder::new()
        .name("mobidx-repartition".to_owned())
        .spawn(move || {
            let mut passes = 0u64;
            while !thread_stop.load(Ordering::Relaxed) {
                let _ = db.refresh_band_gauges();
                if let Ok(Some(_)) = db.maybe_repartition(&cfg.policy) {
                    passes += 1;
                }
                std::thread::sleep(cfg.poll);
            }
            passes
        })
        .expect("spawn repartitioner");
    Repartitioner {
        stop,
        handle: Some(handle),
    }
}
