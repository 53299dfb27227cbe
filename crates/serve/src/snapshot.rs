//! Epoch-stamped snapshot publication and the work-stealing read pool.
//!
//! The write path stays single-owner (each worker thread exclusively
//! owns its live index), but after every drained apply group the worker
//! *freezes* its index — [`Index1D::freeze`] publishes an immutable,
//! page-level copy-on-write view ([`FrozenIndex1D`]): one handle bump
//! per live page at the freeze, a content copy only for the pages the
//! next batch dirties, and the same page-table walk again when the view
//! dies — which is why the worker that built a view also retires it
//! (see `worker::run`; DESIGN §10 prices all three). The facade's
//! [`SnapshotRegistry`] collects the per-shard views and, once every
//! shard has one, swaps in a new [`DbSnapshot`] stamped with the next
//! commit epoch.
//!
//! Reads then never touch a worker queue: any caller thread grabs the
//! latest published snapshot (`Arc` clone under a read lock), fans its
//! per-shard legs out across the [`ReadPool`], and k-way-merges the
//! answers. The result is *reads-see-a-prefix*: every answer equals the
//! oracle state as of some sealed group commit ≤ the current epoch —
//! never a torn mid-batch state — because a snapshot is only published
//! after the whole group both applied and committed.
//!
//! [`Index1D::freeze`]: mobidx_core::Index1D::freeze
//! [`FrozenIndex1D`]: mobidx_core::FrozenIndex1D

use crate::health::ReadPoolSnapshot;
use mobidx_core::FrozenIndex1D;
use mobidx_obs::{Counter, Gauge};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

/// An immutable, epoch-stamped view of the whole sharded database: one
/// frozen index view per shard, all sealed by the same publication.
pub struct DbSnapshot {
    /// The commit epoch this snapshot was published at. Monotonically
    /// increasing; epoch `e` contains exactly the first `e` published
    /// group commits (plus the initial load at epoch 0).
    pub epoch: u64,
    /// Per-shard frozen views, in shard order.
    pub(crate) views: Vec<Arc<dyn FrozenIndex1D>>,
}

impl DbSnapshot {
    /// Number of shards in the snapshot.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.views.len()
    }
}

impl std::fmt::Debug for DbSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbSnapshot")
            .field("epoch", &self.epoch)
            .field("shards", &self.views.len())
            .finish_non_exhaustive()
    }
}

/// The facade's snapshot bookkeeping: the latest frozen view per shard,
/// the monotone commit-epoch counter, and the currently published
/// [`DbSnapshot`].
///
/// Publication is gated on completeness: a new snapshot is swapped in
/// only when *every* shard has a view (a method that cannot freeze —
/// e.g. dual-B+ with subterrain interval trees armed — or a faulted
/// shard leaves the previous snapshot serving until it recovers).
pub(crate) struct SnapshotRegistry {
    /// Monotone commit-epoch counter; the last published epoch.
    epoch: AtomicU64,
    /// Latest frozen view per shard (`None` until the shard first
    /// publishes, or while it cannot freeze).
    latest: Mutex<Vec<Option<Arc<dyn FrozenIndex1D>>>>,
    /// The currently published snapshot, if complete.
    current: RwLock<Option<Arc<DbSnapshot>>>,
    /// Simulated per-frozen-page read latency, in nanoseconds (the
    /// snapshot path bypasses the pager's pluggable backends, so the
    /// disk model is charged here).
    read_delay_nanos: AtomicU64,
}

impl SnapshotRegistry {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            epoch: AtomicU64::new(0),
            latest: Mutex::new(vec![None; shards]),
            current: RwLock::new(None),
            read_delay_nanos: AtomicU64::new(0),
        }
    }

    /// Patches the given shards' latest views and, if every shard now
    /// has one, publishes a new snapshot at the next epoch. Returns the
    /// published epoch, if any.
    pub(crate) fn publish(
        &self,
        updates: impl IntoIterator<Item = (usize, Option<Arc<dyn FrozenIndex1D>>)>,
    ) -> Option<u64> {
        self.install(updates, 1)
    }

    /// Publishes the initial snapshot (epoch stays 0 — nothing has
    /// committed yet) from the freshly built per-shard indexes.
    pub(crate) fn publish_initial(&self, views: Vec<Option<Arc<dyn FrozenIndex1D>>>) {
        self.install(views.into_iter().enumerate(), 0);
    }

    /// The one publication path: swaps `updates` into `latest` and, if
    /// every shard then has a view, swaps in a snapshot of them stamped
    /// `epoch + epoch_step`.
    ///
    /// What is displaced — the shards' previous views, the previous
    /// snapshot — is only *moved* out under the locks and falls after
    /// both guards are released. Usually the shard worker that built a
    /// view also frees it (see `worker::run`); where the registry still
    /// is the last owner (the first apply, a rebuild, a `ReadView`
    /// released a moment ago) no reader's `current()` waits on a
    /// deallocation.
    fn install(
        &self,
        updates: impl IntoIterator<Item = (usize, Option<Arc<dyn FrozenIndex1D>>)>,
        epoch_step: u64,
    ) -> Option<u64> {
        // Declared before the guard, so dropped after it: once the loop
        // has swapped them out, this holds the displaced views.
        let mut updates: Vec<_> = updates.into_iter().collect();
        let mut latest = self.latest.lock().expect("snapshot registry");
        for (shard, view) in &mut updates {
            std::mem::swap(&mut latest[*shard], view);
        }
        if latest.iter().any(Option::is_none) {
            return None;
        }
        let views: Vec<Arc<dyn FrozenIndex1D>> = latest
            .iter()
            .map(|v| Arc::clone(v.as_ref().expect("checked")))
            .collect();
        // The epoch bump and the swap happen under the `latest` lock, so
        // epochs are published in order and never skip backwards.
        let epoch = self.epoch.fetch_add(epoch_step, Ordering::Relaxed) + epoch_step;
        let next = Arc::new(DbSnapshot { epoch, views });
        let displaced = self.current.write().expect("snapshot slot").replace(next);
        drop(latest);
        drop(displaced);
        Some(epoch)
    }

    /// The currently published snapshot, if any.
    pub(crate) fn current(&self) -> Option<Arc<DbSnapshot>> {
        self.current.read().expect("snapshot slot").clone()
    }

    /// The last published commit epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Whether a complete snapshot is published.
    pub(crate) fn has_snapshot(&self) -> bool {
        self.current.read().expect("snapshot slot").is_some()
    }

    pub(crate) fn set_read_delay_nanos(&self, nanos: u64) {
        self.read_delay_nanos.store(nanos, Ordering::Relaxed);
    }

    pub(crate) fn read_delay_nanos(&self) -> u64 {
        self.read_delay_nanos.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for SnapshotRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotRegistry")
            .field("epoch", &self.epoch())
            .field("published", &self.has_snapshot())
            .finish_non_exhaustive()
    }
}

type Job = Box<dyn FnOnce() + Send>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// Shared instrumentation of the read pool — the snapshot read path's
/// answer to [`crate::health::ShardHealth`]. All relaxed atomics, so
/// the telemetry sampler and [`crate::ShardedDb::health`] read it
/// without touching the pool's queue lock ordering.
#[derive(Debug, Default)]
pub(crate) struct ReadPoolMetrics {
    /// Fan-out legs ever enqueued.
    pub(crate) submitted: Counter,
    /// Legs executed by a *submitting* thread via
    /// [`ReadPool::try_run_one`] — the work-stealing half. High values
    /// mean callers answer their own fan-out faster than the helpers
    /// pick it up.
    pub(crate) stolen: Counter,
    /// Legs executed by each helper thread, in worker order.
    pub(crate) executed: Vec<Counter>,
    /// Legs currently queued (shared queue — the pool has no per-worker
    /// queues, so this is the pool-wide backlog gauge).
    pub(crate) depth: Gauge,
    /// High-water mark of `depth` since startup.
    pub(crate) depth_high_water: Gauge,
}

impl ReadPoolMetrics {
    fn new(threads: usize) -> Self {
        Self {
            executed: (0..threads).map(|_| Counter::new()).collect(),
            ..Self::default()
        }
    }

    /// A point-in-time summary.
    pub(crate) fn snapshot(&self) -> ReadPoolSnapshot {
        ReadPoolSnapshot {
            threads: self.executed.len(),
            submitted: self.submitted.get(),
            stolen: self.stolen.get(),
            executed: self.executed.iter().map(Counter::get).collect(),
            depth: self.depth.get(),
            depth_high_water: self.depth_high_water.get(),
        }
    }
}

/// A small work-stealing pool for snapshot-read fan-out legs.
///
/// Queries are answered cooperatively: the submitting thread runs one
/// leg inline and then *helps* — it keeps popping queued jobs (its own
/// remaining legs, or another query's) until its reply channel drains.
/// With zero pool threads the caller simply executes every leg itself,
/// so `read_threads: 0` degrades to serial snapshot reads rather than
/// deadlock.
pub(crate) struct ReadPool {
    shared: Arc<PoolShared>,
    metrics: Arc<ReadPoolMetrics>,
    handles: Vec<JoinHandle<()>>,
}

impl ReadPool {
    pub(crate) fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let metrics = Arc::new(ReadPoolMetrics::new(threads));
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("mobidx-read-{i}"))
                    .spawn(move || worker_loop(&shared, &metrics, i))
                    .expect("spawn read worker")
            })
            .collect();
        Self {
            shared,
            metrics,
            handles,
        }
    }

    /// The pool's shared instrumentation (for the health snapshot and
    /// the telemetry sampler).
    pub(crate) fn metrics(&self) -> &Arc<ReadPoolMetrics> {
        &self.metrics
    }

    /// Enqueues one fan-out leg.
    pub(crate) fn submit(&self, job: Job) {
        self.metrics.submitted.incr();
        let depth = {
            let mut q = self.shared.queue.lock().expect("read queue");
            q.push_back(job);
            self.metrics.depth.incr()
        };
        self.metrics.depth_high_water.set_max(depth);
        self.shared.available.notify_one();
    }

    /// Runs one queued job on the calling thread, if any is waiting —
    /// the help-while-waiting half of the stealing protocol.
    pub(crate) fn try_run_one(&self) -> bool {
        let job = self.shared.queue.lock().expect("read queue").pop_front();
        match job {
            Some(j) => {
                self.metrics.depth.decr();
                self.metrics.stolen.incr();
                j();
                true
            }
            None => false,
        }
    }
}

fn worker_loop(shared: &PoolShared, metrics: &ReadPoolMetrics, worker: usize) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("read queue");
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = shared.available.wait(q).expect("read queue");
            }
        };
        metrics.depth.decr();
        metrics.executed[worker].incr();
        job();
    }
}

impl Drop for ReadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ReadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadPool")
            .field("threads", &self.handles.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidx_core::FrozenReadStats;
    use mobidx_workload::MorQuery1D;
    use std::sync::atomic::AtomicUsize;

    struct FixedView(Vec<u64>);
    impl FrozenIndex1D for FixedView {
        fn search(&self, _q: &MorQuery1D, out: &mut Vec<u64>) -> FrozenReadStats {
            out.clear();
            out.extend_from_slice(&self.0);
            FrozenReadStats {
                candidates: self.0.len() as u64,
                pages: 1,
            }
        }
    }

    #[test]
    fn publication_requires_every_shard() {
        let reg = SnapshotRegistry::new(2);
        assert!(!reg.has_snapshot());
        assert_eq!(
            reg.publish([(
                0,
                Some(Arc::new(FixedView(vec![1])) as Arc<dyn FrozenIndex1D>)
            )]),
            None
        );
        assert!(!reg.has_snapshot());
        let e = reg.publish([(
            1,
            Some(Arc::new(FixedView(vec![2])) as Arc<dyn FrozenIndex1D>),
        )]);
        assert_eq!(e, Some(1));
        let snap = reg.current().expect("published");
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.shards(), 2);
        // A shard dropping its view (e.g. a fault) keeps the old
        // snapshot serving.
        assert_eq!(reg.publish([(0, None)]), None);
        assert_eq!(reg.current().expect("stale snapshot").epoch, 1);
        // Recovery publishes the next epoch.
        let e = reg.publish([(
            0,
            Some(Arc::new(FixedView(vec![3])) as Arc<dyn FrozenIndex1D>),
        )]);
        assert_eq!(e, Some(2));
    }

    #[test]
    fn pool_drains_jobs_with_and_without_threads() {
        for threads in [0usize, 2] {
            let pool = ReadPool::new(threads);
            let done = Arc::new(AtomicUsize::new(0));
            for _ in 0..16 {
                let done = Arc::clone(&done);
                pool.submit(Box::new(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                }));
            }
            while done.load(Ordering::Relaxed) < 16 {
                if !pool.try_run_one() {
                    std::thread::yield_now();
                }
            }
            assert_eq!(done.load(Ordering::Relaxed), 16);
            // Every leg is accounted for exactly once: stolen by the
            // submitter or executed by a helper, never both.
            let snap = pool.metrics().snapshot();
            assert_eq!(snap.threads, threads);
            assert_eq!(snap.submitted, 16);
            assert_eq!(snap.executed_total(), 16);
            assert_eq!(snap.stolen + snap.executed.iter().sum::<u64>(), 16);
            if threads == 0 {
                assert_eq!(snap.stolen, 16, "no helpers: every leg is stolen");
            }
            assert_eq!(snap.depth, 0, "drained pool has no backlog");
            assert!(snap.depth_high_water >= 1);
        }
    }
}
