//! Epoch-stamped snapshot publication — on demand — and the
//! work-stealing read pool.
//!
//! The write path stays single-owner (each worker thread exclusively
//! owns its live index). A read view is a *frozen* index —
//! [`Index1D::freeze`] publishes an immutable, page-level copy-on-write
//! view ([`FrozenIndex1D`]): one handle bump per live page at the freeze,
//! a content copy for every page the next batch dirties while the view
//! is shared, and the same page-table walk again when the view dies —
//! or, where the worker recycles its retired view
//! ([`Index1D::refreeze`]), a pointer compare per page and a handle
//! bump per changed one (DESIGN §10 prices all of it). That is worth
//! paying for a version somebody reads and for no other, so the
//! `SnapshotRegistry` keeps
//! one bit — *a snapshot read happened since the last apply looked* —
//! and `decide` turns it into the whole protocol:
//!
//! * an `apply` that finds the bit **set** has its workers freeze in
//!   line, once per drained group, and publishes a [`DbSnapshot`] at the
//!   next commit epoch — readers stay wait-free;
//! * an `apply` that finds it **clear** lets go of the published views
//!   first (the registry, then each worker — so the worker that built a
//!   view still frees it, see `worker::run`), applies with nothing
//!   shared, and only advances the commit epoch;
//! * a snapshot read that finds no snapshot has one built: by itself
//!   (`Request::Freeze` to every shard that let its view go) when no
//!   writer is in flight, else by the writer in flight, which re-checks
//!   the bit before it releases the table lock — the reader waits on
//!   that publication, for at most one apply;
//! * a snapshot read that finds publication paused — some shard's apply
//!   failed — reads what was published last; if nothing was, it fails
//!   with [`ServeError::ShardPoisoned`] for the first shard with no view
//!   until a rebuild completes the set.
//!
//! Every read is a snapshot read, and it touches a worker queue for
//! nothing else: any caller thread grabs the published snapshot (`Arc`
//! clone under a read lock), fans its per-shard legs out across the
//! `ReadPool`, and unions the answers. The result is
//! *reads-see-a-prefix*: every answer equals the
//! oracle state as of some sealed group commit ≤ the current epoch —
//! never a torn mid-batch state — because a snapshot is only built
//! between two applies, after a whole group both applied and committed.
//!
//! [`Index1D::freeze`]: mobidx_core::Index1D::freeze
//! [`Index1D::refreeze`]: mobidx_core::Index1D::refreeze
//! [`FrozenIndex1D`]: mobidx_core::FrozenIndex1D
//! [`ServeError::ShardPoisoned`]: crate::ServeError::ShardPoisoned

use crate::health::ReadPoolSnapshot;
use mobidx_core::FrozenIndex1D;
use mobidx_obs::{Counter, Gauge};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;

/// An immutable, epoch-stamped view of the whole sharded database: one
/// frozen index view per shard, all frozen between the same two applies.
pub struct DbSnapshot {
    /// The commit epoch this snapshot was built at. Monotonically
    /// increasing; epoch `e` contains exactly the first `e` group
    /// commits (plus the initial load at epoch 0).
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

/// What the registry holds when somebody looks at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Publication {
    /// Every shard's latest view, published as one snapshot at the
    /// commit epoch.
    Present,
    /// No snapshot, and nothing in the way of one: some shard let its
    /// view go and will freeze again when asked.
    Retired,
    /// Some shard has no view to give — its last apply failed, or it is
    /// poisoned. Publication is paused: whatever was published last, if
    /// anything, keeps serving until a rebuild.
    Paused,
}

/// Who is looking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Looker {
    /// A writer about to dispatch (it holds the table lock).
    ApplyBegins,
    /// The same writer with its shards' replies installed, about to
    /// release the table lock.
    ApplyEnds,
    /// A snapshot read that found nothing published.
    Reader,
}

/// What the looker does about the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Nothing: use what is published (a paused reader may find nothing
    /// and is told which shard has no view).
    Keep,
    /// Let go of the published views, then apply with nothing shared.
    Retire,
    /// Have the workers freeze at the end of the batch they apply.
    FreezeInLine,
    /// Send `Request::Freeze` to the shards that let their view go.
    FreezeOnDemand,
    /// Sleep until the writer in flight ends its turn.
    Wait,
}

/// The publication protocol, whole: `wanted` is the registry's bit (for
/// a writer, as it found it; a reader has always just set it), `held`
/// what the registry holds, `writer_active` whether some thread holds
/// the table lock on the registry's behalf. Pure, so that every
/// interleaving of it can be enumerated (see the tests); production
/// calls it under the locks that make its inputs stable.
pub(crate) fn decide(who: Looker, wanted: bool, held: Publication, writer_active: bool) -> Action {
    match (who, held) {
        // A pause runs the eager protocol throughout: the views of the
        // healthy shards stay current, the rebuild completes the set.
        (Looker::ApplyBegins, Publication::Paused) => Action::FreezeInLine,
        (Looker::ApplyBegins, _) if wanted => Action::FreezeInLine,
        (Looker::ApplyBegins, _) => Action::Retire,
        // A read came in behind this writer (or it froze in line and a
        // shard it did not touch has no view): it owes a snapshot.
        (Looker::ApplyEnds, Publication::Retired) if wanted => Action::FreezeOnDemand,
        (Looker::ApplyEnds, _) => Action::Keep,
        (Looker::Reader, Publication::Retired) if writer_active => Action::Wait,
        (Looker::Reader, Publication::Retired) => Action::FreezeOnDemand,
        (Looker::Reader, _) => Action::Keep,
    }
}

/// What one shard has to offer the next snapshot.
pub(crate) enum Slot {
    /// Its latest frozen view.
    View(Arc<dyn FrozenIndex1D>),
    /// Nothing shared: the view was let go; the shard freezes on request.
    Retired,
    /// Nothing to give (see [`Publication::Paused`]).
    Absent,
}

struct Slots {
    slots: Vec<Slot>,
    /// A thread holds the table lock and will end its turn (see
    /// [`Turn`]) before it releases it.
    writer_active: bool,
}

impl Slots {
    fn held(&self) -> Publication {
        if self.slots.iter().any(|s| matches!(s, Slot::Absent)) {
            Publication::Paused
        } else if self.slots.iter().all(|s| matches!(s, Slot::View(_))) {
            Publication::Present
        } else {
            Publication::Retired
        }
    }
}

/// What a snapshot read found (see [`SnapshotRegistry::read`]).
pub(crate) enum Read {
    /// The snapshot to read.
    Snapshot(Arc<DbSnapshot>),
    /// No snapshot and no writer in flight: the caller builds one.
    OnDemand,
    /// Publication is paused with nothing published: the first shard
    /// with no view to give, which awaits a rebuild.
    Paused(usize),
}

/// A writer's turn at the registry, from [`SnapshotRegistry::begin_turn`]
/// to the drop — which must come before the table lock is released.
/// Readers that found nothing published sleep through it.
pub(crate) struct Turn<'a>(&'a SnapshotRegistry);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.writer_active = false;
        drop(state);
        self.0.turn_over.notify_all();
    }
}

/// The facade's snapshot bookkeeping: what each shard has to offer, the
/// monotone commit-epoch counter, the bit that says whether anybody
/// reads, and the currently published [`DbSnapshot`].
///
/// A snapshot is published only when *every* shard has a view, and the
/// epoch only advances while no shard is [`Slot::Absent`] — a faulted
/// shard leaves the previous snapshot and the previous epoch in place
/// until it recovers.
pub(crate) struct SnapshotRegistry {
    /// The commit epoch: group commits (and rebuilds) that left every
    /// shard in step with the table.
    epoch: AtomicU64,
    /// A snapshot read happened since the last apply looked.
    wanted: AtomicBool,
    state: Mutex<Slots>,
    /// Signalled when a [`Turn`] ends.
    turn_over: Condvar,
    /// The published snapshot. Written only under `state`; `Some`
    /// whenever `state` holds [`Publication::Present`].
    current: RwLock<Option<Arc<DbSnapshot>>>,
    /// Times a snapshot was built by `Request::Freeze` round trips — for
    /// a read that found none, or behind a writer that owed one.
    pub(crate) snapshots_on_demand: Counter,
    /// Applies that ended with no snapshot published: nobody had read
    /// since the one before.
    pub(crate) applies_unpublished: Counter,
}

impl SnapshotRegistry {
    /// A registry over `initial`, the freshly built indexes' views,
    /// published as epoch 0 (nothing has committed yet).
    pub(crate) fn new(initial: Vec<Arc<dyn FrozenIndex1D>>) -> Self {
        let registry = Self {
            epoch: AtomicU64::new(0),
            wanted: AtomicBool::new(false),
            state: Mutex::new(Slots {
                slots: initial.iter().map(|_| Slot::Absent).collect(),
                writer_active: false,
            }),
            turn_over: Condvar::new(),
            current: RwLock::new(None),
            snapshots_on_demand: Counter::new(),
            applies_unpublished: Counter::new(),
        };
        registry.install(initial.into_iter().map(Slot::View).enumerate().collect(), 0);
        registry
    }

    fn state(&self) -> MutexGuard<'_, Slots> {
        self.state.lock().expect("snapshot registry")
    }

    /// Opens a writer's turn; the caller holds the table write lock.
    pub(crate) fn begin_turn(&self) -> Turn<'_> {
        self.state().writer_active = true;
        Turn(self)
    }

    /// Opens an apply's turn and looks at the bit on its behalf.
    /// Returns whether the shards in `touched` are to freeze in line;
    /// if not, their views and the snapshot have been let go — before
    /// the dispatch, so that each worker, dropping its own handles at
    /// the top of the batch, is the last owner and frees the pages.
    pub(crate) fn begin_apply(&self, touched: impl Iterator<Item = usize>) -> (Turn<'_>, bool) {
        let turn = Turn(self);
        // Declared before the guard, so dropped after it.
        let mut displaced = Vec::new();
        let mut state = self.state();
        state.writer_active = true;
        let wanted = self.wanted.swap(false, Ordering::SeqCst);
        let eager = decide(Looker::ApplyBegins, wanted, state.held(), true) == Action::FreezeInLine;
        let snapshot = if eager {
            None
        } else {
            for shard in touched {
                if matches!(state.slots[shard], Slot::View(_)) {
                    displaced.push(std::mem::replace(&mut state.slots[shard], Slot::Retired));
                }
            }
            self.current.write().expect("snapshot slot").take()
        };
        drop(state);
        drop(snapshot);
        (turn, eager)
    }

    /// The one publication path: swaps `updates` in and, unless some
    /// shard then has nothing to give, advances the commit epoch by
    /// `epoch_step` and replaces the snapshot — with one of every
    /// shard's view if every shard has one, with nothing otherwise (what
    /// was published is a commit behind). Returns what the registry now
    /// holds.
    ///
    /// What is displaced is only *moved* out under the locks and falls
    /// after both guards are released. Usually the shard worker that
    /// built a view also frees it (see `worker::run`); where the
    /// registry still is the last owner (the initial views, a
    /// `ReadView` released a moment ago) no reader's `current()` waits
    /// on a deallocation.
    pub(crate) fn install(&self, mut updates: Vec<(usize, Slot)>, epoch_step: u64) -> Publication {
        let mut state = self.state();
        for (shard, slot) in &mut updates {
            std::mem::swap(&mut state.slots[*shard], slot);
        }
        let held = state.held();
        if held == Publication::Paused {
            return held;
        }
        // The epoch bump and the swap happen under the `state` lock, so
        // epochs are published in order and never skip backwards.
        let epoch = self.epoch.fetch_add(epoch_step, Ordering::Relaxed) + epoch_step;
        let next = (held == Publication::Present).then(|| {
            let views = state.slots.iter().map(|slot| match slot {
                Slot::View(view) => Arc::clone(view),
                Slot::Retired | Slot::Absent => unreachable!("held is Present"),
            });
            Arc::new(DbSnapshot {
                epoch,
                views: views.collect(),
            })
        });
        let displaced = std::mem::replace(&mut *self.current.write().expect("snapshot slot"), next);
        drop(state);
        drop(displaced);
        held
    }

    /// Lets go of one shard's view because the index under it was
    /// reorganised (a repartition step): what is published is still
    /// exact and keeps serving through a pause, otherwise the next
    /// snapshot read has the shard freeze its new layout.
    pub(crate) fn invalidate(&self, shard: usize) {
        let mut state = self.state();
        let view = match state.slots[shard] {
            Slot::View(_) => std::mem::replace(&mut state.slots[shard], Slot::Retired),
            Slot::Retired | Slot::Absent => return,
        };
        let snapshot = match state.held() {
            Publication::Paused => None,
            _ => self.current.write().expect("snapshot slot").take(),
        };
        drop(state);
        drop((view, snapshot));
    }

    /// The shards a snapshot built now would have to freeze.
    pub(crate) fn retired_shards(&self) -> Vec<usize> {
        let state = self.state();
        let retired = |(shard, slot)| matches!(slot, &Slot::Retired).then_some(shard);
        state.slots.iter().enumerate().filter_map(retired).collect()
    }

    /// Takes the bit: has a snapshot read happened since an apply last
    /// looked?
    pub(crate) fn take_wanted(&self) -> bool {
        self.wanted.swap(false, Ordering::SeqCst)
    }

    /// One snapshot read's look at the registry: sets the bit and
    /// returns what is published — wait-free while anything is. If
    /// nothing is, sleeps through the turn of a writer in flight (which
    /// re-checks the bit before it ends) and looks again; with no writer
    /// in flight the caller is told to build the snapshot itself, and
    /// with publication paused it is told which shard has no view.
    pub(crate) fn read(&self) -> Read {
        // Test before set: every reader shares this line, only the
        // first after an apply looked has to write it.
        if !self.wanted.load(Ordering::SeqCst) {
            self.wanted.store(true, Ordering::SeqCst);
        }
        if let Some(snapshot) = self.current() {
            return Read::Snapshot(snapshot);
        }
        let mut state = self.state();
        loop {
            // Set again under the lock a turn ends under: either the
            // writer in flight sees the bit, or this reader sees what
            // the writer published — no wake-up is lost.
            self.wanted.store(true, Ordering::SeqCst);
            match decide(Looker::Reader, true, state.held(), state.writer_active) {
                Action::Wait => state = self.turn_over.wait(state).expect("snapshot registry"),
                Action::FreezeOnDemand => return Read::OnDemand,
                _ => break,
            }
        }
        match self.current() {
            Some(snapshot) => Read::Snapshot(snapshot),
            None => {
                let absent = state.slots.iter().position(|s| matches!(s, Slot::Absent));
                Read::Paused(absent.expect("nothing published: publication is paused"))
            }
        }
    }

    /// The currently published snapshot, if any.
    fn current(&self) -> Option<Arc<DbSnapshot>> {
        self.current.read().expect("snapshot slot").clone()
    }

    /// The commit epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for SnapshotRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotRegistry")
            .field("epoch", &self.epoch())
            .field("published", &self.current().is_some())
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
    use mobidx_core::ids::IdSet;
    use mobidx_core::FrozenReadStats;
    use mobidx_workload::MorQuery1D;
    use std::sync::atomic::AtomicUsize;

    struct FixedView(Vec<u64>);
    impl FrozenIndex1D for FixedView {
        fn search_set(&self, _q: &MorQuery1D, out: &mut IdSet) -> FrozenReadStats {
            out.fill_sorted(|ids| ids.extend_from_slice(&self.0));
            FrozenReadStats {
                candidates: self.0.len() as u64,
                pages: 1,
            }
        }
    }

    fn view(ids: Vec<u64>) -> Slot {
        Slot::View(Arc::new(FixedView(ids)))
    }

    #[test]
    fn publication_requires_every_shard() {
        let views = [1, 2].map(|id| Arc::new(FixedView(vec![id])) as _);
        let reg = SnapshotRegistry::new(views.to_vec());
        let snap = reg.current().expect("published at construction");
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.shards(), 2);
        // A shard with nothing to give (e.g. a fault) keeps the old
        // snapshot serving.
        assert_eq!(reg.install(vec![(0, Slot::Absent)], 1), Publication::Paused);
        assert_eq!(reg.current().expect("stale snapshot").epoch, 0);
        assert_eq!(reg.epoch(), 0, "a pause holds the epoch");
        // Recovery advances the epoch and drops what is a commit behind
        // — the next read has the rebuilt shard freeze.
        assert_eq!(
            reg.install(vec![(0, Slot::Retired)], 1),
            Publication::Retired
        );
        assert!(reg.current().is_none());
        assert_eq!(reg.retired_shards(), vec![0]);
        // A fault with nothing published leaves a read nothing to serve:
        // it is told the first shard with no view, and one view is not
        // a snapshot.
        assert_eq!(reg.install(vec![(1, Slot::Absent)], 1), Publication::Paused);
        assert!(matches!(reg.read(), Read::Paused(1)));
        assert_eq!(
            reg.install(vec![(0, view(vec![3]))], 0),
            Publication::Paused
        );
        assert!(reg.current().is_none());
        assert_eq!(reg.epoch(), 1, "a pause holds the epoch");
        // The rebuild completes the set, published at its epoch.
        assert_eq!(
            reg.install(vec![(1, Slot::Retired)], 1),
            Publication::Retired
        );
        assert_eq!(
            reg.install(vec![(1, view(vec![4]))], 0),
            Publication::Present
        );
        assert_eq!(reg.current().expect("built on demand").epoch, 2);
    }

    #[test]
    fn an_apply_nobody_read_behind_lets_the_snapshot_go() {
        let reg = SnapshotRegistry::new(vec![Arc::new(FixedView(vec![1])) as _; 2]);
        assert!(matches!(reg.read(), Read::Snapshot(_)), "epoch 0");
        let (turn, eager) = reg.begin_apply([0].into_iter());
        assert!(eager, "a read happened: freeze in line, keep the snapshot");
        assert!(reg.current().is_some());
        drop(turn);
        let (turn, eager) = reg.begin_apply([0].into_iter());
        assert!(!eager, "the apply before took the bit");
        assert!(reg.current().is_none());
        assert_eq!(reg.retired_shards(), vec![0], "only what it touches");
        assert_eq!(
            reg.install(vec![(0, Slot::Retired)], 1),
            Publication::Retired
        );
        assert!(!reg.take_wanted());
        drop(turn);
        assert!(matches!(reg.read(), Read::OnDemand), "no writer in flight");
        assert!(reg.take_wanted(), "the read left its mark");
    }

    /// The protocol's state as the table lock and the registry mutex
    /// serialize it, for one shard that never faults. Actors 0 and 1
    /// apply, 2 and 3 read; `pc` is each one's next step (4 = done), and
    /// a reader `asleep` on the condvar moves again only once woken.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct World {
        wanted: bool,
        held: Publication,
        snapshot_epoch: u64,
        commits: u64,
        acked: u64,
        /// Some actor holds the table lock, its turn open.
        writer_active: bool,
        pc: [u8; 4],
        eager: [bool; 2],
        freezes: [u8; 2],
        asleep: [bool; 2],
        asked: [u64; 2],
        got: [Option<u64>; 2],
    }

    impl World {
        fn publish(&mut self) {
            assert!(self.commits >= self.snapshot_epoch, "epochs in order");
            (self.held, self.snapshot_epoch) = (Publication::Present, self.commits);
        }

        fn end_turn(&mut self) {
            (self.writer_active, self.asleep) = (false, [false; 2]);
        }

        /// Actor `a`'s next step, one locked section of production each;
        /// `None` while it cannot move.
        fn step(&self, a: usize) -> Option<World> {
            let mut w = self.clone();
            let r = a % 2;
            match (a < 2, w.pc[a]) {
                (true, 0) if !w.writer_active => {
                    w.writer_active = true;
                    let wanted = std::mem::take(&mut w.wanted);
                    match decide(Looker::ApplyBegins, wanted, w.held, true) {
                        Action::FreezeInLine => w.eager[a] = true,
                        Action::Retire => w.held = Publication::Retired,
                        other => panic!("{other:?} at the start of an apply"),
                    }
                }
                (true, 1) => {
                    w.commits += 1;
                    if w.eager[a] {
                        w.freezes[a] += 1;
                        w.publish();
                    }
                }
                (true, 2) => {
                    let retired = w.held == Publication::Retired;
                    let wanted = w.eager[a] || (retired && std::mem::take(&mut w.wanted));
                    if decide(Looker::ApplyEnds, wanted, w.held, true) == Action::FreezeOnDemand {
                        w.freezes[a] += 1;
                        w.publish();
                    }
                }
                (true, 3) => {
                    w.end_turn();
                    w.acked += 1;
                }
                (false, 0) => w.asked[r] = w.acked,
                (false, 1) if !w.asleep[r] => {
                    w.wanted = true;
                    match decide(Looker::Reader, true, w.held, w.writer_active) {
                        Action::Keep => (w.got[r], w.pc[a]) = (Some(w.snapshot_epoch), 3),
                        Action::Wait => (w.asleep[r], w.pc[a]) = (true, 0),
                        // `try_write` succeeds: no turn is open.
                        Action::FreezeOnDemand => w.writer_active = true,
                        other => panic!("{other:?} for a reader"),
                    }
                }
                (false, 2) => {
                    w.publish();
                    w.end_turn();
                    w.pc[a] = 0;
                }
                _ => return None,
            }
            w.pc[a] += 1;
            Some(w)
        }
    }

    #[test]
    fn every_interleaving_of_two_applies_and_two_readers() {
        let start = World {
            wanted: false,
            held: Publication::Present,
            snapshot_epoch: 0,
            commits: 0,
            acked: 0,
            writer_active: false,
            pc: [0; 4],
            eager: [false; 2],
            freezes: [0; 2],
            asleep: [false; 2],
            asked: [0; 2],
            got: [None; 2],
        };
        let mut seen = std::collections::HashSet::from([start.clone()]);
        let (mut todo, mut ends) = (vec![start], 0);
        while let Some(w) = todo.pop() {
            assert!(w.freezes.iter().all(|&f| f <= 1), "two freezes: {w:?}");
            assert!(w.held != Publication::Present || w.snapshot_epoch == w.commits);
            for r in 0..2 {
                assert!(w.got[r].is_none_or(|e| e >= w.asked[r]), "stale: {w:?}");
            }
            let next: Vec<World> = (0..4).filter_map(|a| w.step(a)).collect();
            if next.is_empty() {
                assert_eq!(w.pc, [4; 4], "lost wake-up: {w:?}");
                assert_eq!((w.commits, w.acked), (2, 2));
                ends += 1;
            }
            todo.extend(next.into_iter().filter(|n| seen.insert(n.clone())));
        }
        assert!(ends > 1 && seen.len() > 100, "{ends} of {}", seen.len());
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
