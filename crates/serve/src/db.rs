//! The sharded motion database facade.

use crate::batch::{Batch, Op, ShardOp};
use crate::health::{HealthSnapshot, ShardHealth};
use crate::shard::ShardFn;
use crate::snapshot::{
    decide, Action, DbSnapshot, Looker, Publication, Read, ReadPool, Slot, SnapshotRegistry, Turn,
};
use crate::worker::{self, Request};
use crate::ServeError;
use mobidx_core::ids::{union, IdSet};
use mobidx_core::{FrozenIndex1D, FrozenReadStats, Index1D, IoTotals, QueryOutput, QueryRequest};
use mobidx_obs::telemetry::{ProfileConfig, WorkloadProfile};
use mobidx_obs::{EventLog, OpenSpan, Span, SpanIo};
use mobidx_pager::FsyncPolicy;
use mobidx_workload::{MorQuery1D, Motion1D};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, RwLock, TryLockError};
use std::thread::JoinHandle;
use std::time::Instant;

/// How many recent query span trees the facade's [`EventLog`] retains.
/// Sized for diagnostics, not archival: at the default 4 shards a span
/// tree is ~15 nodes, so the ring tops out around a few hundred KiB.
const EVENT_LOG_CAPACITY: usize = 256;

/// Sizing of the worker pool.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of shards (= worker threads).
    pub shards: usize,
    /// Bound of each worker's request queue. A full queue blocks the
    /// sender — backpressure instead of unbounded buffering.
    pub queue_depth: usize,
    /// Durability policy for shards whose indexes sit on durable
    /// backends ([`mobidx_pager::FileBackend`]). With [`FsyncPolicy::Never`]
    /// the workers skip sealing commit windows after each drained apply
    /// group; any other policy makes the worker's group-commit drain
    /// also a durability group commit — one sealed window (and, under
    /// [`FsyncPolicy::OnCommit`], one fsync per store) for the whole
    /// drained group. Irrelevant — and free — when every backend is
    /// memory-resident, so the default is [`FsyncPolicy::OnCommit`].
    pub fsync: FsyncPolicy,
    /// Helper threads in the snapshot read pool. Snapshot queries fan
    /// their per-shard legs out across these threads (the submitting
    /// thread runs one leg inline and steals further work while it
    /// waits); `0` degrades to fully serial snapshot reads.
    pub read_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_depth: 64,
            fsync: FsyncPolicy::OnCommit,
            read_threads: 3,
        }
    }
}

/// A sharded, multi-threaded motion database over any [`Index1D`] — the
/// serving-tier analogue of [`MotionDb`].
///
/// Objects are partitioned across `shards` index instances by a
/// [`ShardFn`]; each instance is owned by a dedicated worker thread fed
/// through a bounded queue. Writes go through [`ShardedDb::apply`]
/// (serialized on the facade's table lock); a successfully committed
/// group that follows a snapshot read is *frozen* by the worker and
/// published as an immutable, epoch-stamped [`DbSnapshot`], one that
/// follows no read only advances the commit epoch. Queries take `&self`
/// from any thread: by default they run against the published snapshot
/// (built on demand if the writes before it published none) with zero
/// queueing behind writes, fanned out across a small work-stealing read
/// pool, and fanned back in — one union of the legs' answers, dense
/// ones ORed as bitmaps — to the sorted, deduplicated contract of a
/// single index. Every read is a snapshot read: `apply` returns only
/// after every shard replied, so a read that follows it sees the
/// caller's own write.
///
/// The facade owns the authoritative motion table (id → current motion
/// record), exactly like [`MotionDb`]: updates are routed by id, and a
/// faulted shard can always be rebuilt from the table
/// ([`ShardedDb::rebuild_shard`]).
///
/// ```
/// use mobidx_serve::{Batch, IdHashShard, ServeConfig, ShardedDb};
/// use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
/// use mobidx_core::{Motion1D, MorQuery1D, QueryRequest};
///
/// let db = ShardedDb::new(
///     ServeConfig { shards: 2, queue_depth: 8, ..ServeConfig::default() },
///     Box::new(IdHashShard),
///     |_shard, _shards| DualBPlusIndex::new(DualBPlusConfig::default()),
/// );
/// let mut batch = Batch::new();
/// batch.insert(Motion1D { id: 1, t0: 0.0, y0: 100.0, v: 1.0 });
/// batch.insert(Motion1D { id: 2, t0: 0.0, y0: 900.0, v: -1.0 });
/// db.apply(&batch).unwrap();
///
/// let q = MorQuery1D { y1: 90.0, y2: 130.0, t1: 10.0, t2: 20.0 };
/// let out = db.query(&QueryRequest::new(&q)).unwrap();
/// assert_eq!(out, vec![1]);
/// assert_eq!(out.epoch, Some(1)); // served by the post-commit snapshot
/// ```
///
/// [`MotionDb`]: mobidx_core::MotionDb
pub struct ShardedDb<I: Index1D + Send + 'static> {
    senders: Vec<SyncSender<Request<I>>>,
    handles: Vec<JoinHandle<()>>,
    /// The authoritative motion table. Writers ([`ShardedDb::apply`],
    /// [`ShardedDb::rebuild_shard`]) hold the write lock end to end, so
    /// batches serialize; readers only take the read lock for point
    /// lookups and speed filtering.
    table: RwLock<HashMap<u64, Motion1D>>,
    /// Lock-free mirror of `table.len()`, refreshed inside every
    /// `apply` while the write lock is held. Read paths (and anything
    /// else on the query side) must use this instead of locking the
    /// table: `apply` holds the write lock across its full
    /// dispatch-and-publish round trip, and under a saturating writer
    /// loop the writer-preferring `RwLock` would starve readers that
    /// merely want the object count.
    object_count: AtomicUsize,
    shard_fn: Box<dyn ShardFn>,
    #[allow(clippy::type_complexity)]
    factory: Box<dyn Fn(usize, usize) -> I + Send + Sync>,
    /// Pooled leg sets: the buffers snapshot legs answer into, recycled
    /// across requests so a steady query load allocates only its
    /// answers.
    buffers: Mutex<Vec<Vec<u64>>>,
    shards: usize,
    /// Per-shard health state, shared with the workers.
    health: Vec<Arc<ShardHealth>>,
    /// The facade-wide time base, fixed at construction, that the
    /// facade's own event-log spans (repartitions) are stamped against;
    /// a query span measures from the epoch its request carries.
    epoch: Instant,
    /// Ring buffer of recently finished query span trees (and drift
    /// events), shared with the workers' workload profile and any
    /// running telemetry sampler.
    events: Arc<EventLog>,
    /// The workload characterizer: workers feed it insert velocities,
    /// the facade feeds it query selectivities, and its windowed drift
    /// detector raises `drift` events into the event log.
    profile: Arc<WorkloadProfile>,
    /// Snapshot publication state: what each shard has to offer, the
    /// monotone commit-epoch counter, whether anybody reads, and the
    /// currently published [`DbSnapshot`].
    registry: Arc<SnapshotRegistry>,
    /// Work-stealing helpers for snapshot-read fan-out.
    read_pool: ReadPool,
    /// The always-on black box: captures diagnostic bundles on shard
    /// poison, SLO breach, drift, or [`ShardedDb::dump_bundle`] (see
    /// [`crate::flight`]).
    flight: Arc<crate::flight::FlightRecorder>,
    /// Online-repartitioning progress counters (see
    /// [`crate::repartition`]); identically zero for index types
    /// without velocity partitioning.
    repartition: Arc<crate::repartition::RepartitionStats>,
}

impl<I: Index1D + Send + 'static> ShardedDb<I> {
    /// Spawns the worker pool. `factory(shard, shards)` builds the index
    /// instance owned by each worker — a speed-band deployment
    /// configures each instance with its narrow
    /// [`sub_band`](crate::SpeedBandShard::sub_band).
    ///
    /// # Panics
    /// Panics if `cfg.shards` or `cfg.queue_depth` is zero, or if a fresh
    /// shard index cannot freeze ([`Index1D::freeze`] returns `None`, as
    /// dual-B+ does with `maintain_subterrain` set): every read is a
    /// snapshot read.
    #[must_use]
    pub fn new(
        cfg: ServeConfig,
        shard_fn: Box<dyn ShardFn>,
        factory: impl Fn(usize, usize) -> I + Send + Sync + 'static,
    ) -> Self {
        Self::with_profile(cfg, ProfileConfig::default(), shard_fn, factory)
    }

    /// [`ShardedDb::new`] with an explicit [`ProfileConfig`] for the
    /// workload characterizer (bin count, speed band, drift window and
    /// threshold) — tests and deployments with a non-paper speed band
    /// tune drift detection here.
    ///
    /// # Panics
    /// Panics if `cfg.shards` or `cfg.queue_depth` is zero, if a fresh
    /// shard index cannot freeze (see [`ShardedDb::new`]), or if
    /// `profile_cfg` is degenerate (see [`WorkloadProfile::new`]).
    #[must_use]
    pub fn with_profile(
        cfg: ServeConfig,
        profile_cfg: ProfileConfig,
        shard_fn: Box<dyn ShardFn>,
        factory: impl Fn(usize, usize) -> I + Send + Sync + 'static,
    ) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.queue_depth > 0, "need a nonempty queue");
        let events = Arc::new(EventLog::new(EVENT_LOG_CAPACITY));
        let profile =
            Arc::new(WorkloadProfile::new(profile_cfg).with_event_log(Arc::clone(&events)));
        let mut senders = Vec::with_capacity(cfg.shards);
        let mut handles = Vec::with_capacity(cfg.shards);
        let mut health = Vec::with_capacity(cfg.shards);
        let mut initial_views = Vec::with_capacity(cfg.shards);
        let commit_on_apply = cfg.fsync != FsyncPolicy::Never;
        for shard in 0..cfg.shards {
            let (tx, rx) = sync_channel(cfg.queue_depth);
            let index = factory(shard, cfg.shards);
            // Freeze the empty index before it moves into its worker —
            // the initial snapshot (epoch 0) is published at
            // construction, so snapshot reads work before any write.
            let view = index.freeze().unwrap_or_else(|| {
                panic!(
                    "shard {shard}'s index cannot freeze: every ShardedDb read is a snapshot read"
                )
            });
            initial_views.push(Arc::from(view));
            let shard_health = Arc::new(ShardHealth::new());
            let worker_health = Arc::clone(&shard_health);
            let worker_profile = Arc::clone(&profile);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mobidx-shard-{shard}"))
                    .spawn(move || {
                        worker::run(
                            shard,
                            index,
                            &rx,
                            &worker_health,
                            &worker_profile,
                            commit_on_apply,
                        );
                    })
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
            health.push(shard_health);
        }
        let registry = Arc::new(SnapshotRegistry::new(initial_views));
        let epoch = Instant::now();
        let read_pool = ReadPool::new(cfg.read_threads);
        let flight = Arc::new(crate::flight::FlightRecorder::new(
            crate::flight::FlightConfig::default(),
            cfg.shards,
            epoch,
            Arc::clone(&events),
            health.clone(),
            Arc::clone(read_pool.metrics()),
            Arc::clone(&profile),
            Arc::clone(&registry),
        ));
        Self {
            senders,
            handles,
            table: RwLock::new(HashMap::new()),
            object_count: AtomicUsize::new(0),
            shard_fn,
            factory: Box::new(factory),
            buffers: Mutex::new(Vec::new()),
            shards: cfg.shards,
            health,
            epoch,
            events,
            profile,
            registry,
            read_pool,
            flight,
            repartition: Arc::new(crate::repartition::RepartitionStats::new(cfg.shards)),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard function's display name.
    #[must_use]
    pub fn shard_fn_name(&self) -> String {
        self.shard_fn.name()
    }

    /// Number of tracked objects. Served from the lock-free counter, so
    /// it never waits on an in-flight `apply`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.object_count.load(Ordering::Acquire)
    }

    /// Whether the database is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current motion record of an object. A precise-state read: it
    /// takes the table lock and so waits out any in-flight `apply`.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<Motion1D> {
        self.table.read().expect("motion table").get(&id).copied()
    }

    /// The full motion table (the brute-force oracle's input), in
    /// unspecified order. A precise-state read: it takes the table lock
    /// and so waits out any in-flight `apply`.
    #[must_use]
    pub fn objects(&self) -> Vec<Motion1D> {
        self.table
            .read()
            .expect("motion table")
            .values()
            .copied()
            .collect()
    }

    /// Validates and applies a batch of writes and advances the commit
    /// epoch; if anybody reads snapshots, publishes the post-commit
    /// state as the next one.
    ///
    /// Validation is atomic: every op is checked (in order, against the
    /// state the preceding ops of the same batch would leave) *before*
    /// anything is dispatched, so an inadmissible op aborts the whole
    /// batch with the database unchanged. After validation the table
    /// commits and each shard's op slice is dispatched as one message.
    /// The facade's table lock is held for the whole call, so concurrent
    /// `apply` calls serialize (single logical writer); a snapshot read
    /// never blocks on it (the first one after writes nobody read behind
    /// waits for the apply in flight, if any, to build its snapshot).
    ///
    /// After `apply` returns `Ok`, [`ShardedDb::snapshot_epoch`] has
    /// advanced past the batch. Whether a [`DbSnapshot`] exists at that
    /// epoch depends on what happened since the apply before: if a
    /// snapshot read did, each worker freezes its index once per drained
    /// group and the facade publishes the snapshot before it returns; if
    /// none did, the published snapshot is let go *before* the dispatch,
    /// the workers write their pages in place — no freeze, no
    /// copy-on-write, no view to retire — and the first snapshot read
    /// after it has the shards freeze on demand.
    ///
    /// # Errors
    /// * [`ServeError::Duplicate`] / [`ServeError::Unknown`] — batch
    ///   rejected, nothing changed.
    /// * [`ServeError::ShardFault`] / [`ServeError::ShardPoisoned`] — a
    ///   worker hit an injected or real fault mid-batch. The table (the
    ///   authoritative state) has committed; call
    ///   [`ShardedDb::rebuild_shard`] on the reported shard to re-sync
    ///   its index from the table. Snapshot publication pauses and the
    ///   commit epoch stands until the rebuild: reads keep serving the
    ///   last good snapshot — or, if nobody was reading and this apply
    ///   had let it go, fail with [`ServeError::ShardPoisoned`].
    ///
    /// # Panics
    /// Panics if the table lock is poisoned (a prior `apply` panicked).
    pub fn apply(&self, batch: &Batch) -> Result<(), ServeError> {
        let mut table = self.table.write().expect("motion table");
        // Stage: validate against table ∪ staged without mutating either.
        let mut staged: HashMap<u64, Option<Motion1D>> = HashMap::new();
        let mut per_shard: Vec<Vec<ShardOp>> = vec![Vec::new(); self.shards];
        for op in &batch.ops {
            let lookup = |id: u64| match staged.get(&id) {
                Some(s) => *s,
                None => table.get(&id).copied(),
            };
            match *op {
                Op::Insert(m) => {
                    if lookup(m.id).is_some() {
                        return Err(ServeError::Duplicate(mobidx_core::DuplicateId(m.id)));
                    }
                    per_shard[self.shard_fn.shard_of(&m, self.shards)].push(ShardOp::Insert(m));
                    staged.insert(m.id, Some(m));
                }
                Op::Update(m) => {
                    let old =
                        lookup(m.id).ok_or(ServeError::Unknown(mobidx_core::UnknownId(m.id)))?;
                    per_shard[self.shard_fn.shard_of(&old, self.shards)].push(ShardOp::Remove(old));
                    per_shard[self.shard_fn.shard_of(&m, self.shards)].push(ShardOp::Insert(m));
                    staged.insert(m.id, Some(m));
                }
                Op::Remove(id) => {
                    let old = lookup(id).ok_or(ServeError::Unknown(mobidx_core::UnknownId(id)))?;
                    per_shard[self.shard_fn.shard_of(&old, self.shards)].push(ShardOp::Remove(old));
                    staged.insert(id, None);
                }
            }
        }
        // Commit the authoritative table, then dispatch.
        for (id, slot) in staged {
            match slot {
                Some(m) => {
                    table.insert(id, m);
                }
                None => {
                    table.remove(&id);
                }
            }
        }
        self.object_count.store(table.len(), Ordering::Release);
        let touched = per_shard.iter().enumerate();
        let touched = touched.filter_map(|(shard, ops)| (!ops.is_empty()).then_some(shard));
        let (turn, publish) = self.registry.begin_apply(touched);
        let mut waits = Vec::new();
        for (shard, ops) in per_shard.into_iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let (reply, rx) = channel();
            let req = Request::Apply {
                ops,
                publish,
                reply,
            };
            // A closed queue drops the reply handle with the request,
            // which the wait below reads as `ShardDown`.
            let _ = self.send(shard, req);
            waits.push((shard, rx));
        }
        let mut first_err = None;
        let mut offered = Vec::new();
        for (shard, rx) in waits {
            let reply = rx.recv().unwrap_or(Err(ServeError::ShardDown { shard }));
            offered.push((
                shard,
                match reply {
                    Ok(Some(view)) => Slot::View(view),
                    Ok(None) if !publish => Slot::Retired,
                    Ok(None) => Slot::Absent,
                    Err(e) => {
                        // The shard's index no longer matches the table;
                        // with nothing to offer it pauses publication
                        // (reads keep the last good snapshot) until a
                        // rebuild.
                        first_err.get_or_insert(e);
                        Slot::Absent
                    }
                },
            ));
        }
        let held = self.registry.install(offered, 1);
        if self.end_turn(turn, publish, held) == Publication::Retired {
            self.registry.applies_unpublished.incr();
        }
        drop(table);
        first_err.map_or(Ok(()), Err)
    }

    /// Ends a writer's turn at the registry, building the snapshot the
    /// writer owes first: one that froze in line owes the views of the
    /// shards it did not touch, any other owes one if a read came in
    /// behind it. `held` is what the registry holds with the writer's
    /// own results installed; returns what it holds at the end. The
    /// caller releases the table lock next.
    fn end_turn(&self, turn: Turn<'_>, froze_in_line: bool, held: Publication) -> Publication {
        let wanted = froze_in_line || (held == Publication::Retired && self.registry.take_wanted());
        let held = match decide(Looker::ApplyEnds, wanted, held, true) {
            Action::FreezeOnDemand => self.freeze_retired(),
            _ => held,
        };
        drop(turn);
        held
    }

    /// Has every shard that let its view go freeze again and installs
    /// the views: a complete set is published at the current commit
    /// epoch. The caller holds the table write lock, so the freezes fall
    /// between the same two applies on every shard. Returns what the
    /// registry holds afterwards.
    fn freeze_retired(&self) -> Publication {
        let retired = self.registry.retired_shards();
        if !retired.is_empty() {
            self.registry.snapshots_on_demand.incr();
        }
        let waits: Vec<_> = retired
            .into_iter()
            .map(|shard| {
                let (reply, rx) = channel();
                let _ = self.send(shard, Request::Freeze { reply });
                (shard, rx)
            })
            .collect();
        let offered = waits.into_iter().map(|(shard, rx)| {
            // A poisoned (or departed) shard offers nothing, and pauses
            // publication exactly as a failed apply does.
            let view = rx.recv().ok().flatten();
            (shard, view.map_or(Slot::Absent, Slot::View))
        });
        self.registry.install(offered.collect(), 0)
    }

    /// The snapshot a read runs against: what is published, without
    /// waiting, whenever anything is. After a stretch of writes nobody
    /// read behind nothing is — then the snapshot is built here, between
    /// two applies, or by the apply in flight (see [`crate::snapshot`]).
    /// Never blocks on the table lock: `apply` holds it across its whole
    /// round trip and writers looping on it would starve a reader.
    /// [`ServeError::ShardPoisoned`] names the first shard with no view
    /// when publication is paused with nothing published.
    fn snapshot(&self) -> Result<Arc<DbSnapshot>, ServeError> {
        loop {
            match self.registry.read() {
                Read::Snapshot(snapshot) => return Ok(snapshot),
                Read::Paused(shard) => return Err(ServeError::ShardPoisoned { shard }),
                Read::OnDemand => match self.table.try_write() {
                    Ok(table) => {
                        let turn = self.registry.begin_turn();
                        self.freeze_retired();
                        drop(turn);
                        drop(table);
                    }
                    // A writer between taking the lock and opening its
                    // turn, or a point lookup: look again.
                    Err(TryLockError::WouldBlock) => std::thread::yield_now(),
                    Err(TryLockError::Poisoned(_)) => panic!("motion table poisoned"),
                },
            }
        }
    }

    /// Answers one read request — the single, options-driven entry point
    /// that replaced the historical `query` / `query_filtered` /
    /// `query_traced` family.
    ///
    /// Every read runs against the published [`DbSnapshot`]: no worker
    /// queue, per-shard legs fanned out across the read pool (the
    /// calling thread runs shard 0's leg inline and steals queued legs
    /// while it waits), each finishing its answer into a pooled
    /// [`IdSet`], fanned back in by one [`union`] that writes the ids
    /// once, `epoch` stamped on the output. The first read after a
    /// stretch of writes nobody read behind finds none published and
    /// has it built (one `Freeze` round trip per shard, or a wait for
    /// the apply in flight to do it). `apply` returns only after every
    /// shard replied, so a read that follows it sees its write. A
    /// [`speed filter`](QueryRequest::speed_band) is applied to the
    /// union against the motion table, under its read lock, so a
    /// filtered read waits out an apply in flight.
    ///
    /// Tracing: [`QueryRequest::spanned`] produces a root `query` span
    /// (`snapshot_epoch`, summed `candidates`, `results`) with one
    /// `s<shard>/execute` leg per shard, each carrying `snapshot_epoch`,
    /// its candidates and the frozen pages it read. The finished tree is also pushed into the
    /// facade's [`EventLog`] ([`ShardedDb::recent_spans`]).
    ///
    /// # Errors
    /// [`ServeError::ShardPoisoned`] for the first shard with no view
    /// when no snapshot is published at all: an apply nobody read
    /// behind let the last one go and then failed, and the shard awaits
    /// [`ShardedDb::rebuild_shard`]. While a snapshot is published a
    /// read cannot fail: a failed apply leaves it serving.
    pub fn query(&self, req: &QueryRequest<'_, MorQuery1D>) -> Result<QueryOutput, ServeError> {
        let snap = self.snapshot()?;
        let q = *req.query();
        let n = snap.shards();
        let span_epoch = req.span_epoch();
        let root = span_epoch.map(|e| {
            let mut root = OpenSpan::begin("query", e);
            root.set_attr(
                "method",
                format!("snapshot[{}x {}]", n, self.shard_fn.name()).as_str(),
            );
            root.set_attr("lane", 0u64);
            root.set_attr("lane_name", "client");
            root.set_attr("snapshot_epoch", snap.epoch);
            root
        });
        let (tx, rx) = channel::<(usize, SnapLeg)>();
        for shard in 1..n {
            let view = Arc::clone(&snap.views[shard]);
            let health = Arc::clone(&self.health[shard]);
            let buf = self.pop_buffer();
            let tx = tx.clone();
            let snap_epoch = snap.epoch;
            self.read_pool.submit(Box::new(move || {
                let leg = snapshot_leg(&*view, &q, buf, shard, snap_epoch, &health, span_epoch);
                let _ = tx.send((shard, leg));
            }));
        }
        drop(tx);
        let mut legs: Vec<Option<SnapLeg>> = Vec::with_capacity(n);
        legs.resize_with(n, || None);
        legs[0] = Some(snapshot_leg(
            &*snap.views[0],
            &q,
            self.pop_buffer(),
            0,
            snap.epoch,
            &self.health[0],
            span_epoch,
        ));
        let mut remaining = n - 1;
        while remaining > 0 {
            match rx.try_recv() {
                Ok((shard, leg)) => {
                    legs[shard] = Some(leg);
                    remaining -= 1;
                }
                Err(TryRecvError::Empty) => {
                    // Steal: run someone's queued leg (possibly our own)
                    // instead of blocking, unless the queue is dry and
                    // our stragglers are mid-flight on pool threads.
                    if !self.read_pool.try_run_one() {
                        if let Ok((shard, leg)) = rx.recv() {
                            legs[shard] = Some(leg);
                            remaining -= 1;
                        }
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            }
        }
        let legs: Vec<SnapLeg> = legs.into_iter().map(|l| l.expect("all legs ran")).collect();
        let mut merged = Vec::new();
        union(&legs, &mut merged);
        if let Some((v_lo, v_hi)) = req.speed_filter() {
            // Frozen views keep no speeds; the motion table does.
            let table = self.table.read().expect("motion table");
            merged.retain(|id| {
                table.get(id).is_some_and(|m| {
                    let s = m.v.abs();
                    v_lo <= s && s <= v_hi
                })
            });
        }
        let candidates = legs.iter().map(|l| l.stats.candidates).sum();
        let span = root.map(|mut root| {
            for leg in &legs {
                root.push(leg.span.clone().expect("span requested"));
            }
            root.set_attr("candidates", candidates);
            root.set_attr("results", merged.len() as u64);
            let span = root.finish();
            self.events.push(Arc::new(span.clone()));
            span
        });
        {
            let mut pool = self.buffers.lock().expect("buffer pool");
            for leg in legs {
                pool.push(leg.ids.into_buffer());
            }
        }
        self.profile
            .record_query(merged.len() as u64, self.len() as u64);
        Ok(QueryOutput {
            span,
            ids: merged,
            candidates,
            epoch: Some(snap.epoch),
        })
    }

    /// A detached, immutable read handle on the snapshot of the latest
    /// commit (a snapshot read like any other: it is built on demand if
    /// none is published): queries against it are serial, infallible,
    /// and keep answering from the *same* epoch no matter how many
    /// commits land after — the hook for "query a stale snapshot against
    /// a pre-commit oracle" checks. `None` where [`ShardedDb::query`]
    /// fails: publication is paused with nothing published.
    #[must_use]
    pub fn read_view(&self) -> Option<ReadView> {
        self.snapshot().ok().map(|snap| ReadView { snap })
    }

    /// The commit epoch: the group commits applied so far (0 until the
    /// first), whether or not a snapshot was published at each. It
    /// stands still while a faulted shard awaits its rebuild.
    #[must_use]
    pub fn snapshot_epoch(&self) -> u64 {
        self.registry.epoch()
    }

    /// A point-in-time health summary of every shard: queue depth and
    /// high-water gauges, applied/queued counters, poisoned state, and
    /// query/update latency percentiles. Reads shared atomics
    /// directly — no worker round-trip, so it works even when a worker
    /// is wedged on a full queue or poisoned.
    #[must_use]
    pub fn health(&self) -> HealthSnapshot {
        self.flight.health()
    }

    /// One shard's live health state, e.g. its `drained_batch_size`
    /// histogram.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard_health(&self, shard: usize) -> &Arc<ShardHealth> {
        &self.health[shard]
    }

    /// The most recent traced-query span trees, oldest first (bounded
    /// ring; see [`ShardedDb::event_log`] for drop accounting).
    #[must_use]
    pub fn recent_spans(&self) -> Vec<Arc<Span>> {
        self.events.snapshot()
    }

    /// The facade's span ring buffer.
    #[must_use]
    pub fn event_log(&self) -> &EventLog {
        &self.events
    }

    /// The live workload characterizer: velocity bands, query
    /// selectivity, update:query mix, and windowed drift detection (see
    /// [`WorkloadProfile`]). Call
    /// [`rebaseline`](WorkloadProfile::rebaseline) after adapting to a
    /// drifted distribution.
    #[must_use]
    pub fn profile(&self) -> &Arc<WorkloadProfile> {
        &self.profile
    }

    /// Online-repartitioning progress counters (fed by
    /// [`crate::repartition`], harvested by the telemetry sampler and
    /// `mobidx-top`; identically zero for index types without velocity
    /// partitioning).
    #[must_use]
    pub fn repartition_stats(&self) -> &Arc<crate::repartition::RepartitionStats> {
        &self.repartition
    }

    /// One shard's motion records from the authoritative table, in id
    /// order (crate-internal: the repartition scheduler's migration
    /// snapshot).
    pub(crate) fn shard_motions(&self, shard: usize) -> Vec<Motion1D> {
        let table = self.table.read().expect("motion table");
        let mut motions: Vec<Motion1D> = table
            .values()
            .filter(|m| self.shard_fn.shard_of(m, self.shards) == shard)
            .copied()
            .collect();
        motions.sort_unstable_by_key(|m| m.id);
        motions
    }

    /// The facade-wide trace time base (crate-internal).
    pub(crate) fn telemetry_epoch(&self) -> Instant {
        self.epoch
    }

    /// Worker queue handles for the telemetry sampler (crate-internal).
    pub(crate) fn telemetry_senders(&self) -> &[SyncSender<Request<I>>] {
        &self.senders
    }

    /// Shared health state for the telemetry sampler (crate-internal).
    pub(crate) fn telemetry_health(&self) -> &[Arc<ShardHealth>] {
        &self.health
    }

    /// Shared event log for the telemetry sampler (crate-internal).
    pub(crate) fn telemetry_events(&self) -> &Arc<EventLog> {
        &self.events
    }

    /// Shared snapshot registry for the telemetry sampler
    /// (crate-internal).
    pub(crate) fn telemetry_registry(&self) -> &Arc<SnapshotRegistry> {
        &self.registry
    }

    /// Shared read-pool instrumentation for the telemetry sampler
    /// (crate-internal).
    pub(crate) fn telemetry_read_pool(&self) -> &Arc<crate::snapshot::ReadPoolMetrics> {
        self.read_pool.metrics()
    }

    /// The flight recorder: the bounded ring of diagnostic bundles this
    /// database has captured, and its per-trigger accounting (see
    /// [`crate::flight`]).
    #[must_use]
    pub fn flight_recorder(&self) -> &Arc<crate::flight::FlightRecorder> {
        &self.flight
    }

    /// Per-shard I/O totals without failing the whole poll when one
    /// worker is gone: `None` for shards that did not answer
    /// (crate-internal; the manual bundle dump uses it).
    pub(crate) fn stats_best_effort(&self) -> Vec<Option<IoTotals>> {
        let mut waits = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let (reply, rx) = channel();
            waits.push(self.send(shard, Request::Stats { reply }).ok().map(|()| rx));
        }
        waits
            .into_iter()
            .map(|rx| rx.and_then(|rx| rx.recv().ok()).map(|(totals, _)| totals))
            .collect()
    }

    /// Aggregated I/O counters across every shard.
    ///
    /// # Errors
    /// [`ServeError::ShardDown`] when a worker is gone.
    pub fn io_totals(&self) -> Result<IoTotals, ServeError> {
        Ok(self
            .stats()?
            .into_iter()
            .fold(IoTotals::default(), |acc, (t, _)| acc.merge(t)))
    }

    /// Per-store I/O breakdown across every shard, labels prefixed
    /// `s<shard>/`.
    ///
    /// # Errors
    /// [`ServeError::ShardDown`] when a worker is gone.
    pub fn store_io(&self) -> Result<Vec<(String, IoTotals)>, ServeError> {
        let mut out = Vec::new();
        for (shard, (_, stores)) in self.stats()?.into_iter().enumerate() {
            for (label, totals) in stores {
                out.push((format!("s{shard}/{label}"), totals));
            }
        }
        Ok(out)
    }

    /// Clears every shard's buffer pools (cold-query protocol).
    ///
    /// # Errors
    /// [`ServeError::ShardDown`] when a worker is gone.
    pub fn clear_buffers(&self) -> Result<(), ServeError> {
        self.broadcast_unit(|reply| Request::ClearBuffers { reply })
    }

    /// Resets every shard's I/O counters.
    ///
    /// # Errors
    /// [`ServeError::ShardDown`] when a worker is gone.
    pub fn reset_io(&self) -> Result<(), ServeError> {
        self.broadcast_unit(|reply| Request::ResetIo { reply })
    }

    /// Runs `f` against the index instance owned by `shard`, on the
    /// worker thread, and returns its result. The escape hatch for
    /// method-specific extensions and for the `mobidx-check` harness
    /// (which uses it to install fault-injecting backends).
    ///
    /// # Errors
    /// [`ServeError::ShardPoisoned`] when the shard awaits a rebuild,
    /// [`ServeError::ShardFault`] when `f` itself panics.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn with_shard<R, F>(&self, shard: usize, f: F) -> Result<R, ServeError>
    where
        F: FnOnce(&mut I) -> R + Send + 'static,
        R: Send + 'static,
    {
        assert!(shard < self.shards, "shard {shard} out of range");
        let (value_tx, value_rx) = channel();
        let (reply, rx) = channel();
        self.send(
            shard,
            Request::With {
                f: Box::new(move |index: &mut I| {
                    let _ = value_tx.send(f(index));
                }),
                reply,
            },
        )?;
        rx.recv().map_err(|_| ServeError::ShardDown { shard })??;
        value_rx.recv().map_err(|_| ServeError::ShardDown { shard })
    }

    /// Rebuilds one shard from the authoritative motion table: a fresh
    /// index instance (from the factory) is shipped to the worker, which
    /// swaps it in, clears its poisoned flag, and re-inserts the shard's
    /// motions. The recovery path after [`ServeError::ShardFault`]; a
    /// successful rebuild also advances the commit epoch and resumes
    /// snapshot publication — what was published is a commit behind and
    /// is let go, the next snapshot read has the rebuilt shard freeze.
    ///
    /// Returns the index it replaced, in its last (possibly poisoned,
    /// mid-operation) state, so callers can run a post-mortem — e.g.
    /// read I/O or fault counters out of its stores. Drop it to discard.
    ///
    /// # Errors
    /// [`ServeError::ShardFault`] when the rebuild itself faults (e.g. a
    /// still-installed fault backend fires again) — the shard stays
    /// poisoned and the replaced index is lost; [`ServeError::ShardDown`]
    /// when the worker is gone.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn rebuild_shard(&self, shard: usize) -> Result<Box<I>, ServeError> {
        assert!(shard < self.shards, "shard {shard} out of range");
        let table = self.table.write().expect("motion table");
        let turn = self.registry.begin_turn();
        let mut motions: Vec<Motion1D> = table
            .values()
            .filter(|m| self.shard_fn.shard_of(m, self.shards) == shard)
            .copied()
            .collect();
        // Replay in id order, not hash-map order, so a rebuild produces
        // the same page layout on every run of the same seed (the
        // model-checking harness depends on this for reproducibility).
        motions.sort_unstable_by_key(|m| m.id);
        let index = Box::new((self.factory)(shard, self.shards));
        let (reply, rx) = channel();
        self.send(
            shard,
            Request::Rebuild {
                index,
                motions,
                reply,
            },
        )?;
        let old = rx.recv().map_err(|_| ServeError::ShardDown { shard })??;
        let held = self.registry.install(vec![(shard, Slot::Retired)], 1);
        self.end_turn(turn, false, held);
        drop(table);
        Ok(old)
    }

    /// The address and capacity of every buffer in the facade's query
    /// buffer pool: a read that leaves them unchanged took its legs'
    /// buffers from the pool, grew none and gave them all back.
    #[doc(hidden)]
    #[must_use]
    pub fn pooled_buffers(&self) -> Vec<(usize, usize)> {
        let pool = self.buffers.lock().expect("buffer pool");
        pool.iter()
            .map(|buf| (buf.as_ptr() as usize, buf.capacity()))
            .collect()
    }

    /// Pops a pooled result buffer (or a fresh one).
    fn pop_buffer(&self) -> Vec<u64> {
        self.buffers
            .lock()
            .expect("buffer pool")
            .pop()
            .unwrap_or_default()
    }

    /// Collects `(io_totals, store_io)` from every shard.
    #[allow(clippy::type_complexity)]
    fn stats(&self) -> Result<Vec<(IoTotals, Vec<(String, IoTotals)>)>, ServeError> {
        let mut waits = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let (reply, rx) = channel();
            self.send(shard, Request::Stats { reply })?;
            waits.push((shard, rx));
        }
        waits
            .into_iter()
            .map(|(shard, rx)| rx.recv().map_err(|_| ServeError::ShardDown { shard }))
            .collect()
    }

    /// Broadcasts a unit-reply request to every shard and waits.
    fn broadcast_unit(
        &self,
        make: impl Fn(std::sync::mpsc::Sender<()>) -> Request<I>,
    ) -> Result<(), ServeError> {
        let mut waits: Vec<(usize, Receiver<()>)> = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let (reply, rx) = channel();
            self.send(shard, make(reply))?;
            waits.push((shard, rx));
        }
        for (shard, rx) in waits {
            rx.recv().map_err(|_| ServeError::ShardDown { shard })?;
        }
        Ok(())
    }

    /// Sends one request, mapping a closed queue to `ShardDown`. The
    /// queue-depth gauge is bumped *before* the send — a send blocked on
    /// a full queue counts toward the depth, so the gauge reads as the
    /// congestion on the shard, not just its buffered requests. The
    /// worker decrements at dequeue.
    fn send(&self, shard: usize, req: Request<I>) -> Result<(), ServeError> {
        let h = &self.health[shard];
        let depth = h.queue_depth.incr();
        h.queue_high_water.set_max(depth);
        match self.senders[shard].send(req) {
            Ok(()) => {
                h.enqueued.incr();
                Ok(())
            }
            Err(_) => {
                // Never dequeued; undo the depth bump.
                h.queue_depth.decr();
                Err(ServeError::ShardDown { shard })
            }
        }
    }
}

/// One shard's snapshot-read result.
struct SnapLeg {
    ids: IdSet,
    stats: FrozenReadStats,
    span: Option<Span>,
}

/// A leg lends its set to the fan-in.
impl AsRef<IdSet> for SnapLeg {
    fn as_ref(&self) -> &IdSet {
        &self.ids
    }
}

/// Runs one per-shard snapshot leg: searches the frozen view and bumps
/// the shard's snapshot-read accounting. Runs on the caller's thread or
/// a read-pool helper — never on the shard's worker.
fn snapshot_leg(
    view: &dyn FrozenIndex1D,
    q: &MorQuery1D,
    buf: Vec<u64>,
    shard: usize,
    snapshot_epoch: u64,
    health: &ShardHealth,
    span_epoch: Option<Instant>,
) -> SnapLeg {
    let started = Instant::now();
    let mut leg = span_epoch.map(|e| {
        let mut leg = OpenSpan::begin(format!("s{shard}/execute"), e);
        leg.set_attr("shard", shard as u64);
        leg.set_attr("lane", shard as u64 + 1);
        leg.set_attr("lane_name", format!("mobidx-read-s{shard}").as_str());
        leg.set_attr("snapshot_epoch", snapshot_epoch);
        leg
    });
    let mut ids = IdSet::from(buf);
    let stats = view.search_set(q, &mut ids);
    // A snapshot leg is still a query answered on this shard's behalf:
    // count it so `queries` keeps matching the latency histogram.
    health.queries.incr();
    health
        .query_latency
        .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
    let span = leg.take().map(|mut leg| {
        leg.set_attr("candidates", stats.candidates);
        leg.set_io(SpanIo {
            reads: stats.pages,
            ..SpanIo::default()
        });
        leg.finish()
    });
    SnapLeg { ids, stats, span }
}

/// A detached handle on one published [`DbSnapshot`] (see
/// [`ShardedDb::read_view`]): serial snapshot queries pinned to a fixed
/// epoch.
pub struct ReadView {
    snap: Arc<DbSnapshot>,
}

impl ReadView {
    /// The pinned commit epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    /// Answers a MOR query against the pinned snapshot — serial (no
    /// read pool), infallible, identical answers forever.
    #[must_use]
    pub fn query(&self, q: &MorQuery1D) -> Vec<u64> {
        let mut sets = vec![IdSet::new(); self.snap.views.len()];
        for (view, ids) in self.snap.views.iter().zip(&mut sets) {
            view.search_set(q, ids);
        }
        let mut merged = Vec::new();
        union(&sets, &mut merged);
        merged
    }
}

impl std::fmt::Debug for ReadView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadView")
            .field("epoch", &self.snap.epoch)
            .field("shards", &self.snap.views.len())
            .finish_non_exhaustive()
    }
}

impl<I: Index1D + Send + 'static> Drop for ShardedDb<I> {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Request::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<I: Index1D + Send + 'static> std::fmt::Debug for ShardedDb<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDb")
            .field("shards", &self.shards)
            .field("shard_fn", &self.shard_fn.name())
            .field("objects", &self.len())
            .field("snapshot_epoch", &self.snapshot_epoch())
            .finish_non_exhaustive()
    }
}
