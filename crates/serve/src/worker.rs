//! Shard workers: one thread owning one index.
//!
//! The concurrency model is shard ownership, not shared locks: each
//! worker thread exclusively owns its [`Index1D`] instance and drains a
//! bounded request queue. `&mut` access is therefore free of
//! synchronization — the queue *is* the synchronization — and a slow
//! shard exerts backpressure by letting its queue fill, blocking the
//! facade's `send` instead of growing memory without bound.
//!
//! Index methods are written against the infallible [`Index1D`] surface
//! and panic when a pager fault goes unrecovered. A serving layer must
//! not let one poisoned request take the pool down, so every index
//! operation runs under `catch_unwind`: a panic marks the shard
//! *poisoned* (subsequent requests fail fast with a typed error; the
//! worker keeps draining its queue) until the facade ships a freshly
//! rebuilt index via [`Request::Rebuild`].
//!
//! A worker also builds, recycles and frees the read views of its index
//! — but only when told somebody reads them: at the end of an `Apply`
//! that carries `publish`, or on a [`Request::Freeze`] from a read that
//! found none. An `Apply` without `publish` first drops the views the
//! worker holds and then writes pages nobody shares (see
//! [`crate::snapshot`]).
//!
//! [`Index1D`]: mobidx_core::Index1D

use crate::batch::ShardOp;
use crate::health::ShardHealth;
use crate::ServeError;
use mobidx_core::{FrozenIndex1D, Index1D, IoTotals, QueryRequest};
use mobidx_obs::telemetry::WorkloadProfile;
use mobidx_obs::{OpenSpan, Span};
use mobidx_workload::{MorQuery1D, Motion1D};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// A message to a shard worker. Replies travel on per-request channels
/// so concurrent clients never see each other's answers.
pub(crate) enum Request<I> {
    /// Apply this shard's slice of a batch, in order. With `publish`
    /// set — a snapshot read happened since the apply before — the
    /// reply carries the shard's freshly frozen read view (one freeze
    /// per drained group, shared by every reply of the group), or `None`
    /// when the index cannot freeze: the facade's snapshot registry
    /// then keeps serving the previous snapshot. With `publish` clear
    /// the worker first lets go of the views it holds and freezes
    /// nothing; the reply carries `None`.
    Apply {
        ops: Vec<ShardOp>,
        publish: bool,
        #[allow(clippy::type_complexity)]
        reply: Sender<Result<Option<Arc<dyn FrozenIndex1D>>, ServeError>>,
    },
    /// Answer a MOR query into `buf` (a pooled buffer whose capacity is
    /// reused across requests) and send it back.
    Query {
        q: MorQuery1D,
        buf: Vec<u64>,
        reply: Sender<Result<Vec<u64>, ServeError>>,
    },
    /// Answer a MOR query inside a hierarchical trace span. `epoch` is
    /// the facade-wide time base every span of the tree measures from,
    /// and `sent_nanos` the enqueue time against that base (the worker
    /// derives its queue wait from it).
    Traced {
        q: MorQuery1D,
        epoch: Instant,
        sent_nanos: u64,
        #[allow(clippy::type_complexity)]
        reply: Sender<Result<(Vec<u64>, Span), ServeError>>,
    },
    /// Report I/O totals and the per-store breakdown.
    Stats {
        #[allow(clippy::type_complexity)]
        reply: Sender<(IoTotals, Vec<(String, IoTotals)>)>,
    },
    /// Flush and clear buffer pools.
    ClearBuffers { reply: Sender<()> },
    /// Reset I/O counters.
    ResetIo { reply: Sender<()> },
    /// Run an arbitrary closure against the owned index (the
    /// fault-injection hook of `mobidx-check`; see
    /// [`crate::ShardedDb::with_shard`]).
    With {
        f: Box<dyn FnOnce(&mut I) + Send>,
        reply: Sender<Result<(), ServeError>>,
    },
    /// Freeze the index as it stands, between two applies: a snapshot
    /// read found the shard's view let go. `None` from a poisoned shard
    /// or an index that cannot freeze.
    Freeze {
        reply: Sender<Option<Arc<dyn FrozenIndex1D>>>,
    },
    /// Replace the owned index with `index` and load `motions` into it,
    /// clearing the poisoned flag. The facade sends the authoritative
    /// motion records for this shard; the reply carries the replaced
    /// index. The views of the replaced index are let go.
    Rebuild {
        index: Box<I>,
        motions: Vec<Motion1D>,
        reply: Sender<Result<Box<I>, ServeError>>,
    },
    /// Drain and exit (sent on facade drop).
    Shutdown,
}

/// The worker loop: owns `index` until shutdown. `health` is shared
/// with the facade: the worker decrements the queue-depth gauge at each
/// dequeue, feeds the latency histograms, and mirrors its poisoned flag
/// into the gauge so [`crate::ShardedDb::health`] sees it without a
/// queue round-trip. `profile` is the facade-wide workload
/// characterizer: the worker feeds it the velocity of every record it
/// inserts (updates arrive as remove+insert, so inserts carry the
/// current velocity distribution).
///
/// When `commit_on_apply` is set (any fsync policy but `Never`), every
/// drained apply group ends by sealing one durability commit window on
/// the index's stores ([`Index1D::commit_group`]) — the opportunistic
/// queue drain below thereby doubles as WAL group commit: `k` queued
/// applies cost one sealed window, not `k`. A rejected window reports
/// [`ServeError::ShardFault`] to every batch in the group but does
/// *not* poison the shard — the in-memory index is intact and the
/// window is retried wholesale by the next group's commit.
pub(crate) fn run<I: Index1D>(
    shard: usize,
    mut index: I,
    rx: &Receiver<Request<I>>,
    health: &Arc<ShardHealth>,
    profile: &Arc<WorkloadProfile>,
    commit_on_apply: bool,
) {
    let mut poisoned = false;
    // The last two views this worker built, older first. The shard that
    // built a view also retires it, at the start of the next `Apply`: by
    // then the facade has displaced `prev` (the `apply` that published
    // `current` has returned), so unless a `ReadView` lingers this is
    // its last reference. A publishing `Apply` then recycles it instead
    // of freeing it: `prev` is refrozen up to the index as it stands,
    // which lets go of exactly the pages only it held (the pre-images
    // of the last batch) — kept as the allocations this batch's
    // copy-on-writes copy into — and refrozen again after the batch to
    // become the published view. Both refreezes cost pointer compares
    // plus reference counts for the pages that changed, in parallel
    // across shards and outside every facade lock. Patching it *before*
    // the batch keeps the peak at two generations; holding its old
    // pages across the batch's copy-on-write would make it three. A view
    // a reader still holds is never patched: it is let go, and the batch
    // ends in a fresh freeze. An `Apply` that is not to publish drops
    // `current` too — the registry let go of it before dispatching — and
    // so writes its pages in place.
    let mut prev: Option<Arc<dyn FrozenIndex1D>> = None;
    let mut current: Option<Arc<dyn FrozenIndex1D>> = None;
    let retire = |view: Option<Arc<dyn FrozenIndex1D>>| {
        if view.is_some_and(|view| Arc::strong_count(&view) == 1) {
            health.views_retired.incr();
        }
    };
    'serve: while let Ok(req) = rx.recv() {
        health.queue_depth.decr();
        health.dequeued.incr();
        // An `Apply` may coalesce queued `Apply`s behind it; the first
        // non-`Apply` drained is carried over to the next iteration.
        let mut carried = Some(req);
        while let Some(req) = carried.take() {
            match req {
                Request::Apply {
                    ops,
                    mut publish,
                    reply,
                } => {
                    // Group commit: opportunistically drain every Apply
                    // already queued so their ops are sorted and applied
                    // as a single batch (one descent and one dirty page
                    // per touched leaf, not one per op).
                    let mut group = ops;
                    let mut replies = vec![reply];
                    while let Ok(next) = rx.try_recv() {
                        health.queue_depth.decr();
                        health.dequeued.incr();
                        match next {
                            Request::Apply {
                                ops,
                                publish: wanted,
                                reply,
                            } => {
                                group.extend(ops);
                                publish |= wanted;
                                replies.push(reply);
                            }
                            other => {
                                carried = Some(other);
                                break;
                            }
                        }
                    }
                    health.drained_batch_size.record(group.len() as u64);
                    let n_ops = group.len() as u64;
                    // The clock covers the retire (or the recycle): the
                    // cost left the client, it must not leave the books.
                    let started = Instant::now();
                    let mut recycled = match prev.take() {
                        Some(view) if publish && !poisoned => recycle(&mut index, view, health),
                        stale => {
                            retire(stale);
                            None
                        }
                    };
                    if !publish {
                        retire(current.take());
                    }
                    let mut r = guarded(shard, &mut poisoned, || {
                        apply_group(&mut index, &group);
                    });
                    if r.is_ok() && commit_on_apply {
                        // Durability group commit: one sealed window for
                        // the whole drained group (no-op on memory
                        // backends). A rejection leaves the index state
                        // valid and the window pending, so the shard is
                        // not poisoned.
                        if let Err(rejected) = index.commit_group() {
                            r = Err(ServeError::ShardFault {
                                shard,
                                panic: rejected.to_string(),
                            });
                        }
                    }
                    let mut view: Option<Arc<dyn FrozenIndex1D>> = None;
                    if r.is_ok() {
                        health.update_latency.record(elapsed_us(started));
                        health.applied_batches.incr();
                        health.applied_ops.add(n_ops);
                        for op in &group {
                            if let ShardOp::Insert(m) = op {
                                profile.record_update(m.v);
                            }
                        }
                        if publish {
                            // One view per drained group: the sealed
                            // post-commit state becomes the shard's next
                            // published read view — `prev` patched up
                            // to it, or a fresh freeze where `prev`
                            // could not be recycled.
                            view = if recycled
                                .as_mut()
                                .and_then(Arc::get_mut)
                                .is_some_and(|view| index.refreeze(view))
                            {
                                health.views_built.incr();
                                recycled.take()
                            } else {
                                freeze(&index, health)
                            };
                            prev = std::mem::replace(&mut current, view.clone());
                        }
                    }
                    for reply in replies {
                        let _ = reply.send(r.clone().map(|()| view.clone()));
                    }
                }
                Request::Query { q, mut buf, reply } => {
                    let started = Instant::now();
                    let r = guarded(shard, &mut poisoned, || {
                        index.search(&q, &mut buf);
                        buf
                    });
                    if r.is_ok() {
                        health.query_latency.record(elapsed_us(started));
                        health.queries.incr();
                    }
                    let _ = reply.send(r);
                }
                Request::Traced {
                    q,
                    epoch,
                    sent_nanos,
                    reply,
                } => {
                    let started = Instant::now();
                    // The worker's leg of the query tree: carries shard
                    // identity, Chrome-trace lane routing, the `s<i>/` store
                    // attribution prefix, and the time the request sat in
                    // the queue; the index's own span nests inside it.
                    let mut leg = OpenSpan::begin(format!("s{shard}/execute"), epoch);
                    leg.set_attr("shard", shard as u64);
                    leg.set_attr("lane", shard as u64 + 1);
                    leg.set_attr("lane_name", format!("mobidx-shard-{shard}").as_str());
                    leg.set_attr("store_prefix", format!("s{shard}/").as_str());
                    leg.set_attr(
                        "queue_wait_nanos",
                        leg.start_nanos().saturating_sub(sent_nanos),
                    );
                    let r = guarded(shard, &mut poisoned, || {
                        let out = index.query(&QueryRequest::new(&q).spanned(epoch));
                        let span = out.span.clone().expect("spanned request yields a span");
                        (out.into_ids(), span)
                    });
                    let r = r.map(|(ids, span)| {
                        if let Some(c) = span.attr_u64("candidates") {
                            leg.set_attr("candidates", c);
                        }
                        leg.push(span);
                        health.query_latency.record(elapsed_us(started));
                        health.queries.incr();
                        (ids, leg.finish())
                    });
                    let _ = reply.send(r);
                }
                Request::Stats { reply } => {
                    let _ = reply.send((index.io_totals(), index.store_io()));
                }
                Request::ClearBuffers { reply } => {
                    index.clear_buffers();
                    let _ = reply.send(());
                }
                Request::ResetIo { reply } => {
                    index.reset_io();
                    let _ = reply.send(());
                }
                Request::With { f, reply } => {
                    let r = guarded(shard, &mut poisoned, || f(&mut index));
                    let _ = reply.send(r);
                }
                Request::Freeze { reply } => {
                    retire(prev.take());
                    let view = guarded(shard, &mut poisoned, || freeze(&index, health));
                    let view = view.ok().flatten();
                    if view.is_some() {
                        prev = std::mem::replace(&mut current, view.clone());
                    }
                    let _ = reply.send(view);
                }
                Request::Rebuild {
                    index: fresh,
                    motions,
                    reply,
                } => {
                    retire(prev.take());
                    retire(current.take());
                    // The replaced index travels back to the facade in its
                    // last (possibly poisoned) state for post-mortem reads.
                    let old = std::mem::replace(&mut index, *fresh);
                    poisoned = false;
                    let mut r = guarded(shard, &mut poisoned, || {
                        for m in &motions {
                            index.insert(m);
                        }
                    });
                    if r.is_ok() && commit_on_apply {
                        if let Err(rejected) = index.commit_group() {
                            r = Err(ServeError::ShardFault {
                                shard,
                                panic: rejected.to_string(),
                            });
                        }
                    }
                    let _ = reply.send(r.map(|()| Box::new(old)));
                }
                Request::Shutdown => break 'serve,
            }
            health.poisoned.set(u64::from(poisoned));
        }
    }
}

/// Freezes `index` into a shareable view, on the books.
fn freeze<I: Index1D>(index: &I, health: &ShardHealth) -> Option<Arc<dyn FrozenIndex1D>> {
    let view = index.freeze().map(Arc::from);
    if view.is_some() {
        health.views_built.incr();
    }
    view
}

/// Retires `view`'s epoch at the start of a publishing apply. When this
/// worker is its last owner the view is patched up to `index` as it
/// stands and returned — the pre-images only it held are now the
/// allocations the batch copies into — and otherwise, or when the index
/// cannot refreeze it, let go. Counted like a retire: only a view this
/// worker was the last owner of.
fn recycle<I: Index1D>(
    index: &mut I,
    mut view: Arc<dyn FrozenIndex1D>,
    health: &ShardHealth,
) -> Option<Arc<dyn FrozenIndex1D>> {
    let only = Arc::get_mut(&mut view)?;
    health.views_retired.incr();
    index.refreeze(only).then_some(view)
}

/// Elapsed wall-clock since `started`, in microseconds.
fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Applies a shard-local op group as one net batch.
///
/// The ops are folded to their net effect per object id (an insert
/// cancelled by a later remove disappears; remove-then-reinsert of an id
/// nets to one removal of the old record plus one insertion of the final
/// one), sorted by dual-space locality, and handed to
/// [`Index1D::batch_update`] so methods with a grouped write path dirty
/// each touched page once.
fn apply_group<I: Index1D>(index: &mut I, ops: &[ShardOp]) {
    #[derive(Default)]
    struct Net {
        removed: Option<Motion1D>,
        inserted: Option<Motion1D>,
    }
    let mut net: std::collections::HashMap<u64, Net> = std::collections::HashMap::new();
    for op in ops {
        match op {
            ShardOp::Insert(m) => {
                let e = net.entry(m.id).or_default();
                debug_assert!(e.inserted.is_none(), "double insert of object {}", m.id);
                e.inserted = Some(*m);
            }
            ShardOp::Remove(m) => {
                let e = net.entry(m.id).or_default();
                if let Some(pending) = e.inserted.take() {
                    // A record inserted earlier in this group and removed
                    // again nets to nothing.
                    debug_assert_eq!(pending, *m, "remove of a stale record");
                } else {
                    debug_assert!(e.removed.is_none(), "double remove of object {}", m.id);
                    e.removed = Some(*m);
                }
            }
        }
    }
    let mut removes = Vec::with_capacity(net.len());
    let mut inserts = Vec::with_capacity(net.len());
    for e in net.into_values() {
        removes.extend(e.removed);
        inserts.extend(e.inserted);
    }
    mobidx_core::sort_by_dual_locality(&mut removes);
    mobidx_core::sort_by_dual_locality(&mut inserts);
    let removed = index.batch_update(&removes, &inserts);
    debug_assert_eq!(removed, removes.len(), "shard lost objects in batch");
}

/// Runs `f` under `catch_unwind`, honoring and updating the poisoned
/// flag. `AssertUnwindSafe` is sound here: on panic the index is never
/// touched again until a `Rebuild` replaces it wholesale.
fn guarded<T>(shard: usize, poisoned: &mut bool, f: impl FnOnce() -> T) -> Result<T, ServeError> {
    if *poisoned {
        return Err(ServeError::ShardPoisoned { shard });
    }
    catch_unwind(AssertUnwindSafe(f)).map_err(|cause| {
        *poisoned = true;
        let panic = cause
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| cause.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload")
            .to_owned();
        ServeError::ShardFault { shard, panic }
    })
}
