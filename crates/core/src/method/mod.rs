//! The indexing methods compared in the paper, behind common traits so
//! the benchmark harness (Figures 6–9) can drive them interchangeably.

pub mod dual2d;
pub mod dual_bplus;
pub mod dual_kd;
pub mod join;
pub mod mor1;
pub mod ptree;
pub(crate) mod rotating;
pub mod routes;
pub mod seg_rtree;
pub mod vp_dual;

use crate::ids::IdSet;
use mobidx_obs::{OpenSpan, Span, SpanIo};
use mobidx_pager::{Backend, IoStats, PagerError, Store, PAGER_FAULT};
use mobidx_workload::{MorQuery1D, MorQuery2D, Motion1D, Motion2D};
use std::cell::Cell;
use std::fmt;
use std::time::Instant;

/// One read request against any index surface — the single,
/// options-driven entry point that replaced the historical
/// `query` / `query_into` / `query_filtered` / `query_traced` /
/// `query_span` family.
///
/// Build one with [`QueryRequest::new`] (or `(&q).into()`) and chain the
/// options:
///
/// ```
/// use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
/// use mobidx_core::{Index1D, Motion1D, MorQuery1D, QueryRequest};
/// use std::time::Instant;
///
/// let mut index = DualBPlusIndex::new(DualBPlusConfig::default());
/// index.insert(&Motion1D { id: 1, t0: 0.0, y0: 120.0, v: 0.8 });
/// let q = MorQuery1D { y1: 140.0, y2: 200.0, t1: 30.0, t2: 40.0 };
///
/// // Plain query.
/// assert_eq!(index.query(&QueryRequest::new(&q)), vec![1]);
///
/// // Span tree and candidate count, reusing a caller-owned buffer.
/// let buf = Vec::with_capacity(64);
/// let out = index.query(&QueryRequest::new(&q).spanned(Instant::now()).with_buffer(buf));
/// assert_eq!(out.ids, vec![1]);
/// let span = out.span.expect("spanned request yields a span");
/// assert_eq!(span.attr_u64("candidates"), Some(out.candidates));
/// assert_eq!(span.attr_u64("results"), Some(1));
/// ```
///
/// The request is a plain value: `q` borrows the caller's query, and the
/// optional out-buffer rides in a [`Cell`] so the (single-threaded)
/// executor can take it without the request being `&mut`. The options
/// shape the answer, never the route: a sharded facade serves every
/// request from its snapshot read path.
pub struct QueryRequest<'a, Q> {
    q: &'a Q,
    span_epoch: Option<Instant>,
    speed: Option<(f64, f64)>,
    reuse: Cell<Option<Vec<u64>>>,
}

impl<Q: std::fmt::Debug> std::fmt::Debug for QueryRequest<'_, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRequest")
            .field("q", &self.q)
            .field("span_epoch", &self.span_epoch)
            .field("speed", &self.speed)
            .finish_non_exhaustive()
    }
}

impl<'a, Q> QueryRequest<'a, Q> {
    /// A plain request: no span, default routing.
    #[must_use]
    pub fn new(q: &'a Q) -> Self {
        Self {
            q,
            span_epoch: None,
            speed: None,
            reuse: Cell::new(None),
        }
    }

    /// Requests the full hierarchical [`Span`] tree, timed against
    /// `epoch` (the caller-wide time base), in [`QueryOutput::span`].
    #[must_use]
    pub fn spanned(mut self, epoch: Instant) -> Self {
        self.span_epoch = Some(epoch);
        self
    }

    /// Restricts the answer to objects whose absolute speed lies in
    /// `[v_lo, v_hi]` (the historical `query_filtered`). Only the
    /// sharded facade honors it — it filters its snapshot answer against
    /// the motion table; index-level surfaces ignore it.
    #[must_use]
    pub fn speed_band(mut self, v_lo: f64, v_hi: f64) -> Self {
        self.speed = Some((v_lo, v_hi));
        self
    }

    /// Donates a buffer whose capacity the executor reuses for the
    /// result ids — the historical `query_into`: callers serving many
    /// queries recycle one allocation across requests. Candidates are
    /// collected in the id kernel's own per-thread buffer
    /// ([`crate::ids::assemble`]) whether or not a buffer is donated, so
    /// donation saves only the answer's allocation; an undonated answer
    /// is allocated once, at its final length.
    #[must_use]
    pub fn with_buffer(self, buf: Vec<u64>) -> Self {
        self.reuse.set(Some(buf));
        self
    }

    /// The MOR query itself.
    #[must_use]
    pub fn query(&self) -> &'a Q {
        self.q
    }

    /// The span time base, when a full span tree was requested.
    #[must_use]
    pub fn span_epoch(&self) -> Option<Instant> {
        self.span_epoch
    }

    /// Whether the executor must build a span tree.
    #[must_use]
    pub fn wants_span(&self) -> bool {
        self.span_epoch.is_some()
    }

    /// The speed filter, if any.
    #[must_use]
    pub fn speed_filter(&self) -> Option<(f64, f64)> {
        self.speed
    }

    /// Takes the donated buffer (cleared), or a fresh one. Executors
    /// call this exactly once per request.
    #[must_use]
    pub fn take_buffer(&self) -> Vec<u64> {
        let mut buf = self.reuse.take().unwrap_or_default();
        buf.clear();
        buf
    }
}

impl<'a, Q> From<&'a Q> for QueryRequest<'a, Q> {
    fn from(q: &'a Q) -> Self {
        QueryRequest::new(q)
    }
}

/// The answer to a [`QueryRequest`]: the sorted, deduplicated ids, the
/// candidates examined to find them, and the span tree when the request
/// asked for one. This is the one per-query record: a method reports its
/// candidates here (and on the span's root) rather than keeping them.
///
/// Dereferences to the id slice and compares against `Vec<u64>`, so
/// existing `assert_eq!(db.query(..), want)` call sites keep reading
/// naturally.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Sorted, deduplicated matching object ids.
    pub ids: Vec<u64>,
    /// Candidate entries examined before exact refinement; the §3.5.2
    /// false hits are `candidates − ids.len()`.
    pub candidates: u64,
    /// The commit epoch of the snapshot that served the read, when the
    /// executor is a snapshot surface (`None` on live-index reads).
    pub epoch: Option<u64>,
    /// The full span tree, when requested via [`QueryRequest::spanned`].
    pub span: Option<Span>,
}

impl QueryOutput {
    /// Unwraps the result ids (e.g. to recycle the buffer).
    #[must_use]
    pub fn into_ids(self) -> Vec<u64> {
        self.ids
    }
}

impl std::ops::Deref for QueryOutput {
    type Target = Vec<u64>;
    fn deref(&self) -> &Vec<u64> {
        &self.ids
    }
}

impl PartialEq<Vec<u64>> for QueryOutput {
    fn eq(&self, other: &Vec<u64>) -> bool {
        self.ids == *other
    }
}

impl PartialEq<QueryOutput> for Vec<u64> {
    fn eq(&self, other: &QueryOutput) -> bool {
        *self == other.ids
    }
}

impl PartialEq for QueryOutput {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids
    }
}

/// Read-side cost of one frozen-snapshot search. Snapshot reads bypass
/// the buffer pools and [`IoStats`] entirely (they touch shared frozen
/// pages, not the simulated disk), so the external-memory cost is
/// reported to the caller instead of accumulated in the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrozenReadStats {
    /// Candidate entries examined before exact refinement.
    pub candidates: u64,
    /// Frozen pages visited — the I/O the same search would have cost.
    pub pages: u64,
}

impl FrozenReadStats {
    /// Component-wise sum.
    #[must_use]
    pub fn merge(self, other: FrozenReadStats) -> FrozenReadStats {
        FrozenReadStats {
            candidates: self.candidates + other.candidates,
            pages: self.pages + other.pages,
        }
    }
}

/// An immutable, shareable read-only view of an [`Index1D`], published
/// by [`Index1D::freeze`]. Searches take `&self`, never fault (frozen
/// pages bypass the pluggable backends), and are safe from any thread —
/// the serving tier's snapshot read path runs them from a work-stealing
/// pool with zero queueing behind writes.
///
/// A view answers into an [`IdSet`]: a dense answer stays the presence
/// bitmap the id kernel sorts it through, so a caller that combines
/// several views' answers (the facade's shard legs, the
/// velocity-partitioned method's bands) unpacks the ids once, through
/// [`ids::union`](crate::ids::union) (or keeps them packed, through
/// [`ids::union_set`](crate::ids::union_set)), rather than once per view
/// and again to merge. [`search`](FrozenIndex1D::search) is the one-view
/// case, written once here.
pub trait FrozenIndex1D: Send + Sync {
    /// Answers a MOR query into `out` (refilled with the matching ids,
    /// in either of its forms), reporting the read cost.
    fn search_set(&self, q: &MorQuery1D, out: &mut IdSet) -> FrozenReadStats;

    /// Answers a MOR query into `out` (cleared, then filled with the
    /// sorted, deduplicated ids), reporting the read cost:
    /// [`search_set`](FrozenIndex1D::search_set) into a per-thread set,
    /// then a bitmap's ids written out, or a sorted list's buffer handed
    /// over as `out` (see [`ids::unpack_with`](crate::ids::unpack_with)).
    fn search(&self, q: &MorQuery1D, out: &mut Vec<u64>) -> FrozenReadStats {
        crate::ids::unpack_with(out, |set| self.search_set(q, set))
    }

    /// The view as [`Any`](std::any::Any), for the index that built it
    /// to recognise its own view type in [`Index1D::refreeze`]. `None`
    /// (the default) for views that cannot be refrozen.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Aggregated I/O and space counters across all page stores of a method
/// (e.g. the `c` observation B+-trees of the approximation method).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTotals {
    /// Page reads.
    pub reads: u64,
    /// Page writes.
    pub writes: u64,
    /// Live pages (the space metric of Figure 8).
    pub pages: u64,
    /// Buffer-pool hits (page accesses served without I/O).
    pub hits: u64,
    /// Framed WAL records appended by durable backends (0 for
    /// in-memory stores).
    pub wal_records: u64,
    /// `fsync`s issued sealing commit windows and checkpoints.
    pub wal_fsyncs: u64,
}

impl IoTotals {
    /// Captures one store's counters.
    #[must_use]
    pub fn from_stats(stats: &IoStats) -> IoTotals {
        IoTotals {
            reads: stats.reads(),
            writes: stats.writes(),
            pages: stats.live_pages(),
            hits: stats.hits(),
            wal_records: stats.wal_records(),
            wal_fsyncs: stats.wal_fsyncs(),
        }
    }

    /// Reads + writes — the per-operation cost the paper plots.
    #[must_use]
    pub fn ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of page accesses served by the buffer pools
    /// (`hits / (hits + reads)`; 0.0 when no pages were touched).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let touched = self.hits + self.reads;
        if touched == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.hits as f64 / touched as f64
        }
    }

    /// Component-wise sum.
    #[must_use]
    pub fn merge(self, other: IoTotals) -> IoTotals {
        IoTotals {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            pages: self.pages + other.pages,
            hits: self.hits + other.hits,
            wal_records: self.wal_records + other.wal_records,
            wal_fsyncs: self.wal_fsyncs + other.wal_fsyncs,
        }
    }

    /// Component-wise difference (`self` must be the later snapshot).
    #[must_use]
    pub fn delta_since(self, earlier: IoTotals) -> IoTotals {
        IoTotals {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            pages: self.pages,
            hits: self.hits - earlier.hits,
            wal_records: self.wal_records - earlier.wal_records,
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
        }
    }
}

/// Cumulative per-band read accounting reported by velocity-partitioned
/// methods through [`IndexStats::band_io`]. One entry per speed band;
/// the counters accumulate across queries until the partition layout
/// changes (a repartition restarts the series, since the bands it
/// described no longer exist).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BandIo {
    /// Inclusive lower speed-magnitude edge of the band.
    pub v_lo: f64,
    /// Exclusive upper speed-magnitude edge of the band.
    pub v_hi: f64,
    /// Records currently resident in the band's sub-index.
    pub residents: u64,
    /// Candidate entries the band's sub-index scanned across all
    /// queries since the layout was established.
    pub candidates: u64,
    /// Exact results the band contributed across the same queries.
    pub results: u64,
}

impl BandIo {
    /// Fraction of scanned candidates that failed exact refinement —
    /// the §3.5.2 false-hit rate, attributed to this band alone.
    /// 0.0 when the band scanned nothing.
    #[must_use]
    pub fn false_hit_rate(&self) -> f64 {
        if self.candidates == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            (self.candidates - self.results.min(self.candidates)) as f64 / self.candidates as f64
        }
    }
}

/// The motion- and query-type-independent surface shared by every index
/// method: naming, buffer management, and I/O accounting. [`Index1D`]
/// and [`Index2D`] are thin traits over it — the observability plumbing
/// (`mobidx-obs` traces, the figure harness, the serving tier's
/// per-shard aggregation) needs only this supertrait.
///
/// A method lists its page stores once, in [`IndexStats::stores`] and
/// the mutable [`IndexStats::stores_mut`] beside it; every store-walking
/// method here is written once over that list.
pub trait IndexStats {
    /// Short display name used by the harness (e.g. `"dual-B+ (c=6)"`).
    fn name(&self) -> String;

    /// Visits every internal page store with its label, in the method's
    /// one fixed store order. Consecutive stores may share a label
    /// (a velocity-sign pair, a sub-index): [`IndexStats::store_io`]
    /// reports them as one.
    fn stores(&self, visit: &mut dyn FnMut(fmt::Arguments<'_>, &dyn Store));

    /// Visits the stores of [`IndexStats::stores`], in the same order,
    /// mutably.
    fn stores_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Store));

    /// Flushes and clears all buffer pools (the paper clears buffers
    /// before each query so query I/O is cold).
    ///
    /// # Panics
    /// With [`crate::PAGER_FAULT`], on a write-back the backend rejects
    /// for good (a fault-injecting backend; see
    /// [`Store::try_clear_buffer`]).
    fn clear_buffers(&mut self) {
        self.stores_mut(&mut |store| store.try_clear_buffer().expect(PAGER_FAULT));
    }

    /// Aggregated I/O counters over every internal page store.
    fn io_totals(&self) -> IoTotals {
        let mut totals = IoTotals::default();
        self.stores(&mut |_, store| {
            totals = totals.merge(IoTotals::from_stats(store.stats()));
        });
        totals
    }

    /// Resets the read/write counters (space counters are preserved).
    fn reset_io(&self) {
        self.stores(&mut |_, store| store.stats().reset_io());
    }

    /// Per-store I/O breakdown, labelled: consecutive stores sharing a
    /// label are summed into one entry. The component totals sum to
    /// [`IndexStats::io_totals`].
    fn store_io(&self) -> Vec<(String, IoTotals)> {
        let mut out: Vec<(String, IoTotals)> = Vec::new();
        self.stores(&mut |label, store| {
            let (label, totals) = (label.to_string(), IoTotals::from_stats(store.stats()));
            match out.last_mut() {
                Some((last, sum)) if *last == label => *sum = sum.merge(totals),
                _ => out.push((label, totals)),
            }
        });
        out
    }

    /// Per-speed-band read accounting, for methods that partition by
    /// velocity (see [`BandIo`]). The default — for unpartitioned
    /// methods — reports none.
    fn band_io(&self) -> Option<Vec<BandIo>> {
        None
    }

    /// Replaces the storage backend of every internal page store,
    /// calling `make` once per store in [`IndexStats::stores`] order —
    /// the hook the fault-injection harness and the disk-latency bench
    /// use to arm backends behind an object-safe surface.
    fn set_backends(&mut self, make: &mut dyn FnMut() -> Box<dyn Backend>) {
        self.stores_mut(&mut |store| drop(store.set_backend(make())));
    }

    /// Commits one window on every durable internal page store: pages
    /// dirtied since the last commit reach the write-ahead log under one
    /// group-commit fsync each, and every store is sealed before any is
    /// settled, so those fsyncs are in flight together. The serving tier
    /// calls this after draining a group of applies (group commit);
    /// methods without durable storage keep the default no-op.
    ///
    /// # Errors
    /// Reports the first store, in store order, whose journal rejected
    /// the window. That store's window is kept and retried by the next
    /// commit; the stores before it committed, the ones after it kept
    /// their windows too.
    fn commit_group(&mut self) -> Result<(), CommitError> {
        Ok(())
    }
}

/// A commit window one store of an index rejected
/// ([`IndexStats::commit_group`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitError {
    /// The store that rejected it: `static`, `obs{i}.pos` or
    /// `obs{i}.neg`, behind `b{band}/` in a velocity-partitioned index.
    pub store: String,
    /// What the store's journal reported.
    pub error: PagerError,
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "commit window rejected on {}: {}",
            self.store, self.error
        )
    }
}

impl std::error::Error for CommitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The one shared span-building implementation behind the unified
/// `query` of both [`Index1D`] and [`Index2D`]: runs `run` (which fills
/// `out` with the sorted, deduplicated answer and returns the candidates
/// it examined) inside an `index.query` span timed against `epoch`, with
/// one zero-duration leaf child per internal page store carrying that
/// store's I/O delta (plus a `pages` level attribute). Because I/O is
/// attributed to the leaves only, [`Span::total_io`] over the result
/// reconciles exactly with the [`IoTotals`] delta around the call.
fn run_span<I>(
    index: &mut I,
    epoch: Instant,
    out: &mut Vec<u64>,
    run: impl FnOnce(&mut I, &mut Vec<u64>) -> u64,
) -> (u64, Span)
where
    I: IndexStats + ?Sized,
{
    let stores_before = index.store_io();
    let mut open = OpenSpan::begin("index.query", epoch);
    let candidates = run(index, out);
    let stores_after = index.store_io();
    debug_assert_eq!(
        stores_before.len(),
        stores_after.len(),
        "store layout changed mid-query"
    );
    open.set_attr("method", index.name().as_str());
    open.set_attr("candidates", candidates);
    open.set_attr("results", out.len() as u64);
    let start_nanos = open.start_nanos();
    for ((label, now), (_, then)) in stores_after.iter().zip(&stores_before) {
        let d = now.delta_since(*then);
        let leaf = Span::leaf(
            format!("store/{label}"),
            start_nanos,
            SpanIo {
                reads: d.reads,
                writes: d.writes,
                hits: d.hits,
            },
        )
        .with_attr("store", label.as_str())
        .with_attr("pages", now.pages);
        open.push(leaf);
    }
    (candidates, open.finish())
}

/// The one default body of [`Index1D::query`] and [`Index2D::query`]:
/// `search` (the method's `search` hook) fills the request's buffer and
/// returns its candidates, inside [`run_span`] when the request wants a
/// span.
fn run_query<I, Q>(
    index: &mut I,
    req: &QueryRequest<'_, Q>,
    search: impl FnOnce(&mut I, &Q, &mut Vec<u64>) -> u64,
) -> QueryOutput
where
    I: IndexStats + ?Sized,
{
    let mut ids = req.take_buffer();
    let (candidates, span) = match req.span_epoch() {
        Some(epoch) => {
            let (candidates, span) = run_span(index, epoch, &mut ids, |index, out| {
                search(index, req.query(), out)
            });
            (candidates, Some(span))
        }
        None => (search(index, req.query(), &mut ids), None),
    };
    QueryOutput {
        ids,
        candidates,
        epoch: None,
        span,
    }
}

/// A dynamic index over 1-D mobile objects answering MOR queries.
///
/// Contract:
/// * an *update* is `remove(old)` + `insert(new)` (§3);
/// * `query` returns the ids of matching objects, **sorted and
///   deduplicated**;
/// * the statistics surface ([`IndexStats`]) aggregates over every
///   internal page store.
///
/// This trait, [`Index2D`] and [`crate::MotionDb`] are the one
/// infallible layer: the index crates below expose only fallible
/// `try_*` calls, and every implementation here expects them.
///
/// # Panics
/// An update or a query panics with [`crate::PAGER_FAULT`] when a page
/// store reports a fault, which only a fault-injecting backend armed
/// through [`IndexStats::set_backends`] does.
pub trait Index1D: IndexStats {
    /// Inserts an object's motion record.
    fn insert(&mut self, m: &Motion1D);

    /// Removes an object's motion record (exactly as inserted). Returns
    /// whether it was present.
    fn remove(&mut self, m: &Motion1D) -> bool;

    /// Applies a group of mutations as removals followed by insertions —
    /// an update is still delete(old) + insert(new) (§3); batching
    /// changes the I/O schedule, not the semantics. Returns how many
    /// removals found their record.
    ///
    /// Callers pass both slices sorted by dual-space locality (see
    /// [`crate::db::MotionDb::apply_batch`]). The default simply loops;
    /// methods with a grouped write path (the dual-B+ observation trees)
    /// override it so that `k` records landing in one page dirty that
    /// page once instead of `k` times.
    fn batch_update(&mut self, removes: &[Motion1D], inserts: &[Motion1D]) -> usize {
        let mut removed = 0usize;
        for m in removes {
            if self.remove(m) {
                removed += 1;
            }
        }
        for m in inserts {
            self.insert(m);
        }
        removed
    }

    /// The implementor hook behind [`Index1D::query`]: answers a MOR
    /// query into `out` (cleared, then filled with the sorted,
    /// deduplicated ids) and returns the candidate entries it examined
    /// before exact refinement and dedup — the count
    /// [`QueryOutput::candidates`] and the span's `candidates` attribute
    /// carry. Methods implement only this; callers go through the
    /// options-driven [`Index1D::query`].
    fn search(&mut self, q: &MorQuery1D, out: &mut Vec<u64>) -> u64;

    /// Answers a MOR query — the one read entry point. The request
    /// carries every option the historical `query_into` / `query_span` /
    /// `query_traced` family spread over signatures: span construction
    /// and out-buffer reuse. Plain calls read as
    /// `index.query(&QueryRequest::new(&q))` (or `(&q).into()`).
    fn query(&mut self, req: &QueryRequest<'_, MorQuery1D>) -> QueryOutput {
        run_query(self, req, |index, q, out| index.search(q, out))
    }

    /// Publishes an immutable, `Send + Sync` snapshot of the index for
    /// the zero-queueing snapshot read path, or `None` when the method
    /// has no frozen representation (the default). Implementors back it
    /// with page-level copy-on-write ([`mobidx_pager::PageStore::freeze`]):
    /// no page contents are copied, but every live page slot costs one
    /// reference-count bump, so publication is O(live slots) — and so is
    /// the view's death.
    fn freeze(&self) -> Option<Box<dyn FrozenIndex1D>> {
        None
    }

    /// Turns `view` — a view this index built earlier, which nobody else
    /// holds — into the snapshot [`Index1D::freeze`] would publish now,
    /// in place, and returns `true`. Implementors back it with
    /// [`mobidx_pager::PageStore::refreeze`]: O(live slots) pointer
    /// compares plus O(pages dirtied since `view` was sealed) reference
    /// counts, and the pre-images it lets go become the allocations the
    /// index's next copy-on-writes copy into.
    ///
    /// `false` (the default) when the method cannot refreeze, when
    /// `view` is not of its own shape, or when part of it is shared; the
    /// view may then be partly patched and is to be dropped, and the
    /// caller freezes afresh.
    fn refreeze(&mut self, view: &mut dyn FrozenIndex1D) -> bool {
        let _ = view;
        false
    }
}

/// A dynamic index over 2-D mobile objects (§4.2), same contract as
/// [`Index1D`].
///
/// # Panics
/// An update or a query panics with [`crate::PAGER_FAULT`] when a page
/// store reports a fault, as in [`Index1D`].
pub trait Index2D: IndexStats {
    /// Inserts an object's motion record.
    fn insert(&mut self, m: &Motion2D);

    /// Removes an object's motion record. Returns whether it was present.
    fn remove(&mut self, m: &Motion2D) -> bool;

    /// The implementor hook behind [`Index2D::query`]: answers a 2-D MOR
    /// query into `out` (cleared, then filled with the sorted,
    /// deduplicated ids) and returns the candidates it examined, as
    /// [`Index1D::search`] does.
    fn search(&mut self, q: &MorQuery2D, out: &mut Vec<u64>) -> u64;

    /// Answers a 2-D MOR query — the one read entry point (see
    /// [`Index1D::query`]).
    fn query(&mut self, req: &QueryRequest<'_, MorQuery2D>) -> QueryOutput {
        run_query(self, req, |index, q, out| index.search(q, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_totals_merge() {
        let a = IoTotals {
            reads: 1,
            writes: 2,
            pages: 3,
            hits: 4,
            wal_records: 5,
            wal_fsyncs: 1,
        };
        let b = IoTotals {
            reads: 10,
            writes: 20,
            pages: 30,
            hits: 40,
            wal_records: 50,
            wal_fsyncs: 10,
        };
        let m = a.merge(b);
        assert_eq!(m.reads, 11);
        assert_eq!(m.ios(), 33);
        assert_eq!(m.pages, 33);
        assert_eq!(m.hits, 44);
        assert_eq!(m.wal_records, 55);
        assert_eq!(m.wal_fsyncs, 11);
    }

    #[test]
    fn io_totals_delta_and_hit_rate() {
        let before = IoTotals {
            reads: 5,
            writes: 1,
            pages: 9,
            hits: 2,
            wal_records: 3,
            wal_fsyncs: 1,
        };
        let after = IoTotals {
            reads: 8,
            writes: 1,
            pages: 10,
            hits: 5,
            wal_records: 7,
            wal_fsyncs: 2,
        };
        let d = after.delta_since(before);
        assert_eq!(d.reads, 3);
        assert_eq!(d.writes, 0);
        assert_eq!(d.hits, 3);
        assert_eq!(d.wal_records, 4);
        assert_eq!(d.wal_fsyncs, 1);
        assert_eq!(d.pages, 10, "pages is a level, not a delta");
        assert!((d.hit_rate() - 0.5).abs() < 1e-12);
        assert!(IoTotals::default().hit_rate().abs() < f64::EPSILON);
    }

    #[test]
    fn io_totals_from_stats() {
        let s = IoStats::new();
        s.add_reads(2);
        s.add_writes(1);
        s.add_hits(3);
        s.add_alloc();
        s.add_wal(4, 160, 2);
        let t = IoTotals::from_stats(&s);
        assert_eq!(t.reads, 2);
        assert_eq!(t.writes, 1);
        assert_eq!(t.hits, 3);
        assert_eq!(t.pages, 1);
        assert_eq!(t.wal_records, 4);
        assert_eq!(t.wal_fsyncs, 2);
    }

    #[test]
    fn finish_ids_sorts_and_dedups() {
        let mut ids = vec![3, 1, 3, 2];
        crate::ids::finish_ids(&mut ids);
        assert_eq!(ids, vec![1, 2, 3]);
    }
}
