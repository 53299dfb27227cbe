//! The simulated disk: a slab of typed pages behind a buffer pool.

use crate::backend::{Backend, Fault, FaultKind, IoKind, JournalAck, MemBackend, RetryPolicy};
use crate::buffer::BufferPool;
use crate::codec::PageCodec;
use crate::error::PagerError;
use crate::file::RecoveredImage;
use crate::stats::IoStats;
use crate::DEFAULT_BUFFER_PAGES;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Identifier of a page within one [`PageStore`].
///
/// Page ids are dense indices; freed ids are recycled. A `PageId` is only
/// meaningful for the store that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(u32);

impl PageId {
    /// Builds a `PageId` from a raw slab index.
    #[must_use]
    pub fn from_index(idx: u32) -> Self {
        Self(idx)
    }

    /// The raw slab index.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A store of typed pages `P` with I/O-counted access through a small LRU
/// buffer pool.
///
/// This is the "disk" of the external-memory model. Access pattern:
///
/// * [`PageStore::read`] — fetch a page for reading; a buffer miss costs
///   one read I/O.
/// * [`PageStore::write`] — fetch a page and mutate it in place; a miss
///   costs a read I/O and the page becomes dirty (its write I/O is paid
///   when it is evicted or flushed).
/// * [`PageStore::allocate`] / [`PageStore::free`] — create / destroy pages
///   (tracked for the space metric of Figure 8).
/// * [`PageStore::clear_buffer`] — flush + empty the pool; the paper does
///   this before every query so query costs are cold.
///
/// Pages are typed (structs, not raw bytes): the reproduction measures
/// I/O *counts*, which depend only on page capacities — those are enforced
/// by each index's entry-size arithmetic, see [`crate::page_capacity`].
///
/// At most one page can be **pinned** ([`PageStore::try_pin`]): a
/// pinned page lives outside the LRU pool in a dedicated slot, is never
/// evicted, and — crucially — survives [`PageStore::clear_buffer`].
/// Its first access after pinning still pays the fault-in read; every
/// later access is a buffer hit. Multi-tree facades pin each sub-tree's
/// root so a fan-out query pays `depth - 1` I/Os per descent instead of
/// `depth`, for one page of memory per sub-tree.
///
/// Every physical access is arbitrated by a [`Backend`]. The default
/// [`MemBackend`] permits everything, so the infallible methods
/// ([`PageStore::read`], [`PageStore::write`], …) behave exactly as
/// before. With a fault-injecting backend ([`crate::FaultStore`]),
/// use the fallible `try_*` twins: transient faults are retried within
/// the store's [`RetryPolicy`] (counted in [`IoStats`]), and unabsorbed
/// faults surface as typed [`PagerError`]s.
///
/// Pages are held behind [`Arc`] so the store can be [frozen]
/// (`PageStore::freeze`) into an immutable [`FrozenPages`] snapshot in
/// O(live slots) pointer bumps. Mutations go through [`Arc::make_mut`]:
/// a page is deep-copied only when a live snapshot still references it
/// (copy-on-write), so the content-copy cost between two snapshots is
/// O(pages dirtied in between). None of this changes the I/O
/// accounting — residency, misses, and write-backs are modeled by the
/// buffer pool exactly as before.
///
/// [frozen]: PageStore::freeze
#[derive(Debug)]
pub struct PageStore<P> {
    pages: Vec<Option<Arc<P>>>,
    free_list: Vec<u32>,
    buffer: BufferPool,
    stats: IoStats,
    backend: Box<dyn Backend>,
    retry: RetryPolicy,
    /// Whether the backend persists journaled bytes; cached from
    /// [`Backend::is_durable`] so the hot path pays nothing when false.
    durable: bool,
    /// Pages mutated since the last sealed commit window, each with
    /// *the page as the log last knew it* — the base its delta is taken
    /// against: an `Arc` clone made on the first write of the window,
    /// `None` for a page the log does not hold (allocated in the window,
    /// or live when the backend was swapped in). Only maintained for
    /// durable backends. Invariant: an id is in at most one of
    /// `dirty_since_commit` / `freed_since_commit`.
    dirty_since_commit: BTreeMap<u32, Option<Arc<P>>>,
    /// Pages freed since the last sealed commit window.
    freed_since_commit: BTreeSet<u32>,
    /// Raised while a seal is under way and left up when it fails: the
    /// failed attempt's records share a replay window with the retry's,
    /// and a repeated image is idempotent where a repeated delta is not,
    /// so the next window journals images only.
    images_only: bool,
    /// The metadata the last sealed window carried (`None` until one
    /// is sealed on, or recovered from, this backend): a window that
    /// changes neither a page nor this appends nothing.
    sealed_meta: Option<Vec<u8>>,
    /// The pinned page (at most one) and its residency state.
    pinned: Option<(u32, PinState)>,
}

/// One page store seen without its page type: its counters, its buffer
/// pool and its backend. Every paged structure lends its store as a
/// `dyn Store`, so an index built from many structures lists its stores
/// once and walks them all alike.
pub trait Store {
    /// The store's I/O counters ([`PageStore::stats`]).
    fn stats(&self) -> &IoStats;

    /// Flushes and empties the buffer pool
    /// ([`PageStore::try_clear_buffer`]).
    ///
    /// # Errors
    /// The first rejected write-back; the pool is emptied regardless.
    fn try_clear_buffer(&mut self) -> Result<(), PagerError>;

    /// Swaps in a new backend, returning the previous one
    /// ([`PageStore::set_backend`]).
    fn set_backend(&mut self, backend: Box<dyn Backend>) -> Box<dyn Backend>;
}

impl<P> Store for PageStore<P> {
    fn stats(&self) -> &IoStats {
        PageStore::stats(self)
    }

    fn try_clear_buffer(&mut self) -> Result<(), PagerError> {
        PageStore::try_clear_buffer(self)
    }

    fn set_backend(&mut self, backend: Box<dyn Backend>) -> Box<dyn Backend> {
        PageStore::set_backend(self, backend)
    }
}

/// Residency of the pinned page (see [`PageStore::try_pin`]).
#[derive(Debug, Clone, Copy)]
struct PinState {
    /// Whether the page has been faulted in since it was pinned (the
    /// first post-pin access pays the read; later ones are hits).
    resident: bool,
    /// Whether a write-back is owed (paid on flush/clear, like the
    /// pool's dirty pages — the page just stays resident afterwards).
    dirty: bool,
}

impl<P> Default for PageStore<P> {
    fn default() -> Self {
        Self::new(DEFAULT_BUFFER_PAGES)
    }
}

impl<P> PageStore<P> {
    /// Creates an empty store with a buffer pool of `buffer_pages` pages
    /// and the infallible [`MemBackend`].
    #[must_use]
    pub fn new(buffer_pages: usize) -> Self {
        Self::with_backend(buffer_pages, Box::new(MemBackend))
    }

    /// Creates an empty store whose physical accesses are arbitrated by
    /// `backend`.
    #[must_use]
    pub fn with_backend(buffer_pages: usize, backend: Box<dyn Backend>) -> Self {
        let durable = backend.is_durable();
        Self {
            pages: Vec::new(),
            free_list: Vec::new(),
            buffer: BufferPool::new(buffer_pages),
            stats: IoStats::new(),
            backend,
            retry: RetryPolicy::default(),
            durable,
            dirty_since_commit: BTreeMap::new(),
            freed_since_commit: BTreeSet::new(),
            images_only: false,
            sealed_meta: None,
            pinned: None,
        }
    }

    /// Pins page `id` (or releases the pin with `None`). At most one
    /// page is pinned; pinning a new one releases the previous pin,
    /// handing its residency (and any owed write-back) to the LRU pool.
    ///
    /// Pinning is an accounting operation — it performs no I/O itself.
    /// If the page is currently pool-resident, residency transfers to
    /// the pin slot; otherwise the next access pays the usual fault-in
    /// read, after which the page stays resident until unpinned or
    /// freed.
    ///
    /// # Errors
    /// Releasing a previously pinned *resident* page re-inserts it into
    /// the pool, which can evict a dirty page whose write-back the
    /// backend rejects.
    pub fn try_pin(&mut self, id: Option<PageId>) -> Result<(), PagerError> {
        if self.pinned.map(|(p, _)| p) == id.map(PageId::index) {
            return Ok(());
        }
        if let Some((old, st)) = self.pinned.take() {
            let live = self
                .pages
                .get(old as usize)
                .is_some_and(std::option::Option::is_some);
            if st.resident && live {
                self.insert_resident(PageId(old), st.dirty)?;
            }
        }
        if let Some(id) = id {
            let st = match self.buffer.remove(id) {
                Some(dirty) => PinState {
                    resident: true,
                    dirty,
                },
                None => PinState {
                    resident: false,
                    dirty: false,
                },
            };
            self.pinned = Some((id.index(), st));
        }
        Ok(())
    }

    /// The currently pinned page, if any.
    #[must_use]
    pub fn pinned(&self) -> Option<PageId> {
        self.pinned.map(|(p, _)| PageId(p))
    }

    /// Swaps in a new backend, returning the previous one. Page contents
    /// are untouched; only the fault policy changes.
    ///
    /// When the incoming backend is durable, every live page is marked
    /// dirty: nothing in this store has been journaled to *that*
    /// backend yet, so the first commit must carry the full image of
    /// each (no page has a base to take a delta against).
    pub fn set_backend(&mut self, backend: Box<dyn Backend>) -> Box<dyn Backend> {
        let prev = std::mem::replace(&mut self.backend, backend);
        self.durable = self.backend.is_durable();
        if self.durable {
            self.dirty_since_commit = self
                .pages
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.as_ref().map(|_| (i as u32, None)))
                .collect();
            self.freed_since_commit.clear();
            self.images_only = false;
            self.sealed_meta = None;
        }
        prev
    }

    /// Whether the current backend persists journaled bytes (commits
    /// and checkpoints have real effect).
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// How much work the next commit window will journal:
    /// `(dirty_pages, freed_pages)`. Always `(0, 0)` for non-durable
    /// backends.
    #[must_use]
    pub fn pending_commit(&self) -> (usize, usize) {
        (self.dirty_since_commit.len(), self.freed_since_commit.len())
    }

    /// The retry policy applied to transient faults.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Sets the retry policy applied to transient faults.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The label of the current backend (diagnostics).
    #[must_use]
    pub fn backend_label(&self) -> &'static str {
        self.backend.label()
    }

    /// The I/O statistics of this store.
    #[must_use]
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Number of live (allocated, not freed) pages.
    #[must_use]
    pub fn live_pages(&self) -> u64 {
        self.stats.live_pages()
    }

    /// Allocates a page holding `page`, returning its id.
    ///
    /// The new page enters the buffer dirty; its write I/O is paid on
    /// eviction or flush, like any other mutation. Infallible wrapper
    /// around [`PageStore::try_allocate`] for infallible backends.
    ///
    /// # Panics
    /// Panics if the backend injects a fault (never with [`MemBackend`]).
    pub fn allocate(&mut self, page: P) -> PageId {
        self.try_allocate(page)
            .expect("pager fault (use try_allocate with fallible backends)")
    }

    /// Allocates a page holding `page`, returning its id.
    ///
    /// # Errors
    /// Fails if the backend rejects the allocation, or if making room in
    /// the buffer forces a write-back that the backend rejects (the page
    /// is still allocated in that case — its write I/O simply never
    /// completed).
    pub fn try_allocate(&mut self, page: P) -> Result<PageId, PagerError> {
        let prospective = PageId(match self.free_list.last() {
            Some(&idx) => idx,
            None => u32::try_from(self.pages.len()).expect("page count exceeds u32"),
        });
        self.permit(IoKind::Alloc, prospective)?;
        let id = match self.free_list.pop() {
            Some(idx) => {
                debug_assert!(self.pages[idx as usize].is_none());
                self.pages[idx as usize] = Some(Arc::new(page));
                PageId(idx)
            }
            None => {
                let idx = u32::try_from(self.pages.len()).expect("page count exceeds u32");
                self.pages.push(Some(Arc::new(page)));
                PageId(idx)
            }
        };
        self.stats.add_alloc();
        if self.durable {
            // A recycled id moves from the freed set to the dirty set:
            // the next window journals its new contents, not its death.
            self.freed_since_commit.remove(&id.0);
            self.dirty_since_commit.insert(id.0, None);
        }
        self.insert_resident(id, true)?;
        Ok(id)
    }

    /// Frees page `id`, returning its contents. Infallible wrapper around
    /// [`PageStore::try_free`] for infallible backends.
    ///
    /// # Panics
    /// Panics if `id` is not a live page, or if the backend injects a
    /// fault (never with [`MemBackend`]).
    pub fn free(&mut self, id: PageId) -> P
    where
        P: Clone,
    {
        self.try_free(id)
            .expect("pager fault (use try_free with fallible backends)")
    }

    /// Frees page `id`, returning its contents.
    ///
    /// # Errors
    /// Fails if the backend rejects the deallocation (the page stays
    /// live).
    ///
    /// # Panics
    /// Panics if `id` is not a live page.
    pub fn try_free(&mut self, id: PageId) -> Result<P, PagerError>
    where
        P: Clone,
    {
        self.permit(IoKind::Free, id)?;
        // No write-back is owed for a page that ceases to exist.
        let _ = self.buffer.remove(id);
        if self.pinned.is_some_and(|(p, _)| p == id.0) {
            self.pinned = None;
        }
        let slot = self.pages[id.0 as usize].take().expect("free of dead page");
        self.free_list.push(id.0);
        self.stats.add_free();
        if self.durable {
            self.dirty_since_commit.remove(&id.0);
            self.freed_since_commit.insert(id.0);
        }
        // A frozen snapshot may still hold the page; it keeps its copy
        // and the store gives up its own reference.
        Ok(Arc::try_unwrap(slot).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Fetches page `id` for reading. A buffer miss costs one read I/O.
    /// Infallible wrapper around [`PageStore::try_read`] for infallible
    /// backends.
    ///
    /// # Panics
    /// Panics if `id` is not a live page, or if the backend injects a
    /// fault (never with [`MemBackend`]).
    pub fn read(&mut self, id: PageId) -> &P {
        self.try_read(id)
            .expect("pager fault (use try_read with fallible backends)")
    }

    /// Fetches page `id` for reading. A buffer miss costs one read I/O.
    ///
    /// # Errors
    /// Fails with [`PagerError::ReadFailed`] if the backend rejects the
    /// fetch (after exhausting retries for transient faults), or with a
    /// write error if faulting the page in forces a rejected write-back.
    ///
    /// # Panics
    /// Panics if `id` is not a live page.
    pub fn try_read(&mut self, id: PageId) -> Result<&P, PagerError> {
        self.try_fault_in(id, false)?;
        Ok(self.pages[id.0 as usize]
            .as_deref()
            .expect("read of dead page"))
    }

    /// Fetches page `id` and mutates it via `f`. A buffer miss costs one
    /// read I/O; the page becomes dirty. Infallible wrapper around
    /// [`PageStore::try_write`] for infallible backends.
    ///
    /// # Panics
    /// Panics if `id` is not a live page, or if the backend injects a
    /// fault (never with [`MemBackend`]).
    pub fn write<R>(&mut self, id: PageId, f: impl FnOnce(&mut P) -> R) -> R
    where
        P: Clone,
    {
        self.try_write(id, f)
            .expect("pager fault (use try_write with fallible backends)")
    }

    /// Fetches page `id` and mutates it via `f`. A buffer miss costs one
    /// read I/O; the page becomes dirty.
    ///
    /// # Errors
    /// * [`PagerError::WriteFailed`] — the mutation was rejected; `f` was
    ///   **not** run and the page holds its previous contents.
    /// * [`PagerError::TornWrite`] — the mutation tore: `f` **was** run
    ///   (the in-store copy holds the new contents) but durability was
    ///   not acknowledged, so the enclosing multi-page operation must be
    ///   treated as failed.
    /// * Read/write errors from faulting the page in.
    ///
    /// # Panics
    /// Panics if `id` is not a live page.
    pub fn try_write<R>(&mut self, id: PageId, f: impl FnOnce(&mut P) -> R) -> Result<R, PagerError>
    where
        P: Clone,
    {
        self.try_fault_in(id, true)?;
        match self.permit(IoKind::Mutate, id) {
            Ok(()) => {
                if self.durable {
                    self.note_dirty(id);
                }
                Ok(f(self.page_mut(id)))
            }
            Err(err @ PagerError::TornWrite { .. }) => {
                // Torn semantics: the mutation lands, the ack does not.
                if self.durable {
                    self.note_dirty(id);
                }
                let _ = f(self.page_mut(id));
                Err(err)
            }
            Err(err) => Err(err),
        }
    }

    /// Marks page `id` dirty in the open commit window. Its first write
    /// of the window also keeps the page as it is now — as the log last
    /// knew it — for the commit to take a delta against. Called before
    /// `page_mut`, so the clone is a reference to the sealed version and
    /// the write that follows copies the page: the copy a published
    /// snapshot forces on that write anyway.
    ///
    /// Out of line, so that `try_write` without a durable backend stays
    /// the code it was before pre-images existed.
    #[inline(never)]
    fn note_dirty(&mut self, id: PageId) {
        let page = &self.pages[id.0 as usize];
        self.dirty_since_commit
            .entry(id.0)
            .or_insert_with(|| page.clone());
    }

    /// Exclusive access to a live page's contents. Copy-on-write: when a
    /// [`FrozenPages`] snapshot still shares the page, `Arc::make_mut`
    /// clones it first — the snapshot keeps the sealed version.
    fn page_mut(&mut self, id: PageId) -> &mut P
    where
        P: Clone,
    {
        Arc::make_mut(
            self.pages[id.0 as usize]
                .as_mut()
                .expect("write of dead page"),
        )
    }

    /// Replaces the contents of page `id` wholesale.
    ///
    /// # Panics
    /// Panics if `id` is not a live page, or if the backend injects a
    /// fault (never with [`MemBackend`]).
    pub fn replace(&mut self, id: PageId, page: P)
    where
        P: Clone,
    {
        self.write(id, |slot| *slot = page);
    }

    /// Replaces the contents of page `id` wholesale.
    ///
    /// # Errors
    /// Same failure modes as [`PageStore::try_write`].
    pub fn try_replace(&mut self, id: PageId, page: P) -> Result<(), PagerError>
    where
        P: Clone,
    {
        self.try_write(id, |slot| *slot = page)
    }

    /// Flushes all dirty pages (counting write I/Os) and empties the
    /// buffer pool. The paper clears the pool before every query.
    /// Infallible wrapper around [`PageStore::try_clear_buffer`] for
    /// infallible backends.
    ///
    /// # Panics
    /// Panics if the backend injects a fault (never with [`MemBackend`]).
    pub fn clear_buffer(&mut self) {
        self.try_clear_buffer()
            .expect("pager fault (use try_clear_buffer with fallible backends)")
    }

    /// Flushes all dirty pages (counting write I/Os) and empties the
    /// buffer pool.
    ///
    /// # Errors
    /// Fails with the first rejected write-back. The pool is emptied
    /// regardless, and the remaining dirty pages are still offered to the
    /// backend (and counted) so a single fault cannot silently skip the
    /// rest of the flush.
    pub fn try_clear_buffer(&mut self) -> Result<(), PagerError> {
        let mut first_err = None;
        for (id, dirty) in self.buffer.drain() {
            if dirty {
                match self.permit(IoKind::WriteBack, id) {
                    Ok(()) => {
                        self.stats.add_writes(1);
                        self.stats.add_writeback();
                    }
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
        }
        // The pinned page pays its owed write-back like everyone else,
        // but keeps its residency: the pin slot is dedicated memory
        // outside the pool, which is the whole point of pinning.
        if let Err(e) = self.flush_pinned() {
            first_err = first_err.or(Some(e));
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Pays the pinned page's owed write-back (if dirty); it stays
    /// resident.
    fn flush_pinned(&mut self) -> Result<(), PagerError> {
        if let Some((pid, mut st)) = self.pinned {
            if st.dirty {
                self.permit(IoKind::WriteBack, PageId(pid))?;
                self.stats.add_writes(1);
                self.stats.add_writeback();
                st.dirty = false;
                self.pinned = Some((pid, st));
            }
        }
        Ok(())
    }

    /// Flushes all dirty pages (counting write I/Os) but keeps them
    /// resident and clean. Infallible wrapper around
    /// [`PageStore::try_flush`] for infallible backends.
    ///
    /// # Panics
    /// Panics if the backend injects a fault (never with [`MemBackend`]).
    pub fn flush(&mut self) {
        self.try_flush()
            .expect("pager fault (use try_flush with fallible backends)")
    }

    /// Flushes all dirty pages (counting write I/Os) but keeps them
    /// resident and clean.
    ///
    /// # Errors
    /// Fails with the first rejected write-back; pages whose write-back
    /// failed stay resident **dirty** so the write is still owed.
    pub fn try_flush(&mut self) -> Result<(), PagerError> {
        let entries = self.buffer.drain();
        let mut first_err = None;
        for &(id, dirty) in &entries {
            let mut still_dirty = false;
            if dirty {
                match self.permit(IoKind::WriteBack, id) {
                    Ok(()) => {
                        self.stats.add_writes(1);
                        self.stats.add_writeback();
                    }
                    Err(e) => {
                        first_err = first_err.or(Some(e));
                        still_dirty = true;
                    }
                }
            }
            let _ = self.buffer.insert(id, still_dirty);
        }
        if let Err(e) = self.flush_pinned() {
            first_err = first_err.or(Some(e));
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Direct, *un-counted* access to a page. For assertions, invariant
    /// checks and test oracles only — never in the measured path.
    ///
    /// # Panics
    /// Panics if `id` is not a live page.
    #[must_use]
    pub fn peek(&self, id: PageId) -> &P {
        self.pages[id.0 as usize]
            .as_deref()
            .expect("peek of dead page")
    }

    /// Iterates over `(id, page)` for all live pages, without I/O
    /// accounting. For invariant checks and space audits only.
    pub fn iter_live(&self) -> impl Iterator<Item = (PageId, &P)> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_deref().map(|p| (PageId(i as u32), p)))
    }

    /// Seals the current page contents into an immutable, shareable
    /// snapshot.
    ///
    /// Publication cost is O(live slots) reference-count bumps — no page
    /// contents are copied. Later mutations through this store
    /// copy-on-write exactly the pages the snapshot still shares (every
    /// [`PageStore::try_write`] goes through `Arc::make_mut`), so the
    /// amortized content-copy cost between two snapshots is O(pages
    /// dirtied in between).
    ///
    /// Snapshot reads are *not* I/O-counted here: a frozen page is a
    /// sealed in-memory image outside the buffer-pool residency model.
    /// Callers that model snapshot-read cost count the pages they visit
    /// themselves (see the frozen tree views in `mobidx-bptree`).
    #[must_use]
    pub fn freeze(&self) -> FrozenPages<P> {
        FrozenPages {
            pages: Arc::new(self.pages.clone()),
        }
    }

    fn try_fault_in(&mut self, id: PageId, dirty: bool) -> Result<(), PagerError> {
        assert!(
            self.pages
                .get(id.0 as usize)
                .is_some_and(std::option::Option::is_some),
            "access to dead page {id}"
        );
        if let Some((pid, mut st)) = self.pinned.filter(|&(p, _)| p == id.0) {
            if st.resident {
                self.stats.add_hits(1);
            } else {
                self.permit(IoKind::Read, id)?;
                self.stats.add_reads(1);
                st.resident = true;
            }
            st.dirty |= dirty;
            self.pinned = Some((pid, st));
            return Ok(());
        }
        if self.buffer.touch(id) {
            self.stats.add_hits(1);
            if dirty {
                self.buffer.mark_dirty(id);
            }
            return Ok(());
        }
        self.permit(IoKind::Read, id)?;
        self.stats.add_reads(1);
        self.insert_resident(id, dirty)
    }

    /// Inserts `id` into the buffer, accounting for the displaced page.
    /// A dirty eviction owes a write-back, which the backend may reject.
    fn insert_resident(&mut self, id: PageId, dirty: bool) -> Result<(), PagerError> {
        if let Some((evicted, was_dirty)) = self.buffer.insert(id, dirty) {
            self.stats.add_eviction();
            if was_dirty {
                self.permit(IoKind::WriteBack, evicted)?;
                self.stats.add_writes(1);
                self.stats.add_writeback();
            }
        }
        Ok(())
    }

    /// Asks the backend's permission for one access, retrying transient
    /// faults within the [`RetryPolicy`] (with exponential *logical*
    /// backoff — counted, not slept) and mapping unabsorbed faults to
    /// typed errors.
    fn permit(&mut self, kind: IoKind, id: PageId) -> Result<(), PagerError> {
        let mut attempt: u32 = 0;
        loop {
            match self.backend.permit(kind, id) {
                Ok(()) => {
                    if attempt > 0 {
                        self.stats.add_fault_recovered();
                    }
                    return Ok(());
                }
                Err(fault) => {
                    self.stats.add_fault_injected();
                    if fault.transient && attempt < self.retry.max_retries {
                        self.stats.add_retry();
                        self.stats.add_backoff_units(1 << attempt.min(16));
                        attempt += 1;
                        continue;
                    }
                    return Err(self.map_fault(kind, id, fault));
                }
            }
        }
    }

    fn map_fault(&self, kind: IoKind, id: PageId, fault: Fault) -> PagerError {
        match fault.kind {
            FaultKind::Crashed => PagerError::Crashed {
                after_ios: self.stats.total_ios(),
            },
            FaultKind::Torn => PagerError::TornWrite { page: id },
            FaultKind::Failed => match kind {
                IoKind::Read => PagerError::ReadFailed { page: id },
                IoKind::WriteBack | IoKind::Mutate | IoKind::Alloc | IoKind::Free => {
                    PagerError::WriteFailed { page: id }
                }
            },
        }
    }

    /// Runs one journal operation against the backend, retrying
    /// transient faults within the [`RetryPolicy`] exactly like
    /// [`PageStore::permit`] (same logical-backoff accounting).
    fn journal_retry(
        &mut self,
        id: PageId,
        mut op: impl FnMut(&mut dyn Backend) -> Result<JournalAck, Fault>,
    ) -> Result<JournalAck, PagerError> {
        let mut attempt: u32 = 0;
        loop {
            match op(self.backend.as_mut()) {
                Ok(ack) => {
                    if attempt > 0 {
                        self.stats.add_fault_recovered();
                    }
                    return Ok(ack);
                }
                Err(fault) => {
                    self.stats.add_fault_injected();
                    if fault.transient && attempt < self.retry.max_retries {
                        self.stats.add_retry();
                        self.stats.add_backoff_units(1 << attempt.min(16));
                        attempt += 1;
                        continue;
                    }
                    return Err(self.map_fault(IoKind::Mutate, id, fault));
                }
            }
        }
    }
}

/// An immutable snapshot of a [`PageStore`]'s pages at one instant
/// (see [`PageStore::freeze`]).
///
/// The handle is cheap to clone and safe to read from any thread; it
/// holds the sealed page versions alive independently of the store's
/// further mutations (copy-on-write) and of the store's own lifetime.
#[derive(Debug)]
pub struct FrozenPages<P> {
    pages: Arc<Vec<Option<Arc<P>>>>,
}

impl<P> Clone for FrozenPages<P> {
    fn clone(&self) -> Self {
        Self {
            pages: Arc::clone(&self.pages),
        }
    }
}

impl<P> FrozenPages<P> {
    /// The page `id` held at freeze time, or `None` if the slot was
    /// free. Un-counted — callers model snapshot-read cost themselves.
    #[must_use]
    pub fn get(&self, id: PageId) -> Option<&P> {
        self.pages.get(id.index() as usize)?.as_deref()
    }

    /// Number of live pages in the snapshot.
    #[must_use]
    pub fn live_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

/// Pseudo page id reported when a commit or checkpoint record itself
/// faults (no single page is to blame).
const COMMIT_PAGE: PageId = PageId(u32::MAX);

impl<P: PageCodec> PageStore<P> {
    /// Rebuilds a store from the byte image a durable backend
    /// recovered on open ([`crate::FileBackend::open`]): every live
    /// page is decoded, dead slots repopulate the free list, and the
    /// replayed-record count lands in [`IoStats::wal_replayed`].
    ///
    /// The rebuilt store starts with **no** pending commit work — its
    /// contents are exactly what is on disk. Returns `None` if any
    /// recovered image fails to decode as `P` (which a checksummed log
    /// only produces if the wrong page type is used).
    #[must_use]
    pub fn open_recovered(
        buffer_pages: usize,
        backend: Box<dyn Backend>,
        image: &RecoveredImage,
    ) -> Option<Self> {
        let mut store = Self::with_backend(buffer_pages, backend);
        for (idx, slot) in image.pages.iter().enumerate() {
            match slot {
                Some(bytes) => {
                    store.pages.push(Some(Arc::new(P::decode(bytes)?)));
                    store.stats.add_alloc();
                }
                None => {
                    store.pages.push(None);
                    store
                        .free_list
                        .push(u32::try_from(idx).expect("slot exceeds u32"));
                }
            }
        }
        store.stats.add_wal_replayed(image.replayed_records);
        if image.commit_seq > 0 {
            store.sealed_meta = Some(image.meta.clone());
        }
        Some(store)
    }

    /// Seals the current commit window: journals every page dirtied
    /// since the last commit — as a delta against the page as the log
    /// last knew it when the codec offers one
    /// ([`PageCodec::encode_delta`]), as its byte image otherwise — then
    /// the freed pages and a commit record carrying `meta`, and clears
    /// the window. With the default [`crate::FsyncPolicy::OnCommit`]
    /// this is group commit: one fsync for the whole window.
    ///
    /// A window that dirtied no page, freed none and carries the `meta`
    /// of the last sealed one appends nothing and syncs nothing.
    ///
    /// No-op (`Ok`) on non-durable backends.
    ///
    /// # Errors
    /// Fails with the first unabsorbed journal fault. The window is
    /// **kept** — if the store is still alive (a clean, non-crash
    /// failure), a later `try_commit` re-journals it in full. The
    /// records the failed attempt left behind replay in the same window
    /// as the retry's, so the retry journals **images only**: duplicate
    /// page images in one window resolve to the same bytes, a delta
    /// applied twice does not.
    pub fn try_commit(&mut self, meta: &[u8]) -> Result<(), PagerError> {
        if !self.durable {
            return Ok(());
        }
        if self.dirty_since_commit.is_empty()
            && self.freed_since_commit.is_empty()
            && self.sealed_meta.as_deref() == Some(meta)
        {
            return Ok(());
        }
        // Up until this window is sealed; a failure below leaves it up.
        let images_only = std::mem::replace(&mut self.images_only, true);
        let mut total = JournalAck::default();
        let dirty: Vec<(u32, Option<Arc<P>>)> = self
            .dirty_since_commit
            .iter()
            .map(|(&idx, base)| (idx, base.clone()))
            .collect();
        let mut bytes = Vec::new();
        for (idx, base) in dirty {
            let page = self.pages[idx as usize]
                .as_ref()
                .expect("dirty page must be live (free clears the dirty mark)");
            bytes.clear();
            let mut delta = false;
            if let (Some(base), false) = (&base, images_only) {
                delta = page.encode_delta(base, &mut bytes);
                debug_assert!(
                    !delta || delta_rebuilds_image::<P>(base, page, &bytes),
                    "page {idx}: the delta does not rebuild the image"
                );
            }
            if !delta {
                page.encode(&mut bytes);
            }
            let id = PageId(idx);
            let ack = self.journal_retry(id, |b| {
                if delta {
                    b.journal_delta(id, &bytes)
                } else {
                    b.journal_page(id, &bytes)
                }
            })?;
            total = total.merge(ack);
        }
        let freed: Vec<u32> = self.freed_since_commit.iter().copied().collect();
        for idx in freed {
            let id = PageId(idx);
            let ack = self.journal_retry(id, |b| b.journal_free(id))?;
            total = total.merge(ack);
        }
        let ack = self.journal_retry(COMMIT_PAGE, |b| b.journal_commit(meta))?;
        total = total.merge(ack);
        self.window_sealed(meta);
        self.stats.add_wal(total.records, total.bytes, total.fsyncs);
        Ok(())
    }

    /// The open window reached the disk with `meta`: forget it.
    fn window_sealed(&mut self, meta: &[u8]) {
        self.dirty_since_commit.clear();
        self.freed_since_commit.clear();
        self.images_only = false;
        self.sealed_meta = Some(meta.to_vec());
    }

    /// Writes a full checkpoint — every live page plus `meta` — and
    /// truncates the journal. A checkpoint *is* a commit: current
    /// state becomes durable and the pending window is cleared, so it
    /// also absorbs any un-committed changes.
    ///
    /// No-op (`Ok`) on non-durable backends.
    ///
    /// # Errors
    /// Fails with the backend's fault. The pending window is kept, and
    /// what is on disk recovers either to the state before the
    /// checkpoint or — when the failure came after the page file was
    /// replaced — to the state it captured. The store cannot tell
    /// which, so the window that follows journals images only, as after
    /// a failed [`PageStore::try_commit`].
    pub fn try_checkpoint(&mut self, meta: &[u8]) -> Result<(), PagerError> {
        if !self.durable {
            return Ok(());
        }
        let mut live = Vec::new();
        for (idx, slot) in self.pages.iter().enumerate() {
            if let Some(page) = slot {
                let mut bytes = Vec::new();
                page.encode(&mut bytes);
                live.push((PageId(idx as u32), bytes));
            }
        }
        // Should it fail after the rename, the bases of the open window
        // are no longer what recovery starts from.
        self.images_only = true;
        let ack = self.journal_retry(COMMIT_PAGE, |b| b.checkpoint(&live, meta))?;
        self.window_sealed(meta);
        self.stats.add_wal(ack.records, ack.bytes, ack.fsyncs);
        Ok(())
    }
}

/// Whether `splices` applied to `base`'s image give `page`'s image —
/// what every journaled delta must do (checked in debug builds).
fn delta_rebuilds_image<P: PageCodec>(base: &P, page: &P, splices: &[u8]) -> bool {
    let (mut before, mut after) = (Vec::new(), Vec::new());
    base.encode(&mut before);
    page.encode(&mut after);
    crate::wal::apply_splices(&before, splices).as_deref() == Some(&after[..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_counts() {
        let mut s: PageStore<Vec<u32>> = PageStore::new(2);
        let a = s.allocate(vec![1]);
        let _b = s.allocate(vec![2]);
        // Both fit in the buffer: no I/O yet.
        assert_eq!(s.stats().reads(), 0);
        assert_eq!(s.stats().writes(), 0);
        // Third page evicts `a` (dirty) -> one write.
        let c = s.allocate(vec![3]);
        assert_eq!(s.stats().writes(), 1);
        // Reading `a` now misses -> one read; evicts `b` (dirty) -> write.
        assert_eq!(s.read(a), &vec![1]);
        assert_eq!(s.stats().reads(), 1);
        assert_eq!(s.stats().writes(), 2);
        // `c` is still resident: reading it is free.
        assert_eq!(s.read(c), &vec![3]);
        assert_eq!(s.stats().reads(), 1);
    }

    #[test]
    fn write_marks_dirty_and_eviction_pays() {
        let mut s: PageStore<u64> = PageStore::new(1);
        let a = s.allocate(7);
        s.clear_buffer(); // pays the allocation write
        assert_eq!(s.stats().writes(), 1);
        // Read it back (miss), then mutate: dirty again.
        s.write(a, |v| *v = 8);
        assert_eq!(s.stats().reads(), 1);
        s.clear_buffer();
        assert_eq!(s.stats().writes(), 2);
        assert_eq!(*s.peek(a), 8);
    }

    #[test]
    fn clear_buffer_makes_reads_cold() {
        let mut s: PageStore<u8> = PageStore::new(4);
        let a = s.allocate(0);
        s.clear_buffer();
        let r0 = s.stats().reads();
        let _ = s.read(a);
        let _ = s.read(a); // hit
        assert_eq!(s.stats().reads() - r0, 1);
        s.clear_buffer();
        let _ = s.read(a); // cold again
        assert_eq!(s.stats().reads() - r0, 2);
    }

    #[test]
    fn free_recycles_ids_and_space() {
        let mut s: PageStore<u8> = PageStore::new(2);
        let a = s.allocate(1);
        assert_eq!(s.live_pages(), 1);
        let v = s.free(a);
        assert_eq!(v, 1);
        assert_eq!(s.live_pages(), 0);
        let b = s.allocate(2);
        assert_eq!(b.index(), a.index(), "freed id should be recycled");
    }

    #[test]
    fn freed_dirty_page_owes_no_write() {
        let mut s: PageStore<u8> = PageStore::new(2);
        let a = s.allocate(1);
        let _ = s.free(a);
        s.clear_buffer();
        assert_eq!(s.stats().writes(), 0);
    }

    #[test]
    fn flush_keeps_pages_resident() {
        let mut s: PageStore<u8> = PageStore::new(2);
        let a = s.allocate(1);
        s.flush();
        assert_eq!(s.stats().writes(), 1);
        let r0 = s.stats().reads();
        let _ = s.read(a); // still resident -> no read
        assert_eq!(s.stats().reads(), r0);
        s.clear_buffer(); // now clean -> no extra write
        assert_eq!(s.stats().writes(), 1);
    }

    #[test]
    #[should_panic(expected = "dead page")]
    fn read_after_free_panics() {
        let mut s: PageStore<u8> = PageStore::new(2);
        let a = s.allocate(1);
        let _ = s.free(a);
        let _ = s.read(a);
    }

    #[test]
    fn buffer_counters_track_hits_and_evictions() {
        let mut s: PageStore<u8> = PageStore::new(1);
        let a = s.allocate(1);
        let b = s.allocate(2); // evicts `a` (dirty): eviction + write-back
        assert_eq!(s.stats().evictions(), 1);
        assert_eq!(s.stats().writebacks(), 1);
        let _ = s.read(b); // resident: hit, no I/O
        assert_eq!(s.stats().hits(), 1);
        assert_eq!(s.stats().reads(), 0);
        let _ = s.read(a); // miss: evicts `b` (dirty)
        assert_eq!(s.stats().reads(), 1);
        assert_eq!(s.stats().evictions(), 2);
        assert_eq!(s.stats().writebacks(), 2);
        assert!((s.stats().hit_rate() - 0.5).abs() < 1e-12);
        s.clear_buffer(); // `a` resident and clean: no write-back
        assert_eq!(s.stats().writebacks(), 2);
    }

    /// A scripted backend for deterministic store-level fault tests:
    /// fails specific (0-based) `permit` calls with a fixed fault.
    #[derive(Debug)]
    struct Scripted {
        calls: u64,
        fail_on: Vec<u64>,
        fault: Fault,
    }

    impl Scripted {
        fn new(fail_on: Vec<u64>, kind: FaultKind, transient: bool) -> Self {
            Self {
                calls: 0,
                fail_on,
                fault: Fault { kind, transient },
            }
        }
    }

    impl Backend for Scripted {
        fn permit(&mut self, _kind: IoKind, _page: PageId) -> Result<(), Fault> {
            let n = self.calls;
            self.calls += 1;
            if self.fail_on.contains(&n) {
                Err(self.fault)
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn write_failed_leaves_page_unchanged() {
        let mut s: PageStore<u64> = PageStore::new(2);
        let a = s.allocate(7);
        // The scripted backend starts counting at its installation:
        // try_write issues touch (hit, no permit) then Mutate permit (0).
        s.set_backend(Box::new(Scripted::new(vec![0], FaultKind::Failed, false)));
        let err = s.try_write(a, |v| *v = 99).unwrap_err();
        assert_eq!(err, PagerError::WriteFailed { page: a });
        assert_eq!(*s.peek(a), 7, "failed write must not be applied");
        // The store keeps working afterwards.
        s.try_write(a, |v| *v = 8).unwrap();
        assert_eq!(*s.peek(a), 8);
    }

    #[test]
    fn torn_write_applies_then_errors() {
        let mut s: PageStore<u64> = PageStore::new(2);
        let a = s.allocate(7);
        s.set_backend(Box::new(Scripted::new(vec![0], FaultKind::Torn, false)));
        let err = s.try_write(a, |v| *v = 99).unwrap_err();
        assert_eq!(err, PagerError::TornWrite { page: a });
        assert_eq!(*s.peek(a), 99, "torn write must be applied");
    }

    #[test]
    fn transient_fault_is_retried_and_recovered() {
        let mut s: PageStore<u64> = PageStore::new(1);
        let a = s.allocate(7);
        s.clear_buffer();
        // The read permit (the scripted backend's calls 0 and 1) fails
        // twice transiently; the default policy (3 retries) absorbs it.
        s.set_backend(Box::new(Scripted::new(vec![0, 1], FaultKind::Failed, true)));
        assert_eq!(*s.try_read(a).unwrap(), 7);
        assert_eq!(s.stats().faults_injected(), 2);
        assert_eq!(s.stats().retries(), 2);
        assert_eq!(s.stats().faults_recovered(), 1);
        assert_eq!(s.stats().backoff_units(), 1 + 2, "exponential units");
        assert_eq!(s.stats().reads(), 1, "the read still cost one I/O");
    }

    #[test]
    fn transient_fault_exhausting_retries_surfaces() {
        let mut s: PageStore<u64> = PageStore::new(1);
        let a = s.allocate(7);
        s.clear_buffer();
        s.set_retry_policy(RetryPolicy { max_retries: 1 });
        s.set_backend(Box::new(Scripted::new(
            vec![0, 1, 2],
            FaultKind::Failed,
            true,
        )));
        let err = s.try_read(a).unwrap_err();
        assert_eq!(err, PagerError::ReadFailed { page: a });
        assert_eq!(s.stats().retries(), 1);
        assert_eq!(s.stats().faults_recovered(), 0);
    }

    #[test]
    fn crashed_store_fails_every_access() {
        use crate::backend::{FaultPlan, FaultStore};
        let mut s: PageStore<u64> =
            PageStore::with_backend(1, Box::new(FaultStore::new(FaultPlan::crash_after(9, 3))));
        let a = s.allocate(1);
        let b = s.allocate(2); // evicts a (dirty): I/O #1 (write-back)
        let _ = b;
        s.clear_buffer(); // I/O #2
        let _ = s.try_read(a).unwrap(); // I/O #3 — budget exhausted
        let err = s.try_read(b).unwrap_err();
        assert!(err.is_crash());
        // Dead forever: misses and mutations keep failing (`a` is still
        // buffer-resident, so only its Mutate permit hits the backend).
        assert!(s.try_read(b).is_err());
        assert!(s.try_write(a, |v| *v = 0).is_err());
        assert_eq!(s.backend_label(), "fault");
    }

    #[test]
    fn dirty_eviction_writeback_fault_surfaces() {
        let mut s: PageStore<u64> = PageStore::new(1);
        let a = s.allocate(1);
        // Allocating a second page evicts `a` (dirty). Scripted calls:
        // Alloc(0) for the new page, then WriteBack(1) for `a` — fails.
        s.set_backend(Box::new(Scripted::new(vec![1], FaultKind::Failed, false)));
        let err = s.try_allocate(2).unwrap_err();
        assert_eq!(err, PagerError::WriteFailed { page: a });
        // The new page was still allocated; its write simply never landed.
        assert_eq!(s.live_pages(), 2);
    }

    #[test]
    fn zero_capacity_buffer_pays_io_on_every_access() {
        let mut s: PageStore<u64> = PageStore::new(0);
        let a = s.allocate(7); // bounced straight out, dirty: 1 write
        assert_eq!(s.stats().writes(), 1);
        assert_eq!(s.stats().evictions(), 1);
        assert_eq!(s.stats().writebacks(), 1);
        let _ = s.read(a); // miss + clean bounce: 1 read, no write
        let _ = s.read(a); // never a hit
        assert_eq!(s.stats().reads(), 2);
        assert_eq!(s.stats().hits(), 0);
        s.write(a, |v| *v = 8); // miss + dirty bounce: read + write
        assert_eq!(s.stats().reads(), 3);
        assert_eq!(s.stats().writes(), 2);
        assert_eq!(*s.peek(a), 8);
    }

    #[test]
    fn zero_capacity_grouped_mutation_pays_exactly_one_write() {
        // The batch-apply contract on a buffer-less store: one grouped
        // mutation (k logical edits inside a single `try_write` closure)
        // faults the page in once (1 read) and bounces it back out dirty
        // once (1 write + 1 write-back) — never k of either. The same k
        // edits as k separate `write` calls pay k reads and k writes.
        let mut grouped: PageStore<Vec<u64>> = PageStore::new(0);
        let g = grouped.allocate(Vec::new()); // dirty bounce: 1 write
        assert_eq!(grouped.stats().writes(), 1);
        grouped.write(g, |v| {
            for x in 0..16 {
                v.push(x);
            }
        });
        assert_eq!(grouped.stats().reads(), 1, "one fault-in per group");
        assert_eq!(grouped.stats().writes(), 2, "one bounce per group");
        assert_eq!(grouped.stats().writebacks(), 2);

        let mut op_by_op: PageStore<Vec<u64>> = PageStore::new(0);
        let o = op_by_op.allocate(Vec::new());
        for x in 0..16 {
            op_by_op.write(o, |v| v.push(x));
        }
        assert_eq!(op_by_op.stats().reads(), 16);
        assert_eq!(op_by_op.stats().writes(), 17);
        assert_eq!(grouped.peek(g), op_by_op.peek(o), "same final contents");
    }

    #[test]
    fn capacity_one_counters_match_io_deltas() {
        let mut s: PageStore<u64> = PageStore::new(1);
        let a = s.allocate(1); // resident, dirty — no I/O yet
        assert_eq!((s.stats().reads(), s.stats().writes()), (0, 0));

        let b = s.allocate(2); // evicts dirty a: 1 write-back
        assert_eq!(s.stats().writes(), 1);
        assert_eq!(s.stats().evictions(), 1);
        assert_eq!(s.stats().writebacks(), 1);

        // Repeated access to the resident page is free.
        let _ = s.read(b);
        let _ = s.read(b);
        assert_eq!(s.stats().reads(), 0);
        assert_eq!(s.stats().hits(), 2);

        // Alternating between two pages thrashes: every switch is one
        // read (miss) and — only when the evictee is dirty — one write.
        let _ = s.read(a); // miss; b dirty from its allocation: write-back
        assert_eq!((s.stats().reads(), s.stats().writes()), (1, 2));
        s.write(b, |v| *v = 20); // miss; a clean; b now dirty again
        assert_eq!((s.stats().reads(), s.stats().writes()), (2, 2));
        let _ = s.read(a); // miss; evicts dirty b: read + write
        assert_eq!((s.stats().reads(), s.stats().writes()), (3, 3));
        assert_eq!(s.stats().hits(), 2); // unchanged throughout
        assert_eq!(s.stats().evictions(), 4);
        assert_eq!(s.stats().writebacks(), 3);
        assert_eq!(*s.peek(b), 20);
    }

    #[test]
    fn pinned_page_survives_clear_buffer() {
        let mut s: PageStore<u8> = PageStore::new(2);
        let a = s.allocate(1);
        s.clear_buffer();
        s.try_pin(Some(a)).unwrap();
        // First post-pin access pays the fault-in read…
        let _ = s.read(a);
        assert_eq!(s.stats().reads(), 1);
        // …then stays resident across clear_buffer, unlike pool pages.
        s.clear_buffer();
        let _ = s.read(a);
        assert_eq!(s.stats().reads(), 1);
        assert_eq!(s.stats().hits(), 1);
        assert_eq!(s.pinned(), Some(a));
    }

    #[test]
    fn pinned_dirty_page_pays_writeback_but_stays_resident() {
        let mut s: PageStore<u64> = PageStore::new(2);
        let a = s.allocate(7);
        s.clear_buffer();
        s.try_pin(Some(a)).unwrap();
        s.write(a, |v| *v = 8); // fault-in read, dirty in the pin slot
        assert_eq!(s.stats().reads(), 1);
        let w0 = s.stats().writes();
        s.clear_buffer(); // pays the owed write-back…
        assert_eq!(s.stats().writes(), w0 + 1);
        let _ = s.read(a); // …but the page is still resident
        assert_eq!(s.stats().reads(), 1);
        s.clear_buffer(); // clean now: no second write
        assert_eq!(s.stats().writes(), w0 + 1);
    }

    #[test]
    fn pin_transfers_pool_residency_and_repin_releases() {
        let mut s: PageStore<u8> = PageStore::new(2);
        let a = s.allocate(1);
        let b = s.allocate(2);
        // `a` is pool-resident (dirty from allocation): pinning adopts
        // both residency and the owed write-back.
        s.try_pin(Some(a)).unwrap();
        let _ = s.read(a);
        assert_eq!(s.stats().reads(), 0, "adopted residency: no fault-in");
        // Re-pinning to `b` hands `a` (dirty) back to the pool.
        s.try_pin(Some(b)).unwrap();
        assert_eq!(s.pinned(), Some(b));
        s.clear_buffer(); // a's write-back is still owed via the pool
        let _ = s.read(a);
        assert_eq!(s.stats().reads(), 1);
        // Freeing the pinned page drops the pin.
        let _ = s.free(b);
        assert_eq!(s.pinned(), None);
    }

    #[test]
    fn freeze_is_cow_and_free_of_io_accounting() {
        let mut s: PageStore<Vec<u32>> = PageStore::new(1);
        let a = s.allocate(vec![1]);
        let b = s.allocate(vec![2]);
        let snap = s.freeze();
        let (r0, w0) = (s.stats().reads(), s.stats().writes());

        // Mutations after the freeze land in a private copy; the
        // snapshot keeps the sealed version, and the snapshot itself
        // never perturbs the store's I/O accounting.
        s.write(a, |v| v.push(10));
        assert_eq!(snap.get(a), Some(&vec![1]));
        assert_eq!(s.peek(a), &vec![1, 10]);
        assert_eq!(snap.get(b), Some(&vec![2]));

        // Freeing a snapshot-held page leaves the snapshot intact.
        let freed = s.free(b);
        assert_eq!(freed, vec![2]);
        assert_eq!(snap.get(b), Some(&vec![2]));
        assert_eq!(snap.live_pages(), 2);

        // The write above cost exactly what it would without the
        // snapshot (one miss-read of `a`, write-backs via the pool).
        let mut plain: PageStore<Vec<u32>> = PageStore::new(1);
        let pa = plain.allocate(vec![1]);
        let _pb = plain.allocate(vec![2]);
        let (pr0, pw0) = (plain.stats().reads(), plain.stats().writes());
        plain.write(pa, |v| v.push(10));
        assert_eq!(s.stats().reads() - r0, plain.stats().reads() - pr0);
        assert_eq!(s.stats().writes() - w0, plain.stats().writes() - pw0);
    }

    #[test]
    fn frozen_snapshot_outlives_store() {
        let snap = {
            let mut s: PageStore<u64> = PageStore::new(2);
            let a = s.allocate(7);
            let f = s.freeze();
            s.write(a, |v| *v = 8);
            f
        };
        assert_eq!(snap.get(PageId::from_index(0)), Some(&7));
    }

    /// A page with a byte image, for the tests that commit.
    #[derive(Debug, Clone, PartialEq)]
    struct Num(u64);

    impl PageCodec for Num {
        fn encode(&self, out: &mut Vec<u8>) {
            crate::codec::put_u64(out, self.0);
        }

        fn decode(bytes: &[u8]) -> Option<Self> {
            Some(Self(u64::from_le_bytes(bytes.try_into().ok()?)))
        }
    }

    fn refs(s: &PageStore<Num>, id: PageId) -> usize {
        Arc::strong_count(s.pages[id.0 as usize].as_ref().unwrap())
    }

    #[test]
    fn no_pre_image_is_ever_taken_off_the_durable_path() {
        let mut s: PageStore<Num> = PageStore::new(2);
        let a = s.allocate(Num(1));
        s.write(a, |p| p.0 = 2);
        s.write(a, |p| p.0 = 3);
        assert_eq!(refs(&s, a), 1, "the store holds the only reference");
        assert!(s.dirty_since_commit.is_empty());
        assert_eq!(s.pending_commit(), (0, 0));
        // A snapshot shares the page until the next write copies it —
        // as before, and nothing more.
        let snap = s.freeze();
        assert_eq!(refs(&s, a), 2);
        s.write(a, |p| p.0 = 4);
        assert_eq!(refs(&s, a), 1);
        assert_eq!(snap.get(a), Some(&Num(3)));
    }

    #[test]
    fn the_first_write_of_a_window_keeps_the_page_as_the_log_last_knew_it() {
        let dir = crate::ScratchDir::new("pager-store-preimage");
        let (file, _) = crate::FileBackend::open(&dir, crate::FsyncPolicy::Never).unwrap();
        let mut s: PageStore<Num> = PageStore::new(2);
        let a = s.allocate(Num(1));
        drop(s.set_backend(Box::new(file)));
        // Live when the backend came in, and allocated since: the log
        // holds neither, so there is nothing to keep.
        let b = s.allocate(Num(10));
        s.write(a, |p| p.0 = 2);
        s.write(b, |p| p.0 = 11);
        assert_eq!((refs(&s, a), refs(&s, b)), (1, 1));
        assert_eq!(s.pending_commit(), (2, 0));
        s.try_commit(b"m").unwrap();

        s.write(a, |p| p.0 = 3);
        assert_eq!(refs(&s, a), 1, "the write copied the page…");
        let kept = s.dirty_since_commit[&a.0]
            .as_ref()
            .expect("…and the window kept it");
        assert_eq!(**kept, Num(2));
        s.write(a, |p| p.0 = 4);
        assert_eq!(
            *s.dirty_since_commit[&a.0].as_deref().unwrap(),
            Num(2),
            "later writes of the window leave the base alone"
        );
        // Freed and recycled inside the window: a new page, no base.
        let _ = s.free(b);
        let c = s.allocate(Num(20));
        assert_eq!(c, b);
        assert!(s.dirty_since_commit[&c.0].is_none());
        assert_eq!(s.pending_commit(), (2, 0));
        s.try_commit(b"m").unwrap();
        assert!(s.dirty_since_commit.is_empty(), "sealed: the bases go");
    }

    #[test]
    fn iter_live_sees_only_live() {
        let mut s: PageStore<u8> = PageStore::new(4);
        let _a = s.allocate(1);
        let b = s.allocate(2);
        let _c = s.allocate(3);
        let _ = s.free(b);
        let live: Vec<u8> = s.iter_live().map(|(_, p)| *p).collect();
        assert_eq!(live, vec![1, 3]);
    }
}
