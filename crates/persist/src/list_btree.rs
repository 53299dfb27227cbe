//! Lemma 4: the partially persistent B-tree-embedded list.
//!
//! The `N` list positions carry a **static** binary search tree (node =
//! median position, recursively). The top `L` levels of each subtree are
//! packed into one disk page, hB-style, so a root-to-leaf BST walk
//! touches `O(log_B n)` pages. Each page owns the occupants of its
//! in-page BST nodes and the copy-pointers of its child pages, and
//! evolves by appending to a bounded in-page **log**:
//!
//! * a crossing swaps two adjacent occupants → two `Occ` log records;
//! * when a page's log budget is exhausted, the page state is
//!   **materialized into a fresh copy** and a `Child` record (new copy
//!   id, timestamp) is appended to the *parent's* log — which may cascade
//!   upward; a new root copy is appended to the root history.
//!
//! Old copies are never mutated again (their logs stay as the record of
//! the interval they cover), giving partial persistence with `O(n + m)`
//! pages and `O(log_B(n + m))`-page searches into any version.

use mobidx_pager::{PageId, PageStore, PagerError, Store, DEFAULT_BUFFER_PAGES};
use std::collections::HashMap;

const INFALLIBLE: &str = "pager fault (use the try_* API with fault-injecting backends)";

/// A list element: enough motion state to compute the object's position
/// at any time in the structure's window (`y(t) = y0 + v·t`, with `t`
/// relative to the structure's epoch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupant {
    /// Object identifier.
    pub id: u64,
    /// Position at the structure's epoch (t = 0).
    pub y0: f64,
    /// Velocity.
    pub v: f64,
}

impl Occupant {
    /// Position at time `t` (relative to the epoch).
    #[must_use]
    pub fn position(&self, t: f64) -> f64 {
        self.y0 + self.v * t
    }
}

/// Sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct PersistConfig {
    /// Total records (base occupants + child pointers + log entries) per
    /// page. With 16-byte records on 4096-byte pages this is 256.
    pub records_per_page: usize,
    /// Buffer-pool pages.
    pub buffer_pages: usize,
}

impl Default for PersistConfig {
    fn default() -> Self {
        Self {
            records_per_page: 256,
            buffer_pages: DEFAULT_BUFFER_PAGES,
        }
    }
}

impl PersistConfig {
    /// Small-page configuration for tests.
    #[must_use]
    pub fn small(records_per_page: usize) -> Self {
        Self {
            records_per_page,
            buffer_pages: DEFAULT_BUFFER_PAGES,
        }
    }

    /// In-page BST depth: the largest `L` with
    /// `(2^L − 1) + 2^L ≤ records_per_page / 2` (nodes + child slots fit
    /// in half a page, leaving at least half for the log).
    #[must_use]
    pub fn levels(&self) -> usize {
        let budget = (self.records_per_page / 2).max(3);
        let mut l = 1usize;
        while (1usize << (l + 1)) - 1 + (1usize << (l + 1)) <= budget {
            l += 1;
        }
        l
    }
}

/// One log record.
#[derive(Debug, Clone, Copy)]
enum LogRec {
    /// Position-occupant change (a crossing half).
    Occ { time: f64, slot: u32, occ: Occupant },
    /// A child page was copied; `copy` is the new current copy.
    Child { time: f64, slot: u32, copy: PageId },
}

/// One page copy.
#[derive(Debug, Clone)]
struct PCopy {
    /// Occupants at copy-creation time, parallel to the static page's
    /// node list.
    occ: Vec<Occupant>,
    /// Child copy ids at copy-creation time, parallel to the static
    /// page's child list.
    children: Vec<PageId>,
    /// Changes since creation, time-ordered.
    log: Vec<LogRec>,
}

/// Static description of one page of the embedded BST.
#[derive(Debug, Clone)]
struct StaticPage {
    /// Position range `[lo, hi)` covered by this page's subtree.
    lo: usize,
    hi: usize,
    /// Positions of the in-page BST nodes (deterministic order; slot =
    /// index here).
    nodes: Vec<usize>,
    /// Child static-page indices, left-to-right.
    children: Vec<usize>,
    /// Child position ranges, parallel to `children` (sorted by `lo`).
    child_ranges: Vec<(usize, usize)>,
    /// Parent page and the child slot this page occupies there.
    parent: Option<(usize, u32)>,
    /// In-page BST depth of this page (adaptive; see [`page_depth`]).
    depth_limit: usize,
}

/// The partially persistent list B-tree (see module docs).
#[derive(Debug)]
pub struct PersistentListBTree {
    store: PageStore<PCopy>,
    shape: Vec<StaticPage>,
    /// `pos_owner[p] = (static page, slot)` owning position `p`.
    pos_owner: Vec<(usize, u32)>,
    /// Current copy of each static page.
    current: Vec<PageId>,
    /// `(creation time, root copy)` — the paper's auxiliary array.
    root_history: Vec<(f64, PageId)>,
    /// In-memory mirror of the *current* occupants (write-path
    /// convenience; queries never touch it).
    cur_occ: Vec<Occupant>,
    /// Current position of each object id.
    pos_of: HashMap<u64, usize>,
    records_per_page: usize,
    last_time: f64,
    swaps_applied: usize,
}

impl PersistentListBTree {
    /// Builds the epoch version from occupants **sorted by position**
    /// (ascending `y0`, ties by velocity then id — the order at `t = 0⁺`).
    ///
    /// # Panics
    /// Panics if the occupants are not sorted or ids repeat.
    #[must_use]
    pub fn new(cfg: PersistConfig, occupants: Vec<Occupant>) -> Self {
        assert!(
            occupants
                .windows(2)
                .all(|w| (w[0].y0, w[0].v) <= (w[1].y0, w[1].v)),
            "occupants must be sorted by (position, velocity)"
        );
        let n = occupants.len();
        let levels = cfg.levels();
        let mut shape = Vec::new();
        let mut pos_owner = vec![(usize::MAX, u32::MAX); n];
        if n > 0 {
            build_shape(0, n, levels, None, &mut shape, &mut pos_owner);
        }
        let mut pos_of = HashMap::with_capacity(n);
        for (p, o) in occupants.iter().enumerate() {
            let clash = pos_of.insert(o.id, p);
            assert!(clash.is_none(), "duplicate object id {}", o.id);
        }
        let mut this = Self {
            store: PageStore::new(cfg.buffer_pages),
            shape,
            pos_owner,
            current: Vec::new(),
            root_history: Vec::new(),
            cur_occ: occupants,
            pos_of,
            records_per_page: cfg.records_per_page,
            last_time: f64::NEG_INFINITY,
            swaps_applied: 0,
        };
        if n > 0 {
            this.current = vec![PageId::from_index(0); this.shape.len()];
            let root_copy = this.build_copies(0);
            this.root_history.push((f64::NEG_INFINITY, root_copy));
        }
        this
    }

    /// Number of list positions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cur_occ.len()
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cur_occ.is_empty()
    }

    /// Number of swaps applied so far.
    #[must_use]
    pub fn swaps_applied(&self) -> usize {
        self.swaps_applied
    }

    /// The underlying page store: I/O counters, buffer pool, backend.
    #[must_use]
    pub fn store(&self) -> &dyn Store {
        &self.store
    }

    /// The underlying page store, mutably.
    pub fn store_mut(&mut self) -> &mut dyn Store {
        &mut self.store
    }

    /// Live pages (all copies — persistence never frees).
    #[must_use]
    pub fn live_pages(&self) -> u64 {
        self.store.live_pages()
    }

    /// Current position of an object, if present.
    #[must_use]
    pub fn position_of(&self, id: u64) -> Option<usize> {
        self.pos_of.get(&id).copied()
    }

    /// Applies a crossing at `time`: the occupants of positions `pos` and
    /// `pos + 1` swap.
    ///
    /// # Panics
    /// Panics if `time` precedes an already-applied event, `pos + 1` is
    /// out of range, or a pager fault fires; see
    /// [`PersistentListBTree::try_apply_swap`].
    pub fn apply_swap(&mut self, time: f64, pos: usize) {
        self.try_apply_swap(time, pos).expect(INFALLIBLE);
    }

    /// Fallible twin of [`PersistentListBTree::apply_swap`].
    ///
    /// The in-memory mirrors (`cur_occ`, `pos_of`) are updated *before*
    /// the swap is logged to the paged structure, so a fault here leaves
    /// the two out of sync: the structure must be rebuilt (or the swap
    /// durably retried) before it is trusted again.
    ///
    /// # Errors
    /// Surfaces pager faults raised while logging the swap.
    ///
    /// # Panics
    /// Panics if `time` precedes an already-applied event or `pos + 1` is
    /// out of range.
    pub fn try_apply_swap(&mut self, time: f64, pos: usize) -> Result<(), PagerError> {
        assert!(
            time >= self.last_time,
            "events must be applied in time order"
        );
        assert!(pos + 1 < self.cur_occ.len(), "swap position out of range");
        self.last_time = time;
        self.swaps_applied += 1;
        let a = self.cur_occ[pos];
        let b = self.cur_occ[pos + 1];
        self.cur_occ[pos] = b;
        self.cur_occ[pos + 1] = a;
        *self.pos_of.get_mut(&a.id).expect("unknown id") = pos + 1;
        *self.pos_of.get_mut(&b.id).expect("unknown id") = pos;
        self.try_log_occ(time, pos, b)?;
        self.try_log_occ(time, pos + 1, a)?;
        Ok(())
    }

    /// Reports, in ascending position order, every occupant whose
    /// *computed* position `y0 + v·t` lies in `[yl, yr]`, against the
    /// version current at time `t` (Lemma 2's query).
    ///
    /// # Panics
    /// Panics on a pager fault; see [`PersistentListBTree::try_query`].
    pub fn query(&mut self, t: f64, yl: f64, yr: f64, visit: impl FnMut(&Occupant)) {
        self.try_query(t, yl, yr, visit).expect(INFALLIBLE);
    }

    /// Fallible twin of [`PersistentListBTree::query`].
    ///
    /// # Errors
    /// Surfaces pager faults; occupants already visited stay visited.
    pub fn try_query(
        &mut self,
        t: f64,
        yl: f64,
        yr: f64,
        mut visit: impl FnMut(&Occupant),
    ) -> Result<(), PagerError> {
        if self.cur_occ.is_empty() || yl > yr {
            return Ok(());
        }
        // Locate the root copy for time t (in-memory auxiliary array).
        let idx = self.root_history.partition_point(|&(time, _)| time <= t);
        if idx == 0 {
            return Ok(()); // t precedes the epoch
        }
        let root_copy = self.root_history[idx - 1].1;
        self.try_visit_page(root_copy, 0, t, yl, yr, &mut visit)
    }

    /// The full list order at time `t` (by occupant), for tests/oracles.
    ///
    /// # Panics
    /// Panics on a pager fault; see
    /// [`PersistentListBTree::try_snapshot_at`].
    pub fn snapshot_at(&mut self, t: f64) -> Vec<Occupant> {
        self.try_snapshot_at(t).expect(INFALLIBLE)
    }

    /// Fallible twin of [`PersistentListBTree::snapshot_at`].
    ///
    /// # Errors
    /// Surfaces pager faults.
    pub fn try_snapshot_at(&mut self, t: f64) -> Result<Vec<Occupant>, PagerError> {
        let mut out = Vec::with_capacity(self.len());
        self.try_query(t, f64::NEG_INFINITY, f64::INFINITY, |o| out.push(*o))?;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    fn try_log_occ(&mut self, time: f64, pos: usize, occ: Occupant) -> Result<(), PagerError> {
        let (pg, slot) = self.pos_owner[pos];
        self.try_append_log(pg, LogRec::Occ { time, slot, occ }, time)
    }

    fn try_append_log(&mut self, pg: usize, rec: LogRec, time: f64) -> Result<(), PagerError> {
        let base = self.shape[pg].nodes.len() + self.shape[pg].children.len();
        let cap = self.records_per_page;
        let cid = self.current[pg];
        let full = self.store.try_write(cid, |c| {
            c.log.push(rec);
            base + c.log.len() >= cap
        })?;
        if full {
            self.try_copy_page(pg, time)?;
        }
        Ok(())
    }

    /// Materializes the current state of static page `pg` into a fresh
    /// copy and posts it to the parent (or the root history).
    fn try_copy_page(&mut self, pg: usize, time: f64) -> Result<(), PagerError> {
        let old = self.current[pg];
        let materialized = {
            let c = self.store.try_read(old)?;
            let mut occ = c.occ.clone();
            let mut children = c.children.clone();
            for rec in &c.log {
                match *rec {
                    LogRec::Occ { slot, occ: o, .. } => occ[slot as usize] = o,
                    LogRec::Child { slot, copy, .. } => children[slot as usize] = copy,
                }
            }
            PCopy {
                occ,
                children,
                log: Vec::new(),
            }
        };
        let new_id = self.store.try_allocate(materialized)?;
        self.current[pg] = new_id;
        match self.shape[pg].parent {
            None => {
                self.root_history.push((time, new_id));
                Ok(())
            }
            Some((parent, slot)) => self.try_append_log(
                parent,
                LogRec::Child {
                    time,
                    slot,
                    copy: new_id,
                },
                time,
            ),
        }
    }

    /// Builds the epoch copy of static page `pg` (children first).
    fn build_copies(&mut self, pg: usize) -> PageId {
        let child_indices = self.shape[pg].children.clone();
        let children: Vec<PageId> = child_indices
            .iter()
            .map(|&c| self.build_copies(c))
            .collect();
        let occ: Vec<Occupant> = self.shape[pg]
            .nodes
            .iter()
            .map(|&pos| self.cur_occ[pos])
            .collect();
        let id = self.store.allocate(PCopy {
            occ,
            children,
            log: Vec::new(),
        });
        self.current[pg] = id;
        id
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Reconstructs the state of a page copy at time `t` and continues
    /// the BST range search through it.
    fn try_visit_page(
        &mut self,
        copy: PageId,
        pg: usize,
        t: f64,
        yl: f64,
        yr: f64,
        visit: &mut impl FnMut(&Occupant),
    ) -> Result<(), PagerError> {
        let (occ, children) = {
            let c = self.store.try_read(copy)?;
            let mut occ = c.occ.clone();
            let mut children = c.children.clone();
            for rec in &c.log {
                match *rec {
                    LogRec::Occ { time, slot, occ: o } => {
                        if time <= t {
                            occ[slot as usize] = o;
                        }
                    }
                    LogRec::Child { time, slot, copy } => {
                        if time <= t {
                            children[slot as usize] = copy;
                        }
                    }
                }
            }
            (occ, children)
        };
        let (lo, hi) = (self.shape[pg].lo, self.shape[pg].hi);
        self.try_walk(pg, &occ, &children, lo, hi, 0, t, yl, yr, visit)
    }

    /// In-page BST range walk (in-order, so output is position-sorted).
    #[allow(clippy::too_many_arguments)]
    fn try_walk(
        &mut self,
        pg: usize,
        occ: &[Occupant],
        children: &[PageId],
        lo: usize,
        hi: usize,
        depth: usize,
        t: f64,
        yl: f64,
        yr: f64,
        visit: &mut impl FnMut(&Occupant),
    ) -> Result<(), PagerError> {
        if lo >= hi {
            return Ok(());
        }
        if depth == self.shape[pg].depth_limit {
            // Child page boundary.
            let ranges = &self.shape[pg].child_ranges;
            let slot = ranges
                .binary_search_by_key(&lo, |&(l, _)| l)
                .expect("child range missing");
            let child_copy = children[slot];
            let child_pg = self.shape[pg].children[slot];
            return self.try_visit_page(child_copy, child_pg, t, yl, yr, visit);
        }
        let mid = lo + (hi - lo) / 2;
        let (owner_pg, slot) = self.pos_owner[mid];
        debug_assert_eq!(owner_pg, pg, "position owned by unexpected page");
        let o = occ[slot as usize];
        let loc = o.position(t);
        if loc >= yl {
            self.try_walk(pg, occ, children, lo, mid, depth + 1, t, yl, yr, visit)?;
        }
        if loc >= yl && loc <= yr {
            visit(&o);
        }
        if loc <= yr {
            self.try_walk(pg, occ, children, mid + 1, hi, depth + 1, t, yl, yr, visit)?;
        }
        Ok(())
    }
}

/// Recursively builds the static page tree over positions `[lo, hi)`.
fn build_shape(
    lo: usize,
    hi: usize,
    levels: usize,
    parent: Option<(usize, u32)>,
    shape: &mut Vec<StaticPage>,
    pos_owner: &mut [(usize, u32)],
) -> usize {
    debug_assert!(lo < hi);
    let depth_limit = page_depth(hi - lo, levels);
    let idx = shape.len();
    shape.push(StaticPage {
        lo,
        hi,
        nodes: Vec::new(),
        children: Vec::new(),
        child_ranges: Vec::new(),
        parent,
        depth_limit,
    });
    let mut nodes = Vec::new();
    let mut child_ranges = Vec::new();
    gather(lo, hi, 0, depth_limit, &mut nodes, &mut child_ranges);
    for (slot, &pos) in nodes.iter().enumerate() {
        pos_owner[pos] = (idx, u32::try_from(slot).expect("slot overflow"));
    }
    shape[idx].nodes = nodes;
    // Child ranges are produced left-to-right; keep them sorted by lo so
    // the read path can binary-search.
    child_ranges.sort_unstable_by_key(|&(l, _)| l);
    let children: Vec<usize> = child_ranges
        .iter()
        .enumerate()
        .map(|(slot, &(clo, chi))| {
            build_shape(
                clo,
                chi,
                levels,
                Some((idx, u32::try_from(slot).expect("slot overflow"))),
                shape,
                pos_owner,
            )
        })
        .collect();
    shape[idx].children = children;
    shape[idx].child_ranges = child_ranges;
    idx
}

/// Chooses the in-page depth for a page covering `s` positions.
///
/// A fixed depth would shatter mid-size subtrees into dozens of 1–2 node
/// pages (terrible occupancy *and* range-scan locality). Instead the page
/// absorbs just enough levels that its children are themselves fully
/// embeddable: `d = clamp(height(s) − levels, 1, levels)`; a subtree of
/// height ≤ `levels` is embedded whole.
fn page_depth(s: usize, levels: usize) -> usize {
    let height = usize::BITS as usize - s.leading_zeros() as usize; // ceil(log2(s+1))
    if height <= levels {
        levels // recursion bottoms out before the limit: full embed
    } else {
        (height - levels).clamp(1, levels)
    }
}

/// Collects the in-page BST nodes (truncated at `levels`) and the child
/// subranges hanging below the truncation.
fn gather(
    lo: usize,
    hi: usize,
    depth: usize,
    levels: usize,
    nodes: &mut Vec<usize>,
    child_ranges: &mut Vec<(usize, usize)>,
) {
    if lo >= hi {
        return;
    }
    if depth == levels {
        child_ranges.push((lo, hi));
        return;
    }
    let mid = lo + (hi - lo) / 2;
    nodes.push(mid);
    gather(lo, mid, depth + 1, levels, nodes, child_ranges);
    gather(mid + 1, hi, depth + 1, levels, nodes, child_ranges);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(n: usize, cfg: PersistConfig) -> (PersistentListBTree, Vec<Occupant>) {
        // Objects evenly spaced, alternately slow/fast so neighbours
        // cross over time.
        let occupants: Vec<Occupant> = (0..n)
            .map(|i| Occupant {
                id: i as u64,
                #[allow(clippy::cast_precision_loss)]
                y0: i as f64 * 10.0,
                v: if i % 2 == 0 { 2.0 } else { 0.5 },
            })
            .collect();
        let t = PersistentListBTree::new(cfg, occupants.clone());
        (t, occupants)
    }

    #[test]
    fn epoch_snapshot_matches_input() {
        let (mut t, occupants) = make(100, PersistConfig::small(16));
        let snap = t.snapshot_at(0.0);
        assert_eq!(snap, occupants);
    }

    #[test]
    fn empty_and_singleton() {
        let mut empty = PersistentListBTree::new(PersistConfig::small(16), vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.snapshot_at(5.0), vec![]);

        let one = vec![Occupant {
            id: 9,
            y0: 1.0,
            v: 1.0,
        }];
        let mut t = PersistentListBTree::new(PersistConfig::small(16), one.clone());
        assert_eq!(t.snapshot_at(3.0), one);
        let mut hits = Vec::new();
        t.query(3.0, 0.0, 10.0, |o| hits.push(o.id));
        assert_eq!(hits, vec![9]);
        t.query(3.0, 10.0, 20.0, |o| hits.push(o.id));
        assert_eq!(hits, vec![9]); // 1 + 3 = 4 not in [10, 20]
    }

    /// Reference implementation: replay swaps on a plain vector.
    struct Oracle {
        list: Vec<Occupant>,
        versions: Vec<(f64, Vec<Occupant>)>,
    }

    impl Oracle {
        fn new(occupants: &[Occupant]) -> Self {
            Self {
                list: occupants.to_vec(),
                versions: vec![(f64::NEG_INFINITY, occupants.to_vec())],
            }
        }
        fn swap(&mut self, time: f64, pos: usize) {
            self.list.swap(pos, pos + 1);
            self.versions.push((time, self.list.clone()));
        }
        fn at(&self, t: f64) -> &[Occupant] {
            let idx = self.versions.partition_point(|&(time, _)| time <= t);
            &self.versions[idx - 1].1
        }
    }

    #[test]
    fn versions_match_oracle_replay() {
        let (mut t, occupants) = make(64, PersistConfig::small(16));
        let mut oracle = Oracle::new(&occupants);
        // Apply a deterministic churn of swaps.
        let mut state = 0xDEADBEEFu64;
        let mut times = Vec::new();
        for step in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pos = (state as usize) % 63;
            let time = f64::from(step) * 0.1;
            t.apply_swap(time, pos);
            oracle.swap(time, pos);
            times.push(time);
        }
        // Probe a spread of historical versions.
        for &probe in &[0.0, 0.05, 5.0, 12.34, 25.0, 49.9, 100.0] {
            let got = t.snapshot_at(probe);
            // snapshot_at reports in *computed position* order at `probe`,
            // which equals list order only when the list is order-
            // consistent at that time. Here swaps are arbitrary (not real
            // crossings), so compare as the set of occupants per position
            // via a full walk instead: the BST in-order traversal is the
            // list order.
            assert_eq!(got.len(), 64, "probe {probe}");
            let want = oracle.at(probe);
            // The BST walk visits in position order; computed-position
            // pruning is disabled by the infinite range, so got == list.
            assert_eq!(got, want, "probe {probe}");
        }
    }

    #[test]
    fn range_query_with_real_crossings() {
        // Build real motion: fast objects behind slow ones; apply the true
        // crossing events, then range-query at various times and compare
        // with brute force.
        let n = 80usize;
        let objects: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                #[allow(clippy::cast_precision_loss)]
                let y = i as f64 * 5.0;
                let v = if i % 3 == 0 {
                    3.0
                } else {
                    1.0 + (i % 7) as f64 * 0.1
                };
                (y, v)
            })
            .collect();
        let horizon = 120.0;
        let events = crate::crossings::all_crossings(&objects, horizon);
        assert!(!events.is_empty());

        let mut sorted: Vec<usize> = (0..n).collect();
        sorted.sort_by(|&i, &j| {
            (objects[i].0, objects[i].1)
                .partial_cmp(&(objects[j].0, objects[j].1))
                .unwrap()
        });
        let occupants: Vec<Occupant> = sorted
            .iter()
            .map(|&i| Occupant {
                id: i as u64,
                y0: objects[i].0,
                v: objects[i].1,
            })
            .collect();
        let mut t = PersistentListBTree::new(PersistConfig::small(16), occupants);
        for e in &events {
            let pos = t.position_of(e.b as u64).expect("known id");
            // b overtakes a: b must sit directly behind a.
            assert_eq!(
                t.position_of(e.a as u64),
                Some(pos + 1),
                "crossing pair not adjacent"
            );
            t.apply_swap(e.time, pos);
        }
        // Probe times between, before and after events.
        for &tq in &[0.0, 1.0, 13.37, 60.0, 119.9, 120.0] {
            for &(yl, yr) in &[(0.0, 100.0), (150.0, 260.0), (42.0, 42.5), (-50.0, -1.0)] {
                let mut got: Vec<u64> = Vec::new();
                t.query(tq, yl, yr, |o| got.push(o.id));
                let mut want: Vec<u64> = (0..n)
                    .filter(|&i| {
                        let p = objects[i].0 + objects[i].1 * tq;
                        yl <= p && p <= yr
                    })
                    .map(|i| i as u64)
                    .collect();
                // got is in position order == ascending computed position.
                let mut got_sorted = got.clone();
                got_sorted.sort_unstable();
                want.sort_unstable();
                assert_eq!(got_sorted, want, "t={tq} range=({yl},{yr})");
            }
        }
    }

    #[test]
    fn query_io_logarithmic_not_linear() {
        let n = 4096usize;
        let occupants: Vec<Occupant> = (0..n)
            .map(|i| Occupant {
                id: i as u64,
                #[allow(clippy::cast_precision_loss)]
                y0: i as f64,
                v: 1.0,
            })
            .collect();
        let mut t = PersistentListBTree::new(PersistConfig::default(), occupants);
        t.store_mut().try_clear_buffer().unwrap();
        let snap = t.store().stats().snapshot();
        let mut hits = 0usize;
        t.query(10.0, 100.0, 105.0, |_| hits += 1);
        assert_eq!(hits, 6);
        let cost = t.store().stats().since(&snap).reads;
        assert!(cost <= 6, "narrow query cost {cost} pages");
    }

    #[test]
    fn copies_preserve_old_versions() {
        // Force many page copies with a tiny log budget and verify an
        // early version still reads correctly afterwards.
        let (mut t, occupants) = make(32, PersistConfig::small(8));
        let pages_before = t.live_pages();
        for step in 0..2000u32 {
            let pos = (step as usize * 7) % 31;
            t.apply_swap(f64::from(step), pos);
        }
        assert!(
            t.live_pages() > pages_before,
            "copy-on-log-overflow never triggered"
        );
        // Version at t = -0.5 (before any swap) is the epoch order.
        let snap = t.snapshot_at(-0.5);
        assert_eq!(snap, occupants);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_events_panic() {
        let (mut t, _) = make(8, PersistConfig::small(16));
        t.apply_swap(5.0, 0);
        t.apply_swap(4.0, 1);
    }

    #[test]
    fn levels_arithmetic() {
        assert!(PersistConfig::small(16).levels() >= 1);
        let cfg = PersistConfig::default();
        // 256 records: nodes+children = 2^{L+1} - 1 + ... fits in 128.
        let l = cfg.levels();
        // cost(L) = (2^L - 1) nodes + 2^L child slots.
        assert!((1usize << l) - 1 + (1usize << l) <= 128);
        assert!((1usize << (l + 1)) - 1 + (1usize << (l + 1)) > 128);
    }
}
