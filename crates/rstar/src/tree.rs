//! The R\*-tree proper.

use crate::query::RectQuery;
use mobidx_geom::{Rect2, Relation};
use mobidx_pager::{PageId, PageStore, PagerError, Store, DEFAULT_BUFFER_PAGES};
use std::fmt::Debug;

/// Sizing parameters of an R\*-tree.
#[derive(Debug, Clone, Copy)]
pub struct RStarConfig {
    /// Maximum entries per node (the paper's `B` = 204).
    pub max_entries: usize,
    /// Minimum entries per non-root node (Beckmann et al. recommend 40 %).
    pub min_entries: usize,
    /// Entries removed by forced reinsertion (30 % of `max_entries`).
    pub reinsert_count: usize,
    /// Buffer-pool capacity in pages.
    pub buffer_pages: usize,
}

impl Default for RStarConfig {
    fn default() -> Self {
        Self::with_max(crate::paper_entry_capacity())
    }
}

impl RStarConfig {
    /// Derives the 40 % / 30 % parameters from a node capacity.
    #[must_use]
    pub fn with_max(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "R*-tree node capacity must be >= 4");
        Self {
            max_entries,
            min_entries: (max_entries * 2 / 5).max(1),
            reinsert_count: (max_entries * 3 / 10).max(1),
            buffer_pages: DEFAULT_BUFFER_PAGES,
        }
    }
}

/// One page of the tree.
#[derive(Debug, Clone)]
enum RNode<T> {
    Leaf(Vec<(Rect2, T)>),
    Branch(Vec<(Rect2, PageId)>),
}

impl<T> RNode<T> {
    fn occupancy(&self) -> usize {
        match self {
            RNode::Leaf(e) => e.len(),
            RNode::Branch(e) => e.len(),
        }
    }

    fn mbr(&self) -> Rect2 {
        let union = |rects: &mut dyn Iterator<Item = Rect2>| {
            let first = rects.next().expect("mbr of empty node");
            rects.fold(first, |acc, r| acc.union(&r))
        };
        match self {
            RNode::Leaf(e) => union(&mut e.iter().map(|&(r, _)| r)),
            RNode::Branch(e) => union(&mut e.iter().map(|&(r, _)| r)),
        }
    }
}

/// An entry detached from a node, pending (re)insertion at some level.
#[derive(Debug, Clone, Copy)]
enum Slot<T> {
    Item(T),
    Child(PageId),
}

/// A paged R\*-tree storing `(mbr, item)` pairs.
///
/// `item` equality (together with MBR equality) identifies entries for
/// [`RStarTree::try_remove`]; items are small `Copy` payloads (object ids,
/// route-segment ids).
#[derive(Debug)]
pub struct RStarTree<T: Copy + PartialEq + Debug> {
    store: PageStore<RNode<T>>,
    root: PageId,
    /// Number of levels; 1 means the root is a leaf.
    height: usize,
    len: usize,
    cfg: RStarConfig,
}

impl<T: Copy + PartialEq + Debug> RStarTree<T> {
    /// Creates an empty tree.
    #[must_use]
    pub fn new(cfg: RStarConfig) -> Self {
        let mut store = PageStore::new(cfg.buffer_pages);
        let root = store
            .try_allocate(RNode::Leaf(Vec::new()))
            .expect("a fresh store's MemBackend never faults");
        Self {
            store,
            root,
            height: 1,
            len: 0,
            cfg,
        }
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (1 = root is a leaf).
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
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

    /// Live pages — the space metric of Figure 8.
    #[must_use]
    pub fn live_pages(&self) -> u64 {
        self.store.live_pages()
    }

    /// Inserts `(mbr, item)`.
    ///
    /// # Errors
    /// Surfaces pager faults; the tree may hold a partially applied
    /// insert (entry placed but overflow treatment unfinished).
    pub fn try_insert(&mut self, mbr: Rect2, item: T) -> Result<(), PagerError> {
        let mut reinserted = vec![false; self.height + 2];
        self.try_insert_at(mbr, Slot::Item(item), 1, &mut reinserted)?;
        self.len += 1;
        Ok(())
    }

    /// Removes the entry with exactly this `(mbr, item)`. Returns
    /// `Ok(true)` if it was found.
    ///
    /// # Errors
    /// Surfaces pager faults; a fault mid-way may leave condensed nodes
    /// with pending orphan reinserts unapplied.
    pub fn try_remove(&mut self, mbr: Rect2, item: T) -> Result<bool, PagerError> {
        let mut orphans: Vec<(usize, Rect2, Slot<T>)> = Vec::new();
        let removed = self.try_remove_rec(self.root, self.height, &mbr, &item, &mut orphans)?;
        if !removed {
            debug_assert!(orphans.is_empty());
            return Ok(false);
        }
        self.len -= 1;
        // Shrink a root branch chain down to the first real fan-out.
        while self.height > 1 {
            let only = match self.store.try_read(self.root)? {
                RNode::Branch(entries) if entries.len() == 1 => Some(entries[0].1),
                _ => None,
            };
            match only {
                Some(child) => {
                    let _ = self.store.try_free(self.root)?;
                    self.root = child;
                    self.height -= 1;
                }
                None => break,
            }
        }
        // Reinsert orphaned entries at their original levels, highest
        // levels first.
        orphans.sort_by_key(|o| std::cmp::Reverse(o.0));
        for (level, mbr, slot) in orphans {
            let mut reinserted = vec![false; self.height + 2];
            self.try_insert_at(mbr, slot, level, &mut reinserted)?;
        }
        Ok(true)
    }

    /// Reports all `(mbr, item)` entries whose MBR is not disjoint from
    /// the query region (window rectangle or convex polygon).
    ///
    /// The result is *candidates* in the usual SAM sense: for non-point
    /// data (trajectory segments) the caller refines against the exact
    /// geometry, as the paper's baseline does.
    ///
    /// # Errors
    /// Surfaces pager faults.
    pub fn try_search<Q: RectQuery>(&mut self, query: &Q) -> Result<Vec<(Rect2, T)>, PagerError> {
        let mut out = Vec::new();
        self.try_search_with(query, |mbr, item| out.push((mbr, item)))?;
        Ok(out)
    }

    /// Visitor-style search (avoids allocating for large results).
    ///
    /// # Errors
    /// Surfaces pager faults; entries already visited stay visited.
    pub fn try_search_with<Q: RectQuery>(
        &mut self,
        query: &Q,
        mut visit: impl FnMut(Rect2, T),
    ) -> Result<(), PagerError> {
        if self.len == 0 {
            return Ok(());
        }
        let mut stack = vec![(self.root, self.height)];
        while let Some((pid, level)) = stack.pop() {
            if level > 1 {
                let kids: Vec<(PageId, usize)> = match self.store.try_read(pid)? {
                    RNode::Branch(entries) => entries
                        .iter()
                        .filter(|(r, _)| query.relation(r) != Relation::Disjoint)
                        .map(|&(_, c)| (c, level - 1))
                        .collect(),
                    RNode::Leaf(_) => unreachable!("leaf above leaf level"),
                };
                stack.extend(kids);
            } else {
                let hits: Vec<(Rect2, T)> = match self.store.try_read(pid)? {
                    RNode::Leaf(entries) => entries
                        .iter()
                        .filter(|(r, _)| query.relation(r) != Relation::Disjoint)
                        .copied()
                        .collect(),
                    RNode::Branch(_) => unreachable!("branch at leaf level"),
                };
                for (r, t) in hits {
                    visit(r, t);
                }
            }
        }
        Ok(())
    }

    /// All entries (uncounted access; for tests and audits).
    #[must_use]
    pub fn collect_all(&self) -> Vec<(Rect2, T)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            match self.store.peek(pid) {
                RNode::Leaf(entries) => out.extend_from_slice(entries),
                RNode::Branch(entries) => stack.extend(entries.iter().map(|&(_, c)| c)),
            }
        }
        out
    }

    /// Verifies structural invariants (uncounted access):
    /// * uniform leaf depth;
    /// * every branch entry's MBR equals the union of its child's MBRs;
    /// * occupancy within `[min, max]` (non-root);
    /// * `len` equals the number of leaf entries.
    ///
    /// # Panics
    /// Panics describing the first violated invariant.
    pub fn check_invariants(&self) {
        let mut count = 0usize;
        self.check_rec(self.root, self.height, None, &mut count);
        assert_eq!(count, self.len, "len does not match leaf contents");
    }

    fn check_rec(&self, pid: PageId, level: usize, expected_mbr: Option<Rect2>, count: &mut usize) {
        let node = self.store.peek(pid);
        let occ = node.occupancy();
        assert!(
            occ <= self.cfg.max_entries,
            "overfull node: {occ} > {}",
            self.cfg.max_entries
        );
        if expected_mbr.is_some() {
            // Non-root.
            assert!(
                occ >= self.cfg.min_entries,
                "underfull node: {occ} < {}",
                self.cfg.min_entries
            );
        }
        if let Some(expect) = expected_mbr {
            let actual = node.mbr();
            assert!(
                rect_close(&expect, &actual),
                "stale parent MBR: expected {expect:?}, actual {actual:?}"
            );
        }
        match node {
            RNode::Leaf(entries) => {
                assert_eq!(level, 1, "leaf at wrong depth");
                *count += entries.len();
            }
            RNode::Branch(entries) => {
                assert!(level > 1, "branch at leaf depth");
                for &(mbr, child) in entries.clone().iter() {
                    self.check_rec(child, level - 1, Some(mbr), count);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Insertion internals
    // ------------------------------------------------------------------

    fn try_insert_at(
        &mut self,
        mbr: Rect2,
        slot: Slot<T>,
        target_level: usize,
        reinserted: &mut Vec<bool>,
    ) -> Result<(), PagerError> {
        if reinserted.len() < self.height + 2 {
            reinserted.resize(self.height + 2, false);
        }
        let path = self.try_choose_path(&mbr, target_level)?;
        let target = *path.last().expect("empty path");
        let occ = self.store.try_write(target, |n| {
            match (&mut *n, slot) {
                (RNode::Leaf(entries), Slot::Item(item)) => entries.push((mbr, item)),
                (RNode::Branch(entries), Slot::Child(child)) => entries.push((mbr, child)),
                _ => unreachable!("slot kind does not match node kind"),
            }
            n.occupancy()
        })?;
        // Extend ancestor MBRs to cover the new entry.
        for w in path.windows(2) {
            let (parent, child) = (w[0], w[1]);
            self.store.try_write(parent, |n| {
                if let RNode::Branch(entries) = n {
                    let e = entries
                        .iter_mut()
                        .find(|(_, c)| *c == child)
                        .expect("path child missing from parent");
                    e.0 = e.0.union(&mbr);
                }
            })?;
        }
        if occ > self.cfg.max_entries {
            self.try_handle_overflow(path, target_level, reinserted)?;
        }
        Ok(())
    }

    /// Descends from the root to `target_level`, returning the node path.
    fn try_choose_path(
        &mut self,
        mbr: &Rect2,
        target_level: usize,
    ) -> Result<Vec<PageId>, PagerError> {
        debug_assert!(target_level <= self.height);
        let mut path = vec![self.root];
        let mut level = self.height;
        while level > target_level {
            let node = *path.last().expect("empty path");
            let next = match self.store.try_read(node)? {
                RNode::Branch(entries) => {
                    if level - 1 == 1 {
                        choose_subtree_leaf_level(entries, mbr)
                    } else {
                        choose_subtree_inner(entries, mbr)
                    }
                }
                RNode::Leaf(_) => unreachable!("leaf above target level"),
            };
            path.push(next);
            level -= 1;
        }
        Ok(path)
    }

    fn try_handle_overflow(
        &mut self,
        mut path: Vec<PageId>,
        mut level: usize,
        reinserted: &mut Vec<bool>,
    ) -> Result<(), PagerError> {
        loop {
            let node = *path.last().expect("empty path");
            if self.store.try_read(node)?.occupancy() <= self.cfg.max_entries {
                break;
            }
            let is_root = path.len() == 1;
            if !is_root && !reinserted[level] {
                reinserted[level] = true;
                self.try_forced_reinsert(&path, level, reinserted)?;
                break;
            }
            // Split.
            let (left_mbr, right_mbr, right_pid) = self.try_split_node(node)?;
            if is_root {
                let new_root = self.store.try_allocate(RNode::Branch(vec![
                    (left_mbr, node),
                    (right_mbr, right_pid),
                ]))?;
                self.root = new_root;
                self.height += 1;
                if reinserted.len() < self.height + 2 {
                    reinserted.resize(self.height + 2, false);
                }
                break;
            }
            let parent = path[path.len() - 2];
            self.store.try_write(parent, |n| {
                if let RNode::Branch(entries) = n {
                    let e = entries
                        .iter_mut()
                        .find(|(_, c)| *c == node)
                        .expect("split child missing from parent");
                    e.0 = left_mbr;
                    entries.push((right_mbr, right_pid));
                }
            })?;
            path.pop();
            level += 1;
        }
        Ok(())
    }

    /// Removes the `p` entries farthest from the node's center and
    /// reinserts them closest-first (Beckmann et al.'s "close reinsert").
    fn try_forced_reinsert(
        &mut self,
        path: &[PageId],
        level: usize,
        reinserted: &mut Vec<bool>,
    ) -> Result<(), PagerError> {
        let node = *path.last().expect("empty path");
        let p = self.cfg.reinsert_count;
        let removed: Vec<(Rect2, Slot<T>)> = self.store.try_write(node, |n| {
            let center = Rect2::point(n.mbr().center());
            match n {
                RNode::Leaf(entries) => {
                    sort_by_center_distance_desc(entries, &center);
                    entries
                        .drain(..p.min(entries.len().saturating_sub(1)))
                        .map(|(r, t)| (r, Slot::Item(t)))
                        .collect()
                }
                RNode::Branch(entries) => {
                    sort_by_center_distance_desc(entries, &center);
                    entries
                        .drain(..p.min(entries.len().saturating_sub(1)))
                        .map(|(r, c)| (r, Slot::Child(c)))
                        .collect()
                }
            }
        })?;
        self.try_recompute_path_mbrs(path)?;
        // Close reinsert: the drained list is farthest-first, so iterate
        // in reverse.
        for (mbr, slot) in removed.into_iter().rev() {
            self.try_insert_at(mbr, slot, level, reinserted)?;
        }
        Ok(())
    }

    /// Recomputes exact MBRs along a root-to-node path, bottom-up (used
    /// after entries have been removed, when MBRs may shrink).
    fn try_recompute_path_mbrs(&mut self, path: &[PageId]) -> Result<(), PagerError> {
        for w in path.windows(2).rev() {
            let (parent, child) = (w[0], w[1]);
            let child_mbr = self.store.try_read(child)?.mbr();
            self.store.try_write(parent, |n| {
                if let RNode::Branch(entries) = n {
                    let e = entries
                        .iter_mut()
                        .find(|(_, c)| *c == child)
                        .expect("path child missing from parent");
                    e.0 = child_mbr;
                }
            })?;
        }
        Ok(())
    }

    /// R\*-tree topological split: axis by minimum margin sum,
    /// distribution by minimum overlap (ties: minimum combined area).
    /// Returns `(left_mbr, right_mbr, right_pid)`.
    fn try_split_node(&mut self, node: PageId) -> Result<(Rect2, Rect2, PageId), PagerError> {
        let m = self.cfg.min_entries;
        enum SplitOut<T> {
            Leaf(Vec<(Rect2, T)>),
            Branch(Vec<(Rect2, PageId)>),
        }
        let (left_mbr, right_mbr, right_part) = self.store.try_write(node, |n| match n {
            RNode::Leaf(entries) => {
                let right = rstar_split(entries, m);
                (mbr_of(entries), mbr_of(&right), SplitOut::Leaf(right))
            }
            RNode::Branch(entries) => {
                let right = rstar_split(entries, m);
                (mbr_of(entries), mbr_of(&right), SplitOut::Branch(right))
            }
        })?;
        let right_pid = match right_part {
            SplitOut::Leaf(v) => self.store.try_allocate(RNode::Leaf(v))?,
            SplitOut::Branch(v) => self.store.try_allocate(RNode::Branch(v))?,
        };
        Ok((left_mbr, right_mbr, right_pid))
    }

    // ------------------------------------------------------------------
    // Deletion internals
    // ------------------------------------------------------------------

    fn try_remove_rec(
        &mut self,
        pid: PageId,
        level: usize,
        mbr: &Rect2,
        item: &T,
        orphans: &mut Vec<(usize, Rect2, Slot<T>)>,
    ) -> Result<bool, PagerError> {
        if level == 1 {
            return self.store.try_write(pid, |n| match n {
                RNode::Leaf(entries) => {
                    match entries.iter().position(|(r, t)| r == mbr && t == item) {
                        Some(pos) => {
                            entries.remove(pos);
                            true
                        }
                        None => false,
                    }
                }
                RNode::Branch(_) => unreachable!("branch at leaf level"),
            });
        }
        let candidates: Vec<PageId> = match self.store.try_read(pid)? {
            RNode::Branch(entries) => entries
                .iter()
                .filter(|(r, _)| r.contains_rect(mbr))
                .map(|&(_, c)| c)
                .collect(),
            RNode::Leaf(_) => unreachable!("leaf above leaf level"),
        };
        for child in candidates {
            if !self.try_remove_rec(child, level - 1, mbr, item, orphans)? {
                continue;
            }
            let occ = self.store.try_read(child)?.occupancy();
            if occ < self.cfg.min_entries {
                // Dissolve the child; its entries become orphans at the
                // child's level.
                let dissolved = self.store.try_read(child)?.clone();
                let _ = self.store.try_free(child)?;
                match dissolved {
                    RNode::Leaf(entries) => orphans.extend(
                        entries
                            .into_iter()
                            .map(|(r, t)| (level - 1, r, Slot::Item(t))),
                    ),
                    RNode::Branch(entries) => orphans.extend(
                        entries
                            .into_iter()
                            .map(|(r, c)| (level - 1, r, Slot::Child(c))),
                    ),
                }
                self.store.try_write(pid, |n| {
                    if let RNode::Branch(entries) = n {
                        let pos = entries
                            .iter()
                            .position(|(_, c)| *c == child)
                            .expect("dissolved child missing");
                        entries.remove(pos);
                    }
                })?;
            } else {
                let child_mbr = self.store.try_read(child)?.mbr();
                self.store.try_write(pid, |n| {
                    if let RNode::Branch(entries) = n {
                        let e = entries
                            .iter_mut()
                            .find(|(_, c)| *c == child)
                            .expect("child missing");
                        e.0 = child_mbr;
                    }
                })?;
            }
            return Ok(true);
        }
        Ok(false)
    }
}

// ----------------------------------------------------------------------
// Free helpers (entry-kind generic)
// ----------------------------------------------------------------------

fn mbr_of<X>(entries: &[(Rect2, X)]) -> Rect2 {
    let mut it = entries.iter().map(|&(r, _)| r);
    let first = it.next().expect("mbr of empty entry list");
    it.fold(first, |acc, r| acc.union(&r))
}

fn sort_by_center_distance_desc<X>(entries: &mut [(Rect2, X)], center: &Rect2) {
    entries.sort_by(|a, b| {
        let da = a.0.center_distance_sq(center);
        let db = b.0.center_distance_sq(center);
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// R\* choose-subtree at the level whose children are leaves: minimum
/// *overlap* enlargement, computed (as Beckmann et al. recommend) only for
/// the 32 entries with the least area enlargement.
fn choose_subtree_leaf_level(entries: &[(Rect2, PageId)], mbr: &Rect2) -> PageId {
    const CANDIDATES: usize = 32;
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by(|&a, &b| {
        let ea = entries[a].0.enlargement(mbr);
        let eb = entries[b].0.enlargement(mbr);
        ea.partial_cmp(&eb).unwrap_or(std::cmp::Ordering::Equal)
    });
    order.truncate(CANDIDATES);

    let mut best = order[0];
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for &i in &order {
        let grown = entries[i].0.union(mbr);
        let mut overlap_delta = 0.0;
        for (j, &(other, _)) in entries.iter().enumerate() {
            if j != i {
                overlap_delta += grown.overlap_area(&other) - entries[i].0.overlap_area(&other);
            }
        }
        let key = (
            overlap_delta,
            entries[i].0.enlargement(mbr),
            entries[i].0.area(),
        );
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    entries[best].1
}

/// R\* choose-subtree above the leaf level: minimum area enlargement
/// (ties: minimum area).
fn choose_subtree_inner(entries: &[(Rect2, PageId)], mbr: &Rect2) -> PageId {
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for (i, &(r, _)) in entries.iter().enumerate() {
        let key = (r.enlargement(mbr), r.area());
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    entries[best].1
}

/// The R\*-tree split: mutates `entries` into the left group and returns
/// the right group.
fn rstar_split<X: Clone>(entries: &mut Vec<(Rect2, X)>, min_entries: usize) -> Vec<(Rect2, X)> {
    let n = entries.len();
    let m = min_entries.min(n / 2).max(1);
    debug_assert!(n >= 2 * m);

    // Candidate orders: (axis, by-upper?) — four sorts as in the paper.
    let orders: [(usize, bool); 4] = [(0, false), (0, true), (1, false), (1, true)];

    let sort_entries = |entries: &mut Vec<(Rect2, X)>, axis: usize, by_upper: bool| {
        entries.sort_by(|a, b| {
            let (pa, pb) = if by_upper {
                (
                    if axis == 0 { a.0.hi.x } else { a.0.hi.y },
                    if axis == 0 { b.0.hi.x } else { b.0.hi.y },
                )
            } else {
                (
                    if axis == 0 { a.0.lo.x } else { a.0.lo.y },
                    if axis == 0 { b.0.lo.x } else { b.0.lo.y },
                )
            };
            pa.partial_cmp(&pb).unwrap_or(std::cmp::Ordering::Equal)
        });
    };

    // Pass 1: pick the split axis by minimum total margin.
    let mut margin_by_axis = [0.0f64; 2];
    for &(axis, by_upper) in &orders {
        sort_entries(entries, axis, by_upper);
        let (prefix, suffix) = prefix_suffix_mbrs(entries);
        for k in m..=(n - m) {
            margin_by_axis[axis] += prefix[k - 1].margin() + suffix[k].margin();
        }
    }
    let split_axis = if margin_by_axis[0] <= margin_by_axis[1] {
        0
    } else {
        1
    };

    // Pass 2: on the chosen axis, pick sort order and split index by
    // minimum overlap (ties: minimum combined area).
    let mut best: Option<(bool, usize)> = None;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for by_upper in [false, true] {
        sort_entries(entries, split_axis, by_upper);
        let (prefix, suffix) = prefix_suffix_mbrs(entries);
        for k in m..=(n - m) {
            let left = prefix[k - 1];
            let right = suffix[k];
            let key = (left.overlap_area(&right), left.area() + right.area());
            if key < best_key {
                best_key = key;
                best = Some((by_upper, k));
            }
        }
    }
    let (by_upper, k) = best.expect("no split distribution found");
    sort_entries(entries, split_axis, by_upper);
    entries.split_off(k)
}

/// `prefix[i]` = MBR of entries `0..=i`; `suffix[i]` = MBR of `i..`.
fn prefix_suffix_mbrs<X>(entries: &[(Rect2, X)]) -> (Vec<Rect2>, Vec<Rect2>) {
    let n = entries.len();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = entries[0].0;
    for e in entries {
        acc = acc.union(&e.0);
        prefix.push(acc);
    }
    let mut suffix = vec![entries[n - 1].0; n];
    let mut acc = entries[n - 1].0;
    for i in (0..n).rev() {
        acc = acc.union(&entries[i].0);
        suffix[i] = acc;
    }
    (prefix, suffix)
}

fn rect_close(a: &Rect2, b: &Rect2) -> bool {
    let eps = 1e-7;
    (a.lo.x - b.lo.x).abs() < eps
        && (a.lo.y - b.lo.y).abs() < eps
        && (a.hi.x - b.hi.x).abs() < eps
        && (a.hi.y - b.hi.y).abs() < eps
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidx_geom::Point2;

    fn small_cfg() -> RStarConfig {
        let mut cfg = RStarConfig::with_max(8);
        cfg.buffer_pages = 4;
        cfg
    }

    fn pseudo_rects(n: usize, seed: u64) -> Vec<Rect2> {
        // Deterministic pseudo-random rects without external crates.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            #[allow(clippy::cast_precision_loss)]
            {
                (state % 10_000) as f64 / 10.0
            }
        };
        (0..n)
            .map(|_| {
                let x = next();
                let y = next();
                let w = next() / 100.0;
                let h = next() / 100.0;
                Rect2::from_bounds(x, y, x + w, y + h)
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let mut t: RStarTree<u64> = RStarTree::new(small_cfg());
        assert!(t.is_empty());
        assert_eq!(
            t.try_search(&Rect2::from_bounds(0.0, 0.0, 1e9, 1e9))
                .unwrap(),
            vec![]
        );
        assert!(!t
            .try_remove(Rect2::point(Point2::new(0.0, 0.0)), 0)
            .unwrap());
        t.check_invariants();
    }

    #[test]
    fn window_query_matches_naive() {
        let rects = pseudo_rects(500, 7);
        let mut t: RStarTree<u64> = RStarTree::new(small_cfg());
        for (i, &r) in rects.iter().enumerate() {
            t.try_insert(r, i as u64).unwrap();
        }
        t.check_invariants();
        assert_eq!(t.len(), 500);

        for (qi, q) in pseudo_rects(20, 99).iter().enumerate() {
            // Blow the query rect up a bit so results are non-trivial.
            let q = Rect2::from_bounds(q.lo.x, q.lo.y, q.lo.x + 150.0, q.lo.y + 150.0);
            let mut got: Vec<u64> = t
                .try_search(&q)
                .unwrap()
                .into_iter()
                .map(|(_, v)| v)
                .collect();
            got.sort_unstable();
            let mut want: Vec<u64> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| r.intersects(&q))
                .map(|(i, _)| i as u64)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "query {qi} mismatch");
        }
    }

    #[test]
    fn delete_then_query() {
        let rects = pseudo_rects(300, 3);
        let mut t: RStarTree<u64> = RStarTree::new(small_cfg());
        for (i, &r) in rects.iter().enumerate() {
            t.try_insert(r, i as u64).unwrap();
        }
        // Delete every third entry.
        for (i, &r) in rects.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.try_remove(r, i as u64).unwrap(), "missing entry {i}");
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), 200);
        // Deleted entries are gone, others remain.
        let everything = Rect2::from_bounds(-1e6, -1e6, 1e6, 1e6);
        let mut got: Vec<u64> = t
            .try_search(&everything)
            .unwrap()
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        got.sort_unstable();
        let want: Vec<u64> = (0..300u64).filter(|i| i % 3 != 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn remove_absent_entry_is_noop() {
        let mut t: RStarTree<u64> = RStarTree::new(small_cfg());
        let r = Rect2::from_bounds(0.0, 0.0, 1.0, 1.0);
        t.try_insert(r, 1).unwrap();
        assert!(!t.try_remove(r, 2).unwrap(), "wrong item must not match");
        assert!(!t
            .try_remove(Rect2::from_bounds(0.0, 0.0, 2.0, 2.0), 1)
            .unwrap());
        assert_eq!(t.len(), 1);
        t.check_invariants();
    }

    #[test]
    fn churn_keeps_invariants() {
        let rects = pseudo_rects(400, 11);
        let mut t: RStarTree<u64> = RStarTree::new(small_cfg());
        for (i, &r) in rects.iter().enumerate() {
            t.try_insert(r, i as u64).unwrap();
            if i >= 50 && i % 2 == 0 {
                let j = i - 50;
                assert!(t.try_remove(rects[j], j as u64).unwrap());
            }
        }
        t.check_invariants();
    }

    #[test]
    fn delete_everything() {
        let rects = pseudo_rects(150, 5);
        let mut t: RStarTree<u64> = RStarTree::new(small_cfg());
        for (i, &r) in rects.iter().enumerate() {
            t.try_insert(r, i as u64).unwrap();
        }
        for (i, &r) in rects.iter().enumerate() {
            assert!(t.try_remove(r, i as u64).unwrap());
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants();
        // Space shrinks back to a single page.
        assert_eq!(t.live_pages(), 1);
    }

    #[test]
    fn duplicate_mbrs_with_distinct_items() {
        let mut t: RStarTree<u64> = RStarTree::new(small_cfg());
        let r = Rect2::from_bounds(1.0, 1.0, 2.0, 2.0);
        for i in 0..100u64 {
            t.try_insert(r, i).unwrap();
        }
        t.check_invariants();
        assert!(t.try_remove(r, 57).unwrap());
        assert!(!t.try_remove(r, 57).unwrap());
        assert_eq!(t.len(), 99);
        let got = t.try_search(&r).unwrap();
        assert_eq!(got.len(), 99);
    }

    #[test]
    fn point_query_costs_less_than_full_scan() {
        let rects = pseudo_rects(2000, 13);
        let mut t: RStarTree<u64> = RStarTree::new(RStarConfig::with_max(16));
        for (i, &r) in rects.iter().enumerate() {
            t.try_insert(r, i as u64).unwrap();
        }
        t.store_mut().try_clear_buffer().unwrap();
        let reads = t.store().stats().reads();
        let q = Rect2::from_bounds(100.0, 100.0, 110.0, 110.0);
        let _ = t.try_search(&q).unwrap();
        let cost = t.store().stats().reads() - reads;
        let total_pages = t.live_pages();
        assert!(
            cost < total_pages / 2,
            "small window query should not scan most pages ({cost} of {total_pages})"
        );
    }
}
