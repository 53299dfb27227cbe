//! The paged kd-tree proper.

use crate::page::{KdConfig, KdPage, NodeIdx, Ref, Split};
use mobidx_geom::{Aabb, QueryRegion, Relation};
use mobidx_pager::{PageId, PageStore, PagerError, Store};
use std::fmt::Debug;

/// Where a child reference lives inside a directory page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotAddr {
    /// The page's entry ref.
    Root,
    /// Left ref of split node `i`.
    Left(NodeIdx),
    /// Right ref of split node `i`.
    Right(NodeIdx),
}

/// A paged kd-tree over `D`-dimensional points with `Copy` payloads.
///
/// See the crate docs for the design; the public surface is
/// insert / remove / region query / invariant check.
#[derive(Debug)]
pub struct KdTree<const D: usize, T: Copy + PartialEq + Debug> {
    store: PageStore<KdPage<D, T>>,
    root: PageId,
    len: usize,
    cfg: KdConfig,
    /// Bounding box of every point ever inserted (never shrunk by
    /// removals — a conservative outer bound used to make best-first
    /// search bounds finite even for fringe cells).
    bbox: Aabb<D>,
}

impl<const D: usize, T: Copy + PartialEq + Debug> KdTree<D, T> {
    /// Creates an empty tree.
    ///
    /// # Panics
    /// Panics on degenerate configurations.
    #[must_use]
    pub fn new(cfg: KdConfig) -> Self {
        assert!(cfg.leaf_cap >= 2, "leaf capacity must be at least 2");
        assert!(cfg.dir_cap >= 2, "directory capacity must be at least 2");
        let mut store = PageStore::new(cfg.buffer_pages);
        let root = store
            .try_allocate(KdPage::empty_data())
            .expect("a fresh store's MemBackend never faults");
        Self {
            store,
            root,
            len: 0,
            cfg,
            bbox: Aabb::empty(),
        }
    }

    /// Number of stored points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// The root page (for sibling modules, e.g. nearest-neighbor search).
    pub(crate) fn root_page(&self) -> PageId {
        self.root
    }

    /// Conservative bounding box of the stored points (grows on insert,
    /// never shrinks).
    pub(crate) fn data_bbox(&self) -> Aabb<D> {
        self.bbox
    }

    /// Counted page access (for sibling modules).
    pub(crate) fn try_read_page(&mut self, pid: PageId) -> Result<&KdPage<D, T>, PagerError> {
        self.store.try_read(pid)
    }

    /// Inserts `(point, payload)`.
    ///
    /// # Errors
    /// Surfaces pager faults; the tree may hold a partially applied
    /// insert (e.g. the point landed but its bucket was not split).
    pub fn try_insert(&mut self, point: [f64; D], payload: T) -> Result<(), PagerError> {
        self.bbox.extend(point);
        let (data_pid, chain) = self.try_descend(&point)?;
        let occ = self.store.try_write(data_pid, |page| match page {
            KdPage::Data { points } => {
                points.push((point, payload));
                points.len()
            }
            KdPage::Dir { .. } => unreachable!("descend ended on a directory page"),
        })?;
        self.len += 1;
        if occ > self.cfg.leaf_cap {
            self.try_split_data_page(data_pid, &chain)?;
        }
        Ok(())
    }

    /// Removes the exact `(point, payload)` pair. Returns `Ok(true)` if it
    /// was present.
    ///
    /// # Errors
    /// Surfaces pager faults; the pair may already be gone when the
    /// error occurred during post-removal page reclamation.
    pub fn try_remove(&mut self, point: [f64; D], payload: T) -> Result<bool, PagerError> {
        let (data_pid, chain) = self.try_descend(&point)?;
        let (found, now_empty) = self.store.try_write(data_pid, |page| match page {
            KdPage::Data { points } => {
                match points
                    .iter()
                    .position(|(p, t)| *p == point && *t == payload)
                {
                    Some(pos) => {
                        points.swap_remove(pos);
                        (true, points.is_empty())
                    }
                    None => (false, false),
                }
            }
            KdPage::Dir { .. } => unreachable!(),
        })?;
        if !found {
            return Ok(false);
        }
        self.len -= 1;
        if now_empty && !chain.is_empty() {
            self.try_remove_empty_data_page(data_pid, &chain)?;
        }
        Ok(true)
    }

    /// Visits every stored point inside `region` (orthogonal box or
    /// linear-constraint polygon — anything implementing
    /// [`QueryRegion`]).
    ///
    /// # Errors
    /// Surfaces pager faults; points already visited stay visited.
    pub fn try_query<Q: QueryRegion<D>>(
        &mut self,
        region: &Q,
        mut visit: impl FnMut(&[f64; D], T),
    ) -> Result<(), PagerError> {
        // (page, cell, already-contained)
        let mut stack: Vec<(PageId, Aabb<D>, bool)> = vec![(self.root, Aabb::everything(), false)];
        while let Some((pid, cell, contained)) = stack.pop() {
            // Classify at page granularity first (root page, and pages
            // pushed before classification was known).
            let contained = if contained {
                true
            } else {
                match region.cell_relation(&cell) {
                    Relation::Disjoint => continue,
                    Relation::Contains => true,
                    Relation::Overlaps => false,
                }
            };
            match self.store.try_read(pid)? {
                KdPage::Data { points } => {
                    for &(p, t) in points {
                        if contained || region.contains_point(&p) {
                            visit(&p, t);
                        }
                    }
                }
                KdPage::Dir { splits, root, .. } => {
                    Self::walk_dir(splits, *root, cell, contained, region, &mut stack);
                }
            }
        }
        Ok(())
    }

    /// Reports matching `(point, payload)` pairs as a vector.
    ///
    /// # Errors
    /// Surfaces pager faults.
    pub fn try_query_collect<Q: QueryRegion<D>>(
        &mut self,
        region: &Q,
    ) -> Result<Vec<([f64; D], T)>, PagerError> {
        let mut out = Vec::new();
        self.try_query(region, |p, t| out.push((*p, t)))?;
        Ok(out)
    }

    fn walk_dir<Q: QueryRegion<D>>(
        splits: &[Option<Split>],
        r: Ref,
        cell: Aabb<D>,
        contained: bool,
        region: &Q,
        stack: &mut Vec<(PageId, Aabb<D>, bool)>,
    ) {
        let contained = if contained {
            true
        } else {
            match region.cell_relation(&cell) {
                Relation::Disjoint => return,
                Relation::Contains => true,
                Relation::Overlaps => false,
            }
        };
        match r {
            Ref::Page(pid) => stack.push((pid, cell, contained)),
            Ref::Split(idx) => {
                let s = splits[idx as usize].expect("dangling split ref");
                let (lcell, rcell) = cell.split(usize::from(s.axis), s.at);
                Self::walk_dir(splits, s.left, lcell, contained, region, stack);
                Self::walk_dir(splits, s.right, rcell, contained, region, stack);
            }
        }
    }

    /// All stored points (uncounted access; for tests and audits).
    #[must_use]
    pub fn collect_all(&self) -> Vec<([f64; D], T)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            match self.store.peek(pid) {
                KdPage::Data { points } => out.extend_from_slice(points),
                KdPage::Dir { splits, root, .. } => {
                    collect_child_pages(splits, *root, &mut stack);
                }
            }
        }
        out
    }

    /// Verifies structural invariants (uncounted access).
    ///
    /// # Panics
    /// Panics describing the first violated invariant.
    pub fn check_invariants(&self) {
        let mut count = 0usize;
        self.check_page(self.root, Aabb::everything(), true, &mut count);
        assert_eq!(count, self.len, "len does not match page contents");
    }

    fn check_page(&self, pid: PageId, cell: Aabb<D>, is_root: bool, count: &mut usize) {
        match self.store.peek(pid) {
            KdPage::Data { points } => {
                if !is_root {
                    assert!(!points.is_empty(), "empty non-root data page");
                }
                // A data page may exceed leaf_cap only if all its points
                // are identical (unsplittable).
                if points.len() > self.cfg.leaf_cap {
                    let first = points[0].0;
                    assert!(
                        points.iter().all(|(p, _)| *p == first),
                        "overfull splittable data page"
                    );
                }
                for (p, _) in points {
                    assert!(cell.contains(p), "point {p:?} outside its cell");
                }
                *count += points.len();
            }
            KdPage::Dir {
                splits,
                free,
                root,
                live,
            } => {
                assert!(*live >= 1, "directory page with no splits");
                assert!(
                    *live < self.cfg.dir_cap,
                    "directory fan-out {} exceeds cap {}",
                    *live + 1,
                    self.cfg.dir_cap
                );
                let live_slots = splits.iter().filter(|s| s.is_some()).count();
                assert_eq!(live_slots, *live, "live-split count out of sync");
                assert_eq!(
                    splits.len() - live_slots,
                    free.len(),
                    "free list out of sync"
                );
                // The in-page tree must reach every live split exactly
                // once.
                let mut seen = vec![false; splits.len()];
                let mut pages = Vec::new();
                walk_check(splits, *root, cell, &mut seen, &mut pages);
                let reached = seen.iter().filter(|&&b| b).count();
                assert_eq!(reached, *live, "in-page tree does not cover all splits");
                for (child, child_cell) in pages {
                    self.check_page(child, child_cell, false, count);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Descent
    // ------------------------------------------------------------------

    /// Routes `point` to its data page. Returns the page and the chain of
    /// `(directory page, slot holding the next hop)` traversed.
    #[allow(clippy::type_complexity)]
    fn try_descend(
        &mut self,
        point: &[f64; D],
    ) -> Result<(PageId, Vec<(PageId, SlotAddr)>), PagerError> {
        let mut chain = Vec::new();
        let mut pid = self.root;
        loop {
            let hop = match self.store.try_read(pid)? {
                KdPage::Data { .. } => None,
                KdPage::Dir { splits, root, .. } => {
                    let mut slot = SlotAddr::Root;
                    let mut r = *root;
                    while let Ref::Split(idx) = r {
                        let s = splits[idx as usize].expect("dangling split ref");
                        if point[usize::from(s.axis)] < s.at {
                            slot = SlotAddr::Left(idx);
                            r = s.left;
                        } else {
                            slot = SlotAddr::Right(idx);
                            r = s.right;
                        }
                    }
                    match r {
                        Ref::Page(child) => Some((child, slot)),
                        Ref::Split(_) => unreachable!(),
                    }
                }
            };
            match hop {
                None => return Ok((pid, chain)),
                Some((child, slot)) => {
                    chain.push((pid, slot));
                    pid = child;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Split machinery
    // ------------------------------------------------------------------

    fn try_split_data_page(
        &mut self,
        pid: PageId,
        chain: &[(PageId, SlotAddr)],
    ) -> Result<(), PagerError> {
        // Partition the bucket on the axis of largest spread, at a median
        // value chosen so both halves are non-empty.
        let split_plan = self.store.try_write(pid, |page| match page {
            KdPage::Data { points } => plan_bucket_split(points),
            KdPage::Dir { .. } => unreachable!(),
        })?;
        let Some((axis, at)) = split_plan else {
            // All points identical: unsplittable; tolerate the overfull
            // bucket (checked by check_invariants).
            return Ok(());
        };
        let right_points = self.store.try_write(pid, |page| match page {
            KdPage::Data { points } => {
                let mut right = Vec::new();
                points.retain(|(p, t)| {
                    if p[usize::from(axis)] < at {
                        true
                    } else {
                        right.push((*p, *t));
                        false
                    }
                });
                right
            }
            KdPage::Dir { .. } => unreachable!(),
        })?;
        let right_pid = self.store.try_allocate(KdPage::Data {
            points: right_points,
        })?;
        let split = Split {
            axis,
            at,
            left: Ref::Page(pid),
            right: Ref::Page(right_pid),
        };
        match chain.last() {
            None => {
                // The data page was the tree root: grow a directory above.
                let dir = self.store.try_allocate(KdPage::Dir {
                    splits: vec![Some(split)],
                    free: Vec::new(),
                    root: Ref::Split(0),
                    live: 1,
                })?;
                self.root = dir;
            }
            Some(&(dir, slot)) => {
                let live = self.store.try_write(dir, |page| match page {
                    KdPage::Dir {
                        splits,
                        free,
                        root,
                        live,
                    } => {
                        let idx = match free.pop() {
                            Some(i) => {
                                splits[i as usize] = Some(split);
                                i
                            }
                            None => {
                                let i = NodeIdx::try_from(splits.len())
                                    .expect("directory page exceeds u16 slots");
                                splits.push(Some(split));
                                i
                            }
                        };
                        set_slot(splits, root, slot, Ref::Split(idx));
                        *live += 1;
                        *live
                    }
                    KdPage::Data { .. } => unreachable!(),
                })?;
                if live + 1 > self.cfg.dir_cap {
                    self.try_split_dir_page(dir)?;
                }
            }
        }
        Ok(())
    }

    /// hB-style directory split: extract the subtree whose size is
    /// closest to half the page into a fresh directory page, replacing it
    /// in the old page by an external page ref. No entry is added to any
    /// ancestor, so directory splits never cascade.
    fn try_split_dir_page(&mut self, dir: PageId) -> Result<(), PagerError> {
        let extracted = self.store.try_write(dir, |page| match page {
            KdPage::Dir {
                splits,
                free,
                root,
                live,
            } => {
                let root_ref = *root;
                let Ref::Split(root_idx) = root_ref else {
                    unreachable!("overflowing dir page with page-ref root")
                };
                // Subtree sizes.
                let mut sizes = vec![0usize; splits.len()];
                subtree_size(splits, root_ref, &mut sizes);
                let target = *live / 2;
                let mut best: Option<NodeIdx> = None;
                let mut best_diff = usize::MAX;
                for (i, s) in splits.iter().enumerate() {
                    if s.is_some() && i != usize::from(root_idx) {
                        let diff = sizes[i].abs_diff(target);
                        if diff < best_diff {
                            best_diff = diff;
                            best = Some(i as NodeIdx);
                        }
                    }
                }
                let extract_idx = best.expect("dir overflow with a single split");

                // Collect the subtree into a fresh slab with remapped
                // indices.
                let mut new_splits: Vec<Option<Split>> = Vec::new();
                let new_root =
                    extract_subtree(splits, free, Ref::Split(extract_idx), &mut new_splits);
                let moved = new_splits.len();
                *live -= moved;

                // Re-point the extracted subtree's parent slot; the
                // caller fills in the new page id.
                let parent_slot = find_parent_slot(splits, root_ref, extract_idx)
                    .expect("extracted split unreachable");
                (new_splits, new_root, parent_slot, moved)
            }
            KdPage::Data { .. } => unreachable!(),
        })?;
        let (new_splits, new_root, parent_slot, moved) = extracted;
        let new_pid = self.store.try_allocate(KdPage::Dir {
            splits: new_splits,
            free: Vec::new(),
            root: new_root,
            live: moved,
        })?;
        self.store.try_write(dir, |page| {
            if let KdPage::Dir { splits, root, .. } = page {
                set_slot(splits, root, parent_slot, Ref::Page(new_pid));
            }
        })?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Delete machinery
    // ------------------------------------------------------------------

    fn try_remove_empty_data_page(
        &mut self,
        data_pid: PageId,
        chain: &[(PageId, SlotAddr)],
    ) -> Result<(), PagerError> {
        let _ = self.store.try_free(data_pid)?;
        let &(dir, slot) = chain.last().expect("non-root page without owner");
        let live = self.store.try_write(dir, |page| match page {
            KdPage::Dir {
                splits,
                free,
                root,
                live,
            } => {
                // The slot is Left/Right of some split (a dir page's root
                // is always a split while live >= 1).
                let idx = match slot {
                    SlotAddr::Left(i) | SlotAddr::Right(i) => i,
                    SlotAddr::Root => unreachable!("data child at dir root with live splits"),
                };
                let s = splits[idx as usize].expect("dangling split");
                let other = match slot {
                    SlotAddr::Left(_) => s.right,
                    SlotAddr::Right(_) => s.left,
                    SlotAddr::Root => unreachable!(),
                };
                // Splice the unary split out of the in-page tree.
                let parent_slot =
                    find_parent_slot(splits, *root, idx).expect("split unreachable from page root");
                splits[idx as usize] = None;
                free.push(idx);
                *live -= 1;
                set_slot(splits, root, parent_slot, other);
                *live
            }
            KdPage::Data { .. } => unreachable!(),
        })?;
        if live == 0 {
            // The directory page now holds a bare page ref: collapse it.
            let child = match self.store.try_read(dir)? {
                KdPage::Dir {
                    root: Ref::Page(c), ..
                } => *c,
                _ => unreachable!("empty dir without page-ref root"),
            };
            let _ = self.store.try_free(dir)?;
            if chain.len() >= 2 {
                let &(grand, gslot) = &chain[chain.len() - 2];
                self.store.try_write(grand, |page| {
                    if let KdPage::Dir { splits, root, .. } = page {
                        set_slot(splits, root, gslot, Ref::Page(child));
                    }
                })?;
            } else {
                self.root = child;
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// In-page tree helpers
// ----------------------------------------------------------------------

/// Writes `value` into the addressed slot.
fn set_slot(splits: &mut [Option<Split>], root: &mut Ref, slot: SlotAddr, value: Ref) {
    match slot {
        SlotAddr::Root => *root = value,
        SlotAddr::Left(i) => {
            splits[i as usize].as_mut().expect("dangling split").left = value;
        }
        SlotAddr::Right(i) => {
            splits[i as usize].as_mut().expect("dangling split").right = value;
        }
    }
}

/// Computes subtree sizes (number of splits) for every split reachable
/// from `r`; returns the size of `r`'s subtree.
fn subtree_size(splits: &[Option<Split>], r: Ref, sizes: &mut [usize]) -> usize {
    match r {
        Ref::Page(_) => 0,
        Ref::Split(idx) => {
            let s = splits[idx as usize].expect("dangling split");
            let n = 1 + subtree_size(splits, s.left, sizes) + subtree_size(splits, s.right, sizes);
            sizes[idx as usize] = n;
            n
        }
    }
}

/// Finds the slot (within this page) that points at split `target`.
fn find_parent_slot(splits: &[Option<Split>], root: Ref, target: NodeIdx) -> Option<SlotAddr> {
    if root == Ref::Split(target) {
        return Some(SlotAddr::Root);
    }
    let mut stack = vec![root];
    while let Some(r) = stack.pop() {
        if let Ref::Split(idx) = r {
            let s = splits[idx as usize].expect("dangling split");
            if s.left == Ref::Split(target) {
                return Some(SlotAddr::Left(idx));
            }
            if s.right == Ref::Split(target) {
                return Some(SlotAddr::Right(idx));
            }
            stack.push(s.left);
            stack.push(s.right);
        }
    }
    None
}

/// Moves the subtree rooted at `r` out of `splits` into `new_splits`
/// (freeing the old slots) and returns the rebased ref.
fn extract_subtree(
    splits: &mut [Option<Split>],
    free: &mut Vec<NodeIdx>,
    r: Ref,
    new_splits: &mut Vec<Option<Split>>,
) -> Ref {
    match r {
        Ref::Page(p) => Ref::Page(p),
        Ref::Split(idx) => {
            let s = splits[idx as usize].take().expect("dangling split");
            free.push(idx);
            let left = extract_subtree(splits, free, s.left, new_splits);
            let right = extract_subtree(splits, free, s.right, new_splits);
            let new_idx = NodeIdx::try_from(new_splits.len()).expect("u16 overflow");
            new_splits.push(Some(Split {
                axis: s.axis,
                at: s.at,
                left,
                right,
            }));
            Ref::Split(new_idx)
        }
    }
}

fn collect_child_pages(splits: &[Option<Split>], root: Ref, out: &mut Vec<PageId>) {
    let mut stack = vec![root];
    while let Some(r) = stack.pop() {
        match r {
            Ref::Page(p) => out.push(p),
            Ref::Split(idx) => {
                let s = splits[idx as usize].expect("dangling split");
                stack.push(s.left);
                stack.push(s.right);
            }
        }
    }
}

/// Invariant-check walk: marks reached splits and reports child pages
/// with their cells.
fn walk_check<const D: usize>(
    splits: &[Option<Split>],
    r: Ref,
    cell: Aabb<D>,
    seen: &mut [bool],
    pages: &mut Vec<(PageId, Aabb<D>)>,
) {
    match r {
        Ref::Page(p) => pages.push((p, cell)),
        Ref::Split(idx) => {
            assert!(
                !std::mem::replace(&mut seen[idx as usize], true),
                "split {idx} reached twice"
            );
            let s = splits[idx as usize].expect("in-page tree reaches freed split");
            let (l, rr) = cell.split(usize::from(s.axis), s.at);
            walk_check(splits, s.left, l, seen, pages);
            walk_check(splits, s.right, rr, seen, pages);
        }
    }
}

/// Picks `(axis, at)` for a bucket split: axis of largest spread, cut at
/// the median (adjusted upward if the median equals the minimum, so that
/// both sides are non-empty). Returns `None` if all points coincide.
fn plan_bucket_split<const D: usize, T>(points: &[([f64; D], T)]) -> Option<(u8, f64)> {
    debug_assert!(points.len() >= 2);
    let mut best_axis = 0usize;
    let mut best_spread = 0.0f64;
    for axis in 0..D {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (p, _) in points {
            min = min.min(p[axis]);
            max = max.max(p[axis]);
        }
        let spread = max - min;
        if spread > best_spread {
            best_spread = spread;
            best_axis = axis;
        }
    }
    if best_spread <= 0.0 {
        return None;
    }
    let mut values: Vec<f64> = points.iter().map(|(p, _)| p[best_axis]).collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN coordinate"));
    let mut at = values[values.len() / 2];
    if at <= values[0] {
        // Everything below the median equals the minimum: take the first
        // strictly larger value so the left side is non-empty.
        at = *values
            .iter()
            .find(|&&v| v > values[0])
            .expect("positive spread but no larger value");
    }
    #[allow(clippy::cast_possible_truncation)]
    Some((best_axis as u8, at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidx_geom::{ConvexPolygon, HalfPlane};

    fn pseudo_points(n: usize, seed: u64) -> Vec<[f64; 2]> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            #[allow(clippy::cast_precision_loss)]
            {
                (state % 100_000) as f64 / 100.0
            }
        };
        (0..n).map(|_| [next(), next()]).collect()
    }

    fn build(points: &[[f64; 2]], cfg: KdConfig) -> KdTree<2, u64> {
        let mut t = KdTree::new(cfg);
        for (i, &p) in points.iter().enumerate() {
            t.try_insert(p, i as u64).unwrap();
        }
        t
    }

    #[test]
    fn empty_tree() {
        let mut t: KdTree<2, u64> = KdTree::new(KdConfig::small(4, 4));
        assert!(t.is_empty());
        let q = Aabb::new([0.0, 0.0], [1e9, 1e9]);
        assert_eq!(t.try_query_collect(&q).unwrap(), vec![]);
        assert!(!t.try_remove([1.0, 1.0], 0).unwrap());
        t.check_invariants();
    }

    #[test]
    fn box_query_matches_naive() {
        let pts = pseudo_points(2000, 42);
        let mut t = build(&pts, KdConfig::small(8, 4));
        t.check_invariants();
        assert_eq!(t.len(), 2000);
        for (qi, q) in pseudo_points(25, 7).iter().enumerate() {
            let qbox = Aabb::new([q[0], q[1]], [q[0] + 200.0, q[1] + 200.0]);
            let mut got: Vec<u64> = t
                .try_query_collect(&qbox)
                .unwrap()
                .into_iter()
                .map(|(_, v)| v)
                .collect();
            got.sort_unstable();
            let mut want: Vec<u64> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| qbox.contains(p))
                .map(|(i, _)| i as u64)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "query {qi} mismatch");
        }
    }

    #[test]
    fn simplex_query_matches_naive() {
        let pts = pseudo_points(1500, 5);
        let mut t = build(&pts, KdConfig::small(8, 4));
        // Wedge: y <= x + 100 && y >= x - 100 && 200 <= x <= 600.
        let poly = ConvexPolygon::new(vec![
            HalfPlane::new(-1.0, 1.0, 100.0),
            HalfPlane::new(1.0, -1.0, 100.0),
            HalfPlane::x_ge(200.0),
            HalfPlane::x_le(600.0),
        ]);
        let mut got: Vec<u64> = t
            .try_query_collect(&poly)
            .unwrap()
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| QueryRegion::<2>::contains_point(&poly, &[p[0], p[1]]))
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        assert!(!want.is_empty(), "degenerate test query");
        assert_eq!(got, want);
    }

    #[test]
    fn delete_then_query() {
        let pts = pseudo_points(1000, 9);
        let mut t = build(&pts, KdConfig::small(8, 4));
        for (i, &p) in pts.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.try_remove(p, i as u64).unwrap(), "missing {i}");
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), 666); // 334 of 0..1000 are multiples of 3
        let everything = Aabb::new([-1e9, -1e9], [1e9, 1e9]);
        let mut got: Vec<u64> = t
            .try_query_collect(&everything)
            .unwrap()
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        got.sort_unstable();
        let want: Vec<u64> = (0..1000u64).filter(|i| i % 3 != 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_everything_collapses() {
        let pts = pseudo_points(500, 21);
        let mut t = build(&pts, KdConfig::small(4, 4));
        for (i, &p) in pts.iter().enumerate() {
            assert!(t.try_remove(p, i as u64).unwrap());
        }
        assert!(t.is_empty());
        t.check_invariants();
        // One (root) page remains.
        assert_eq!(t.live_pages(), 1);
    }

    #[test]
    fn churn_keeps_invariants() {
        let pts = pseudo_points(800, 33);
        let mut t: KdTree<2, u64> = KdTree::new(KdConfig::small(4, 4));
        for (i, &p) in pts.iter().enumerate() {
            t.try_insert(p, i as u64).unwrap();
            if i >= 100 && i % 2 == 0 {
                let j = i - 100;
                assert!(t.try_remove(pts[j], j as u64).unwrap());
            }
            if i % 97 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
    }

    #[test]
    fn identical_points_tolerated() {
        let mut t: KdTree<2, u64> = KdTree::new(KdConfig::small(4, 4));
        for i in 0..40u64 {
            t.try_insert([5.0, 5.0], i).unwrap();
        }
        t.check_invariants();
        let q = Aabb::new([5.0, 5.0], [5.0, 5.0]);
        assert_eq!(t.try_query_collect(&q).unwrap().len(), 40);
        for i in 0..40u64 {
            assert!(t.try_remove([5.0, 5.0], i).unwrap());
        }
        assert!(t.is_empty());
    }

    #[test]
    fn four_dimensional_points() {
        let mut t: KdTree<4, u64> = KdTree::new(KdConfig::small(8, 4));
        let pts: Vec<[f64; 4]> = pseudo_points(600, 3)
            .iter()
            .zip(pseudo_points(600, 4).iter())
            .map(|(a, b)| [a[0], a[1], b[0], b[1]])
            .collect();
        for (i, &p) in pts.iter().enumerate() {
            t.try_insert(p, i as u64).unwrap();
        }
        t.check_invariants();
        let q = Aabb::new([0.0, 0.0, 0.0, 0.0], [500.0, 500.0, 500.0, 500.0]);
        let mut got: Vec<u64> = t
            .try_query_collect(&q)
            .unwrap()
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains(p))
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn query_io_less_than_full_scan() {
        let pts = pseudo_points(5000, 17);
        let mut t = build(&pts, KdConfig::small(16, 8));
        t.store_mut().try_clear_buffer().unwrap();
        let reads = t.store().stats().reads();
        let q = Aabb::new([100.0, 100.0], [150.0, 150.0]);
        let _ = t.try_query_collect(&q).unwrap();
        let cost = t.store().stats().reads() - reads;
        assert!(
            cost < t.live_pages() / 2,
            "small query should not scan most pages ({cost} of {})",
            t.live_pages()
        );
    }
}
